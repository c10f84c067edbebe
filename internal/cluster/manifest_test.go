package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// cellTile is tileAt for a tile that is stitched with others: its one
// point has the cell's ID, so the tiles of a region share none.
func cellTile(cell int, clock uint64, salt int) []byte {
	m := core.NewMap("cell")
	if err := m.RestorePoint(core.PointElement{ID: core.ID(cell + 1), Class: core.ClassSign, Pos: geo.V3(float64(salt), 1, 0)}); err != nil {
		panic(err)
	}
	m.Clock = clock
	return storage.EncodeBinary(m)
}

// routerClient is a storage.Client whose requests are served by rt on the
// caller's goroutine; front.bodies counts its tile GETs.
func routerClient(rt *Router, cache *storage.TileCache) (c *storage.Client, front *memNode) {
	front = &memNode{name: "router", h: rt}
	return &storage.Client{
		Base: "http://router", HTTP: &http.Client{Transport: memTransport{"router": front}},
		Cache: cache, Retry: storage.RetryPolicy{MaxAttempts: 1}, Metrics: obs.NewRegistry(),
	}, front
}

func manifest(rt *Router, layer, query string) ([]storage.ManifestEntry, error) {
	w := serve(rt, http.MethodGet, "/v1/tiles/"+layer+query, nil)
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("list %s%s: %d %s", layer, query, w.code, w.body)
	}
	var out []storage.ManifestEntry
	return out, json.Unmarshal(w.body, &out)
}

// TestManifestProperty drives the merged manifest and the pull that
// trusts it over seeded schedules on a 5-node, R=3 cluster. Every round
// of a schedule rewrites the owners of a 2x2 window's keys directly into
// divergent states (as TestReadProtocolProperty does: older and newer
// clocks, one clock with different bytes, markers against live tiles) or
// leaves a key alone, and may take a node down, with or without the
// failure detector knowing. Then:
//
//   - the manifest lists a key exactly when the freshest of the reachable
//     replicas (compared by full bodies, the read protocol's oracle) is a
//     live tile, and a state it carries is that winner's: what a quorum
//     read answering from all of them returns. Where two live replicas
//     tie on everything but their bytes the key is listed without a
//     state.
//   - once a plain pull's read-repairs have converged the replicas, the
//     manifest carries every key's state, the caching client — whose
//     cache holds whatever earlier rounds and the divergent phase left in
//     it — pulls the same region as the client without a cache, and a
//     second pull of it is all revalidation: one request.
//
// A failure prints its seed; MANIFEST_SEED replays one.
func TestManifestProperty(t *testing.T) {
	first, seeds := int64(1), int64(200)
	if v := os.Getenv("MANIFEST_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad MANIFEST_SEED %q", v)
		}
		first, seeds = n, 1
	}
	rt, nodes := newMemCluster(t, 5, Config{Replicas: 3})
	rt.Start()
	byName := map[string]*memNode{}
	for _, n := range nodes {
		byName[n.name] = n
	}
	for seed := first; seed < first+seeds; seed++ {
		if msg := manifestSchedule(t, rt, byName, seed); msg != "" {
			t.Fatalf("seed %d (replay with MANIFEST_SEED=%d): %s", seed, seed, msg)
		}
	}
	if s := rt.Stats(); s.Routed != s.Served+s.Shed+s.Errored {
		t.Errorf("accounting: routed %d != served %d + shed %d + errored %d", s.Routed, s.Served, s.Shed, s.Errored)
	}
}

func manifestSchedule(t *testing.T, rt *Router, byName map[string]*memNode, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	layer := "m" + strconv.FormatInt(seed, 10)
	const side = 2
	keys := make([]storage.TileKey, side*side)
	for i := range keys {
		keys[i] = storage.TileKey{Layer: layer, TX: int32(i % side), TY: int32(i / side)}
	}
	win := fmt.Sprintf("?bbox=0,0,%d,%d", side-1, side-1)
	cached, _ := routerClient(rt, storage.NewTileCache(16))
	plain, _ := routerClient(rt, nil)
	ctx := context.Background()
	pull := func(c *storage.Client) (*core.Map, *storage.RegionHealth, error) {
		return c.FetchRegion(ctx, layer, 0, 0, side-1, side-1, "r")
	}

	for round := 0; round < 3; round++ {
		c := uint64(10 * (round + 1)) // rounds do not share clocks: a later write is never refused
		for i, key := range keys {
			if round > 0 && rng.Intn(3) == 0 {
				continue // left as the last round's repairs made it
			}
			menu := [][]byte{
				nil, // whatever the owner holds already
				cellTile(i, c, 1), cellTile(i, c, 2), cellTile(i, c+1, 3), cellTile(i, c-1, 4),
				markerBytes(key, c, 1), markerBytes(key, c, 2), markerBytes(key, c+1, 1),
			}
			for _, m := range rt.ownersFor(key) {
				if data := menu[rng.Intn(len(menu))]; data != nil {
					directPutMem(t, byName[m.node.Name], key, data)
				}
			}
		}
		// At most one node down, so every key keeps a read quorum.
		if fault := rng.Intn(4); fault < 2 {
			n := byName[fmt.Sprintf("node%d", rng.Intn(len(byName)))]
			n.down.Store(true)
			if fault == 0 {
				setAlive(rt, n.name, false)
			}
		}
		// reachable is what the owners that can answer hold, read back
		// from the shards themselves.
		reachable := func(key storage.TileKey) (set []replica, names []string) {
			for _, m := range rt.ownersFor(key) {
				if n := byName[m.node.Name]; !n.down.Load() {
					data, tomb := held(n, key)
					set, names = append(set, replica{data: data, tomb: tomb}), append(names, n.name)
				}
			}
			return set, names
		}
		describe := func(key storage.TileKey) string {
			var b strings.Builder
			set, names := reachable(key)
			for i, r := range set {
				fmt.Fprintf(&b, "\n  %s: tomb=%v clock=%d crc=%s", names[i], r.tomb, r.clock(), storage.Checksum(r.data))
			}
			return b.String()
		}
		// check compares a manifest with the reachable replicas; settled
		// says their divergence is over, so no tie is left to leave open.
		// A read answers at quorum and lets its last leg finish behind it,
		// so a repair from the round before can still land: the replicas
		// are read before and after the manifest, until they stood still.
		snapshot := func() (all [][]replica) {
			for _, key := range keys {
				set, _ := reachable(key)
				all = append(all, set)
			}
			return all
		}
		same := func(a, b [][]replica) bool {
			for i := range a {
				for j := range a[i] {
					if !bytes.Equal(a[i][j].data, b[i][j].data) || a[i][j].tomb != b[i][j].tomb {
						return false
					}
				}
			}
			return true
		}
		check := func(at string, settled bool) string {
			var entries []storage.ManifestEntry
			var sets [][]replica
			for try := 0; ; try++ {
				before := snapshot()
				var err error
				if entries, err = manifest(rt, layer, win+"&state=1"); err != nil {
					return at + ": " + err.Error()
				}
				if sets = snapshot(); same(before, sets) {
					break
				}
				if try == 100 {
					return at + ": the replicas never stood still"
				}
			}
			listed := map[storage.TileKey]storage.ManifestEntry{}
			for _, e := range entries {
				listed[storage.TileKey{Layer: layer, TX: e.TX, TY: e.TY}] = e
			}
			if len(listed) != len(entries) {
				return fmt.Sprintf("%s: a key is listed twice: %v", at, entries)
			}
			for i, key := range keys {
				set := sets[i]
				winner := fullBodyWinner(set)
				e, ok := listed[key]
				if live := winner.data != nil && !winner.tomb; live != ok {
					return fmt.Sprintf("%s: %v listed=%v, but the winner is live=%v%s", at, key, ok, live, describe(key))
				}
				if !ok {
					continue
				}
				tied := false
				for _, r := range set {
					tied = tied || (r.data != nil && !r.tomb && r.clock() == winner.clock() && !bytes.Equal(r.data, winner.data))
				}
				want := storage.ReplicaState{Found: true, Clock: winner.clock(), Sum: storage.Checksum(winner.data)}.String()
				switch {
				case tied && settled:
					return fmt.Sprintf("%s: %v is still tied after repair%s", at, key, describe(key))
				case tied && e.State != "":
					return fmt.Sprintf("%s: %v carries %q though only bytes order its replicas%s", at, key, e.State, describe(key))
				case !tied && e.State != want:
					return fmt.Sprintf("%s: %v carries %q, the winner is %q%s", at, key, e.State, want, describe(key))
				}
			}
			return ""
		}

		at := fmt.Sprintf("round %d, divergent", round)
		if msg := check(at, false); msg != "" {
			return msg
		}
		// The caching client pulls through the divergence: whatever quorum
		// answers it goes into the cache.
		if _, _, err := pull(cached); err != nil && !errors.Is(err, storage.ErrNoTile) {
			return fmt.Sprintf("%s: caching pull: %v", at, err)
		}
		// The plain pull reads every key some shard lists; wait for the
		// repairs those reads queue.
		if _, _, err := pull(plain); err != nil && !errors.Is(err, storage.ErrNoTile) {
			return fmt.Sprintf("%s: plain pull: %v", at, err)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			lagging := ""
			for _, key := range keys {
				set, names := reachable(key)
				winner, anyLive := fullBodyWinner(set), false
				for _, r := range set {
					anyLive = anyLive || (r.data != nil && !r.tomb)
				}
				for i, r := range set {
					if anyLive && (!bytes.Equal(r.data, winner.data) || r.tomb != winner.tomb) {
						lagging = fmt.Sprintf("%s of %v", names[i], key)
					}
				}
			}
			if lagging == "" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Sprintf("round %d: %s never converged; stats %+v", round, lagging, rt.Stats())
			}
		}

		at = fmt.Sprintf("round %d, converged", round)
		if msg := check(at, true); msg != "" {
			return msg
		}
		want, wh, werr := pull(plain)
		for again := 0; again < 2; again++ {
			got, gh, gerr := pull(cached)
			if werr != nil || gerr != nil {
				if !errors.Is(werr, storage.ErrNoTile) || !errors.Is(gerr, storage.ErrNoTile) {
					return fmt.Sprintf("%s: pulls failed: %v (caching), %v (plain)", at, gerr, werr)
				}
				continue
			}
			if !bytes.Equal(storage.EncodeBinary(got), storage.EncodeBinary(want)) {
				return fmt.Sprintf("%s: caching pull %d differs from the plain pull", at, again)
			}
			if gh.Requested != wh.Requested || gh.Degraded || wh.Degraded || wh.Revalidated != 0 ||
				(again == 1 && gh.Revalidated != gh.Requested) {
				return fmt.Sprintf("%s: caching pull %d health %+v, plain %+v", at, again, gh, wh)
			}
		}
		for _, n := range byName {
			n.down.Store(false)
			setAlive(rt, n.name, true)
		}
	}
	return ""
}

// TestMergeManifests pins the merge rule case by case.
func TestMergeManifests(t *testing.T) {
	e := func(tx int32, state string) storage.ManifestEntry {
		return storage.ManifestEntry{TX: tx, State: state}
	}
	for name, tc := range map[string]struct {
		lists [][]storage.ManifestEntry
		want  []storage.ManifestEntry
	}{
		"plain listings merge to their union, ordered": {
			lists: [][]storage.ManifestEntry{{e(2, ""), e(1, "")}, {e(1, ""), e(0, "")}},
			want:  []storage.ManifestEntry{e(0, ""), e(1, ""), e(2, "")},
		},
		"the freshest state wins, whichever shard lists it first": {
			lists: [][]storage.ManifestEntry{{e(0, "live:5:aa"), e(1, "live:7:cc")}, {e(0, "live:6:bb"), e(1, "live:6:bb")}, {e(0, "live:5:aa")}},
			want:  []storage.ManifestEntry{e(0, "live:6:bb"), e(1, "live:7:cc")},
		},
		"a marker that wins drops the key, one that loses does not": {
			lists: [][]storage.ManifestEntry{{e(0, "live:5:aa"), e(1, "tomb:4")}, {e(0, "tomb:5"), e(1, "live:5:aa")}, {e(2, "tomb:1")}},
			want:  []storage.ManifestEntry{e(1, "live:5:aa")},
		},
		"two markers of one clock are still a deleted key": {
			lists: [][]storage.ManifestEntry{{e(0, "tomb:5")}, {e(0, "tomb:5")}, {e(0, "live:4:aa")}},
			want:  []storage.ManifestEntry{},
		},
		"only bytes order the freshest pair: no state": {
			lists: [][]storage.ManifestEntry{{e(0, "live:5:aa")}, {e(0, "live:5:bb")}, {e(0, "live:4:cc")}},
			want:  []storage.ManifestEntry{e(0, "")},
		},
		"a tie below the winner does not matter": {
			lists: [][]storage.ManifestEntry{{e(0, "live:5:aa")}, {e(0, "live:5:bb")}, {e(0, "live:6:cc")}},
			want:  []storage.ManifestEntry{e(0, "live:6:cc")},
		},
		"a shard that gives no state may hold the freshest copy": {
			lists: [][]storage.ManifestEntry{{e(0, "live:5:aa"), e(1, "junk")}, {e(0, ""), e(1, "tomb:9")}, {e(0, "live:9:bb"), e(1, "live:9:bb")}},
			want:  []storage.ManifestEntry{e(0, ""), e(1, "")},
		},
	} {
		got := mergeManifests(tc.lists)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: %v, want %v", name, got, tc.want)
		}
	}
}

// TestRevalidatedPullBudget pins the pull whose tiles are all current,
// where tier-1 sees it: a 3x3 region costs exactly one request — the
// manifest — and a fixed number of allocations, the nine decodes
// included.
func TestRevalidatedPullBudget(t *testing.T) {
	rt, _ := newMemCluster(t, 5, Config{Replicas: 3, Tracer: obs.NewTracer(obs.TracerConfig{MaxSpans: 8})})
	rt.Start()
	for i := 0; i < 9; i++ {
		path := fmt.Sprintf("/v1/tiles/base/%d/%d", i%3, i/3)
		if w := serve(rt, http.MethodPut, path, cellTile(i, 4, i)); w.code != http.StatusNoContent {
			t.Fatalf("put %s: %d %s", path, w.code, w.body)
		}
	}
	c, front := routerClient(rt, storage.NewTileCache(16))
	requests := func() int64 { return front.bodies.Load() }
	pull := func() *storage.RegionHealth {
		m, h, err := c.FetchRegion(context.Background(), "base", 0, 0, 2, 2, "r")
		if err != nil || m.NumElements() != 9 || h.Degraded || h.Requested != 9 {
			t.Fatalf("pull: %v, health %+v", err, h)
		}
		return h
	}
	if h := pull(); h.Revalidated != 0 || requests() != 9 {
		t.Fatalf("the cold pull revalidated %d tiles and fetched %d", h.Revalidated, requests())
	}
	sent := front.egress.Load()
	if h := pull(); h.Revalidated != 9 || requests() != 9 {
		t.Fatalf("the warm pull revalidated %d tiles; %d tile requests in all, want 9", h.Revalidated, requests())
	}
	if got := front.egress.Load() - sent; got > 9*64 {
		t.Errorf("a revalidated pull moved %d bytes: more than a manifest", got)
	}
	routed := rt.Stats().Routed
	const pulls = 50
	allocs := testing.AllocsPerRun(pulls, func() { pull() })
	if got := rt.Stats().Routed - routed; got != pulls+1 { // AllocsPerRun warms up once
		t.Errorf("%d revalidated pulls cost the router %d requests", pulls+1, got)
	}
	t.Logf("a fully revalidated 3x3 pull allocates %.0f times", allocs)
	if limit := 542.0; allocs > limit && !raceEnabled { // 493 measured, plus a tenth
		t.Errorf("allocations over budget %.0f", limit)
	}
	// A tile that changes costs its own download, and no other's.
	if w := serve(rt, http.MethodPut, "/v1/tiles/base/1/1", cellTile(4, 5, 99)); w.code != http.StatusNoContent {
		t.Fatalf("put: %d", w.code)
	}
	if h := pull(); h.Revalidated != 8 || requests() != 10 {
		t.Fatalf("after one upload the pull revalidated %d tiles; %d tile requests in all, want 10", h.Revalidated, requests())
	}
}
