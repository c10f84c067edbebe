package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/obs"
)

// handlerTransport serves a client's requests by calling h on the
// caller's goroutine: no socket, so a thousand schedules take seconds
// and every request is counted.
type handlerTransport struct {
	h        http.Handler
	requests int
	// rewrite, when set, may replace a 200 listing body before the client
	// sees it.
	rewrite func(r *http.Request, body []byte) []byte
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests++
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	if t.rewrite != nil && rec.Code == http.StatusOK && strings.Count(req.URL.Path, "/") == 3 {
		body := t.rewrite(req, rec.Body.Bytes())
		resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		resp.Header.Set(ChecksumHeader, Checksum(body))
	}
	return resp, nil
}

func (t *handlerTransport) client(cache *TileCache) *Client {
	return &Client{Base: "http://tiles", HTTP: &http.Client{Transport: t}, Cache: cache,
		Retry: RetryPolicy{MaxAttempts: 1}, Metrics: obs.NewRegistry()}
}

// do issues one raw request and returns the status and body.
func (t *handlerTransport) do(method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://tiles"+path, rd)
	if err != nil {
		panic(err)
	}
	resp, _ := t.RoundTrip(req)
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// versionTile is the tile of grid cell i in version v: one point whose ID
// is the cell's (IDs are unique across a region's tiles) and whose
// position and clock say the version.
func versionTile(i int, clock uint64, v int) []byte {
	m := core.NewMap("cell")
	if err := m.RestorePoint(core.PointElement{ID: core.ID(i + 1), Class: core.ClassSign, Pos: geo.V3(float64(v), 0, 0)}); err != nil {
		panic(err)
	}
	m.SetClock(clock)
	return EncodeBinary(m)
}

func manifestOf(t *testing.T, tr *handlerTransport, query string) []ManifestEntry {
	t.Helper()
	code, body := tr.do(http.MethodGet, "/v1/tiles/base"+query, nil)
	if code != http.StatusOK {
		t.Fatalf("list %q: %d %s", query, code, body)
	}
	var out []ManifestEntry
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerManifest: with state=1 every entry of a listing carries what
// a HEAD probe of the key reports — for a tile the server wrote, for one
// loaded behind its back, and for a deleted key of the window, listed as
// tomb:<clock> — and without it the listing is the plain one, to the
// byte.
func TestServerManifest(t *testing.T) {
	store := NewMemStore()
	tr := &handlerTransport{h: NewTileServer(store)}
	written, loaded := versionTile(0, 5, 1), versionTile(1, 9, 1)
	if code, _ := tr.do(http.MethodPut, "/v1/tiles/base/0/0", written); code != http.StatusNoContent {
		t.Fatalf("put: %d", code)
	}
	if err := store.Put(TileKey{"base", 1, 0}, loaded); err != nil { // out of band
		t.Fatal(err)
	}
	marker := EncodeTombstone(Tombstone{Layer: "base", TX: 0, TY: 1, Clock: 7, Created: 1, TTLSeconds: 60})
	if code, body := tr.do(http.MethodPut, "/v1/tiles/base/0/1", marker); code != http.StatusNoContent {
		t.Fatalf("put marker: %d %s", code, body)
	}
	if code, _ := tr.do(http.MethodPut, "/v1/tiles/base/5/5", versionTile(2, 1, 1)); code != http.StatusNoContent {
		t.Fatalf("put outside the window: %d", code)
	}

	want := []ManifestEntry{ // Morton order: (0,0) (1,0) (0,1)
		{TX: 0, TY: 0, State: ReplicaState{Found: true, Clock: 5, Sum: Checksum(written)}.String()},
		{TX: 1, TY: 0, State: ReplicaState{Found: true, Clock: 9, Sum: Checksum(loaded)}.String()},
		{TX: 0, TY: 1, State: "tomb:7"},
	}
	got := manifestOf(t, tr, "?bbox=0,0,2,2&state=1")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("manifest %v, want %v", got, want)
	}
	for _, e := range got {
		req, _ := http.NewRequest(http.MethodHead, fmt.Sprintf("http://tiles/v1/tiles/base/%d/%d", e.TX, e.TY), nil)
		resp, _ := tr.RoundTrip(req)
		if probed := resp.Header.Get(StateHeader); probed != e.State {
			t.Errorf("%d/%d: manifest says %q, HEAD says %q", e.TX, e.TY, e.State, probed)
		}
	}
	if whole := manifestOf(t, tr, "?state=1"); len(whole) != 4 {
		t.Errorf("a manifest of the layer lists %v", whole)
	}
	for query, want := range map[string]string{
		"?bbox=0,0,2,2":         `[{"tx":0,"ty":0},{"tx":1,"ty":0}]` + "\n",
		"?bbox=0,0,2,2&state=0": `[{"tx":0,"ty":0},{"tx":1,"ty":0}]` + "\n",
		"":                      `[{"tx":0,"ty":0},{"tx":1,"ty":0},{"tx":5,"ty":5}]` + "\n",
		"?bbox=7,7,9,9&state=1": "[]\n",
	} {
		if _, body := tr.do(http.MethodGet, "/v1/tiles/base"+query, nil); string(body) != want {
			t.Errorf("listing %q = %q, want %q", query, body, want)
		}
	}
}

// TestManifestEntryState: a state a listing may be believed on names a
// live tile or a marker; anything else is an entry without one.
func TestManifestEntryState(t *testing.T) {
	for state, want := range map[string]ReplicaState{
		"live:5:0a0b0c0d": {Found: true, Clock: 5, Sum: "0a0b0c0d"},
		"tomb:7":          {Tomb: true, Clock: 7},
		"":                {},
		"absent":          {},
		"live:5":          {},
		"live:x:00":       {},
		"tomb:-1":         {},
		"fresh":           {},
		"live:5:" + strings.Repeat("a", maxStateLen): {},
	} {
		got, ok := ManifestEntry{State: state}.ReplicaState()
		if got != want || ok != want.Present() {
			t.Errorf("state %q reads %+v, %v; want %+v", state, got, ok, want)
		}
	}
}

// pullSchedule runs one seeded interleaving of uploads (clock-advanced
// variants, re-uploads of the same bytes, same-clock different bytes),
// deletes, tombstones and region pulls against the server behind tr,
// under its own layer. At every step that pulls, a client with cache
// (which must hold more than the 12-tile grid, so that nothing is
// evicted) behind cachedTr and one without a cache behind tr
// pull the same window: they must return maps that encode the same and
// the same Requested — so a write or a delete between two pulls is seen
// by the next — the map must hold exactly the versions last written, and
// the caching client must have revalidated exactly the tiles whose state
// is the one it last fetched them in: none that changed. "" means the
// schedule held.
func pullSchedule(store TileStore, tr, cachedTr *handlerTransport, cache *TileCache, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	layer := "s" + strconv.FormatInt(seed, 10)
	cached, plain := cachedTr.client(cache), tr.client(nil)
	ctx := context.Background()

	const cols, rows = 4, 3 // the pulled windows lie in [0,2]x[0,2]; column 3 is never wanted
	type version struct {
		clock uint64
		v     int
	}
	live := map[int]version{} // cell -> what the server holds
	held := map[int]version{} // cell -> what the caching client last fetched
	keyOf := func(i int) TileKey { return TileKey{Layer: layer, TX: int32(i % cols), TY: int32(i / cols)} }
	path := func(i int) string { k := keyOf(i); return fmt.Sprintf("/v1/tiles/%s/%d/%d", layer, k.TX, k.TY) }
	clock := uint64(1)

	// Some tiles are there before the server first hears of them.
	for i := 0; i < cols*rows; i++ {
		if rng.Intn(3) == 0 {
			if err := store.Put(keyOf(i), versionTile(i, clock, 0)); err != nil {
				return err.Error()
			}
			live[i] = version{clock, 0}
		}
	}
	for step := 0; step < 20; step++ {
		i := rng.Intn(cols * rows)
		switch op := rng.Intn(10); {
		case op < 4: // upload
			cur, ok := live[i]
			next := version{clock + 1, cur.v + 1}
			switch how := rng.Intn(5); {
			case ok && how == 0:
				next = cur // the same bytes again: the state does not move
			case ok && how == 1:
				next.clock = cur.clock // same clock, other bytes: only the checksum moves
			}
			clock = max(clock, next.clock)
			if err := plain.PutTile(ctx, keyOf(i), versionTile(i, next.clock, next.v)); err != nil {
				return fmt.Sprintf("step %d: put cell %d: %v", step, i, err)
			}
			live[i] = next
		case op < 5: // delete, plainly or with a marker
			if rng.Intn(2) == 0 {
				if code, body := tr.do(http.MethodDelete, path(i), nil); code != http.StatusNoContent {
					return fmt.Sprintf("step %d: delete cell %d: %d %s", step, i, code, body)
				}
			} else {
				clock++
				k := keyOf(i)
				marker := EncodeTombstone(Tombstone{Layer: layer, TX: k.TX, TY: k.TY, Clock: clock, Created: 1, TTLSeconds: 60})
				if code, body := tr.do(http.MethodPut, path(i), marker); code != http.StatusNoContent {
					return fmt.Sprintf("step %d: tombstone cell %d: %d %s", step, i, code, body)
				}
			}
			delete(live, i)
		default: // pull
			tx0, ty0 := int32(rng.Intn(2)), int32(rng.Intn(2))
			win := TileWindow{TX0: tx0, TY0: ty0, TX1: tx0 + int32(rng.Intn(2)) + 1, TY1: ty0 + int32(rng.Intn(2)) + 1}
			win.TX1, win.TY1 = min(win.TX1, 2), min(win.TY1, 2)
			wantTiles, wantRevalidated := 0, 0
			for c, ver := range live {
				if k := keyOf(c); win.Contains(k.TX, k.TY) {
					wantTiles++
					if held[c] == ver {
						wantRevalidated++
					}
				}
			}
			before := cachedTr.requests
			got, gh, gerr := cached.FetchRegion(ctx, layer, win.TX0, win.TY0, win.TX1, win.TY1, "r")
			asked := cachedTr.requests - before
			ref, rh, rerr := plain.FetchRegion(ctx, layer, win.TX0, win.TY0, win.TX1, win.TY1, "r")
			at := fmt.Sprintf("step %d: pull %s", step, win)
			if wantTiles == 0 {
				if !errors.Is(gerr, ErrNoTile) || !errors.Is(rerr, ErrNoTile) {
					return fmt.Sprintf("%s of an empty window: %v (cached), %v (plain)", at, gerr, rerr)
				}
				continue
			}
			if gerr != nil || rerr != nil {
				return fmt.Sprintf("%s: %v (cached), %v (plain)", at, gerr, rerr)
			}
			if !bytes.Equal(EncodeBinary(got), EncodeBinary(ref)) {
				return fmt.Sprintf("%s: the caching client's region differs from the plain one's", at)
			}
			if gh.Requested != rh.Requested || gh.Requested != wantTiles || gh.Degraded || rh.Degraded ||
				gh.Fresh != wantTiles || rh.Revalidated != 0 {
				return fmt.Sprintf("%s: health %+v (cached) vs %+v (plain), %d tiles live", at, gh, rh, wantTiles)
			}
			if gh.Revalidated != wantRevalidated || asked != 1+wantTiles-wantRevalidated {
				return fmt.Sprintf("%s: revalidated %d tiles in %d requests, want %d of %d", at, gh.Revalidated, asked, wantRevalidated, wantTiles)
			}
			for c, ver := range live {
				k := keyOf(c)
				if !win.Contains(k.TX, k.TY) {
					continue
				}
				p, err := got.Point(core.ID(c + 1))
				if err != nil || p.Pos.X != float64(ver.v) {
					return fmt.Sprintf("%s: cell %d is not at version %d: %+v, %v", at, c, ver.v, p, err)
				}
				held[c] = ver
			}
			if got.Clock != ref.Clock {
				return fmt.Sprintf("%s: clock %d vs %d", at, got.Clock, ref.Clock)
			}
		}
	}
	return ""
}

// TestRevalidatedPullOracle: over 1 000 seeded interleavings on a
// MemStore and 300 more on a DirStore (its schedules cost file writes), a
// pull that trusts the manifest equals the pull that downloads every
// tile (pullSchedule). A failure prints its seed; PULL_SEED replays one.
func TestRevalidatedPullOracle(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store TileStore
		seeds int64
	}{{"mem", NewMemStore(), 1000}, {"dir", dir, 300}} {
		t.Run(tc.name, func(t *testing.T) {
			first, n := int64(1), tc.seeds
			if v := os.Getenv("PULL_SEED"); v != "" {
				seed, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("bad PULL_SEED %q", v)
				}
				first, n = seed, 1
			}
			tr := &handlerTransport{h: NewTileServer(tc.store)}
			for seed := first; seed < first+n; seed++ {
				if msg := pullSchedule(tc.store, tr, tr, NewTileCache(64), seed); msg != "" {
					t.Fatalf("seed %d (replay with PULL_SEED=%d): %s", seed, seed, msg)
				}
			}
		})
	}
}

// TestRevalidatedPullOracleCatchesSkippedComparison is the oracle's
// mutation check. A client that skipped the state comparison would take
// every cached tile for current; the same behaviour is produced here
// without touching the client, by rewriting each manifest the caching
// client receives so that it lists every tile in the state that client
// cached it in. The oracle must then fail on the first schedule in which
// a tile changes between two pulls of it — nearly all of them.
func TestRevalidatedPullOracleCatchesSkippedComparison(t *testing.T) {
	store := NewMemStore()
	srv := NewTileServer(store)
	caught := 0
	const seeds = 50
	for seed := int64(1); seed <= seeds; seed++ {
		cache := NewTileCache(64)
		lying := &handlerTransport{h: srv, rewrite: func(r *http.Request, body []byte) []byte {
			var entries []ManifestEntry
			if r.URL.Query().Get("state") != "1" || json.Unmarshal(body, &entries) != nil {
				return body
			}
			layer := strings.TrimPrefix(r.URL.Path, "/v1/tiles/")
			for i, e := range entries {
				if c := cache.get(TileKey{Layer: layer, TX: e.TX, TY: e.TY}); c != nil && c.state.Found {
					entries[i].State = c.state.String()
				}
			}
			out, _ := json.Marshal(entries)
			return out
		}}
		// Only a region that differs counts: the mutant may not be caught
		// by tripping over something else.
		if msg := pullSchedule(store, &handlerTransport{h: srv}, lying, cache, seed); strings.Contains(msg, "region differs") {
			caught++
		}
	}
	t.Logf("caught in %d of %d schedules", caught, seeds)
	if caught < seeds/2 {
		t.Fatalf("the oracle caught a client that trusts any cached tile in only %d of %d schedules", caught, seeds)
	}
}

// FuzzParseReplicaState: the parser of X-Tile-State, X-Tile-Expect and
// manifest states never panics, and a state it accepts is one String()
// writes: it reads back as itself.
func FuzzParseReplicaState(f *testing.F) {
	for _, s := range []string{"absent", "tomb:7", "live:5:0a0b0c0d", "live:5", "live::", "tomb:", "live:18446744073709551616:00",
		"live:05:aa:bb", "tomb:+1", "", "LIVE:1:2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		st, err := ParseReplicaState(v)
		if err != nil {
			if st != (ReplicaState{}) {
				t.Fatalf("%q: refused, yet read as %+v", v, st)
			}
			return
		}
		if st.Found && st.Tomb {
			t.Fatalf("%q reads as both live and deleted", v)
		}
		again, err := ParseReplicaState(st.String())
		if err != nil || again != st {
			t.Fatalf("%q reads as %+v, whose form %q reads as %+v, %v", v, st, st.String(), again, err)
		}
	})
}

// FuzzParseTileWindow: a bbox value parses to the window its String()
// names, or is refused; a window holds its corner unless it is inverted.
func FuzzParseTileWindow(f *testing.F) {
	for _, s := range []string{"0,0,2,2", "-2147483648,-2147483648,2147483647,2147483647", "3,3,1,1", "1,2,3", "1,2,3,4,5",
		"a,0,1,1", "0,0,,1", "0,0,1,99999999999", " 1,1,1,1", "+1,1,1,1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		win, err := ParseTileWindow(v)
		if err != nil {
			return
		}
		again, err := ParseTileWindow(win.String())
		if err != nil || again != win {
			t.Fatalf("%q reads as %+v, whose form %q reads as %+v, %v", v, win, win.String(), again, err)
		}
		if inverted := win.TX0 > win.TX1 || win.TY0 > win.TY1; win.Contains(win.TX0, win.TY0) == inverted {
			t.Fatalf("%+v: inverted=%v, yet Contains says otherwise of its own corner", win, inverted)
		}
	})
}

// FuzzManifestEntryState: whatever a listing puts in "state" — nothing a
// store could have written, a forged match, megabytes — the pull either
// takes the entry's word (a state it holds the tile under: no download; a
// marker: not a tile) or downloads the tile. It never fails for it, and
// what it returns is what the server holds.
func FuzzManifestEntryState(f *testing.F) {
	srv := NewTileServer(NewMemStore())
	plainTr := &handlerTransport{h: srv}
	plain := plainTr.client(nil)
	ctx := context.Background()
	var held string // the state the caching client will hold cell 0 under
	for i := 0; i < 4; i++ {
		tile := versionTile(i, 3, 1)
		if err := plain.PutTile(ctx, TileKey{Layer: "base", TX: int32(i % 2), TY: int32(i / 2)}, tile); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			held = ReplicaState{Found: true, Clock: 3, Sum: Checksum(tile)}.String()
		}
	}
	want, _, err := plain.FetchRegion(ctx, "base", 0, 0, 1, 1, "r")
	if err != nil {
		f.Fatal(err)
	}
	wantBytes := EncodeBinary(want)
	for _, s := range []string{held, "", "absent", "tomb:9", "live:3:00000000", "live:4:" + held[len("live:3:"):],
		strings.Repeat("live:", 1<<12), "live:3:\x00", `"`, "tomb:99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, state string) {
		forged := &handlerTransport{h: srv, rewrite: func(r *http.Request, body []byte) []byte {
			var entries []ManifestEntry
			if err := json.Unmarshal(body, &entries); err != nil {
				t.Fatal(err)
			}
			for i := range entries {
				entries[i].State = state
			}
			out, err := json.Marshal(entries)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}}
		cache := NewTileCache(8)
		c := forged.client(cache)
		if _, err := c.GetTile(ctx, TileKey{Layer: "base"}); err != nil { // cell 0 is cached, under held
			t.Fatal(err)
		}
		got, h, err := c.FetchRegion(ctx, "base", 0, 0, 1, 1, "r")
		// json.Marshal replaces invalid UTF-8: judge by what arrived.
		wire, _ := json.Marshal(state)
		var arrived ManifestEntry
		_ = json.Unmarshal(wire, &arrived.State)
		st, _ := arrived.ReplicaState()
		if st.Tomb {
			if !errors.Is(err, ErrNoTile) {
				t.Fatalf("every entry a marker: %v", err)
			}
			return
		}
		if err != nil || h.Degraded || h.Requested != 4 || !bytes.Equal(EncodeBinary(got), wantBytes) {
			t.Fatalf("state %q: %v, health %+v", state, err, h)
		}
		if want := map[bool]int{true: 1, false: 0}[st.String() == held]; h.Revalidated != want {
			t.Fatalf("state %q: revalidated %d tiles, want %d", state, h.Revalidated, want)
		}
	})
}

// TestRevalidationIsReported: what a pull did not download shows where
// an operator looks — RegionHealth, the storage.client.revalidated
// counter and the fetch_region span.
func TestRevalidationIsReported(t *testing.T) {
	tr := &handlerTransport{h: NewTileServer(NewMemStore())}
	c := tr.client(NewTileCache(8))
	c.Tracer = obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond}) // keeps every trace
	for i := 0; i < 4; i++ {
		if err := c.PutTile(context.Background(), TileKey{Layer: "base", TX: int32(i % 2), TY: int32(i / 2)}, versionTile(i, 2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for pull, want := range []int{0, 4} {
		ctx, trace := obs.EnsureTraceID(context.Background())
		_, h, err := c.FetchRegion(ctx, "base", 0, 0, 1, 1, "r")
		if err != nil || h.Fresh != 4 || h.Revalidated != want {
			t.Fatalf("pull %d: %v, health %+v, want %d revalidated", pull, err, h, want)
		}
		if got := c.Metrics.Counter("storage.client.revalidated").Value(); got != uint64(want) {
			t.Errorf("pull %d: counter reads %d, want %d", pull, got, want)
		}
		legs := c.Tracer.TraceByID(trace)
		if len(legs) != 1 {
			t.Fatalf("pull %d: %d trace legs", pull, len(legs))
		}
		for _, s := range legs[0].Spans {
			if s.SpanID == legs[0].RootSpanID && (s.Name != "client.fetch_region" || s.Attrs["revalidated"] != strconv.Itoa(want)) {
				t.Errorf("pull %d: root span %s carries revalidated=%q, want %d", pull, s.Name, s.Attrs["revalidated"], want)
			}
		}
	}
}
