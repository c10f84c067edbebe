package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// memNode is one shard reached without a socket: a TileServer over a
// MemStore that memTransport calls on the caller's goroutine, so a
// thousand read schedules take seconds and every request is counted
// where it lands.
type memNode struct {
	name   string
	store  *storage.MemStore
	h      http.Handler
	down   atomic.Bool  // the transport refuses the node
	bodies atomic.Int64 // tile GETs served
	probes atomic.Int64 // tile HEADs served
	egress atomic.Int64 // response body bytes sent
}

// memResponse keeps what a handler writes without copying it: the tile
// server hands over slices it never writes again.
type memResponse struct {
	header http.Header
	code   int
	body   []byte
}

func (r *memResponse) Header() http.Header { return r.header }
func (r *memResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *memResponse) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.body == nil {
		r.body = p
	} else {
		r.body = append(r.body[:len(r.body):len(r.body)], p...)
	}
	return len(p), nil
}

// serve runs one request against h and returns what it answered.
func serve(h http.Handler, method, path string, body []byte) *memResponse {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, path, rd) // httptest.NewRequest costs a 4 KB bufio.Reader
	if err != nil {
		panic(err)
	}
	w := &memResponse{header: make(http.Header)}
	h.ServeHTTP(w, req)
	w.WriteHeader(http.StatusOK)
	return w
}

// memTransport routes a request to the memNode named by its URL host.
type memTransport map[string]*memNode

func (t memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t[req.URL.Host]
	if n == nil || n.down.Load() {
		return nil, errors.New("connection refused")
	}
	sreq := req.WithContext(req.Context()) // a RoundTripper must not modify req
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	w := &memResponse{header: make(http.Header)}
	n.h.ServeHTTP(w, sreq)
	w.WriteHeader(http.StatusOK)
	if strings.Count(req.URL.Path, "/") == 5 { // /v1/tiles/{layer}/{tx}/{ty}
		switch req.Method {
		case http.MethodGet:
			n.bodies.Add(1)
		case http.MethodHead:
			n.probes.Add(1)
		}
	}
	n.egress.Add(int64(len(w.body)))
	return &http.Response{
		Status: strconv.Itoa(w.code) + " " + http.StatusText(w.code), StatusCode: w.code,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: w.header, Body: io.NopCloser(bytes.NewReader(w.body)),
		ContentLength: int64(len(w.body)), Request: req,
	}, nil
}

// newMemCluster builds n memNodes and a stopped router over them whose
// clocks never fire: no probe, sweep or observability tick, and a strike
// threshold no test reaches, so membership is what the test sets.
func newMemCluster(t *testing.T, n int, cfg Config) (*Router, []*memNode) {
	t.Helper()
	nodes := make([]*memNode, n)
	tr := memTransport{}
	cfg.Nodes = make([]Node, n)
	for i := range nodes {
		store := storage.NewMemStore()
		nodes[i] = &memNode{name: fmt.Sprintf("node%d", i), store: store, h: storage.NewTileServer(store)}
		tr[nodes[i].name] = nodes[i]
		cfg.Nodes[i] = Node{Name: nodes[i].name, Base: "http://" + nodes[i].name}
	}
	cfg.Transport = tr
	cfg.ProbeInterval, cfg.SweepInterval, cfg.SampleInterval = time.Hour, -1, -1
	cfg.FailAfter = 1 << 30
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, nodes
}

// setAlive sets the failure detector's view of a node directly.
func setAlive(rt *Router, name string, alive bool) {
	m := rt.members[name]
	m.mu.Lock()
	m.alive, m.strikes = alive, 0
	m.mu.Unlock()
}

// directPutMem writes a payload into one shard behind the router's back,
// through the shard's own HTTP surface so its write-time state is honest.
func directPutMem(t *testing.T, n *memNode, key storage.TileKey, data []byte) {
	t.Helper()
	path := fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY)
	if w := serve(n.h, http.MethodPut, path, data); w.code != http.StatusNoContent {
		t.Fatalf("direct put to %s: %d %s", n.name, w.code, w.body)
	}
}

// held reads what a shard holds for key: its bytes (tile or marker) and
// whether that is a marker; nil when absent.
func held(n *memNode, key storage.TileKey) (data []byte, tomb bool) {
	w := serve(n.h, http.MethodGet, fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY), nil)
	switch {
	case w.code == http.StatusOK:
		return w.body, false
	case w.header.Get(storage.TombstoneHeader) != "":
		return w.body, true
	}
	return nil, false
}

// tileAt encodes a tiny valid tile whose clock is exactly clock
// (tileBytes adds its point after setting the clock, which ticks it).
func tileAt(clock uint64, salt int) []byte {
	m := core.NewMap(fmt.Sprintf("t%d", salt))
	m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(float64(salt), 1, 0)})
	m.Clock = clock
	return storage.EncodeBinary(m)
}

func markerBytes(key storage.TileKey, clock, created uint64) []byte {
	return storage.EncodeTombstone(storage.Tombstone{
		Layer: key.Layer, TX: key.TX, TY: key.TY, Clock: clock, Created: created, TTLSeconds: 3600})
}

// replica is what one owner holds in a schedule, as full bytes — the
// oracle orders these with storage.FresherState and nothing else.
type replica struct {
	data []byte // nil = absent
	tomb bool
}

func (r replica) clock() uint64 {
	if r.tomb {
		ts, _ := storage.DecodeTombstone(r.data)
		return ts.Clock
	}
	c, _ := storage.PeekClock(r.data)
	return c
}

// fullBodyWinner is the reference a state-only read must agree with:
// compare every answering replica's whole payload.
func fullBodyWinner(rs []replica) (win replica) {
	for _, r := range rs {
		if r.data != nil && (win.data == nil ||
			storage.FresherState(r.tomb, r.clock(), r.data, win.tomb, win.clock(), win.data)) {
			win = r
		}
	}
	return win
}

// TestReadProtocolProperty drives the quorum read over seeded schedules
// on a 5-node, R=3 cluster. Each schedule writes the key's three owners
// directly into divergent states (absent, older/newer clock, same clock
// with different bytes, tombstone against live at an equal clock, two
// same-clock markers) and may take owners down, with or without the
// failure detector knowing — the body owner included. The routed GET
// must answer what comparing full bodies selects among a quorum of the
// owners that could answer, and once the repair queue drains every
// reachable owner must hold the winner among all of them, byte for
// byte. SOAK_READ_SEEDS sets the schedule count; a failure prints its
// seed, and READ_SEED replays one.
func TestReadProtocolProperty(t *testing.T) {
	seeds := 1000
	if v := os.Getenv("SOAK_READ_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad SOAK_READ_SEEDS %q", v)
		}
		seeds = n
	}
	first := int64(1)
	if v := os.Getenv("READ_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad READ_SEED %q", v)
		}
		first, seeds = n, 1
	}
	rt, nodes := newMemCluster(t, 5, Config{Replicas: 3})
	rt.Start()
	byName := map[string]*memNode{}
	for _, n := range nodes {
		byName[n.name] = n
	}
	for seed := first; seed < first+int64(seeds); seed++ {
		if msg := readSchedule(t, rt, byName, seed); msg != "" {
			t.Fatalf("seed %d (replay with READ_SEED=%d): %s", seed, seed, msg)
		}
		for _, n := range nodes {
			n.down.Store(false)
			setAlive(rt, n.name, true)
		}
	}
	s := rt.Stats()
	if s.Routed != s.Served+s.Shed+s.Errored {
		t.Errorf("accounting: routed %d != served %d + shed %d + errored %d", s.Routed, s.Served, s.Shed, s.Errored)
	}
	t.Logf("%d schedules: %d served, %d shed, %d stale replicas, %d repairs done, %d integrity failures",
		seeds, s.Served, s.Shed, s.StaleReplicas, s.RepairsDone, s.IntegrityFailures)
}

// readSchedule runs one seeded schedule; "" means it held.
func readSchedule(t *testing.T, rt *Router, byName map[string]*memNode, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	key := storage.TileKey{Layer: "base", TX: int32(seed % (1 << 30)), TY: int32(seed >> 30)}
	owners := rt.ownersFor(key)
	const c = 10
	menu := []replica{
		{},                     // absent
		{data: tileAt(c, 1)},   // live
		{data: tileAt(c, 2)},   // same clock, different bytes
		{data: tileAt(c+1, 3)}, // newer
		{data: tileAt(c-1, 4)}, // older
		{data: markerBytes(key, c, 1), tomb: true},   // tombstone at the live clock
		{data: markerBytes(key, c, 2), tomb: true},   // a second marker at the same clock
		{data: markerBytes(key, c+1, 1), tomb: true}, // newer tombstone
	}
	holds := make([]replica, len(owners))
	for i, m := range owners {
		holds[i] = menu[rng.Intn(len(menu))]
		if holds[i].data != nil {
			directPutMem(t, byName[m.node.Name], key, holds[i].data)
		}
	}

	// Faults: an owner the failure detector knows is down, then the body
	// owner — or any owner — dying unnoticed.
	fault := rng.Intn(10)
	if fault == 0 || fault == 1 {
		m := owners[rng.Intn(len(owners))]
		byName[m.node.Name].down.Store(true)
		setAlive(rt, m.node.Name, false)
	}
	turn := int((rt.bodyTurn.Load() + 1) % uint64(len(owners)))
	var bodyOwner *member
	for i := range owners {
		if m := owners[(turn+i)%len(owners)]; m.Alive() {
			bodyOwner = m
			break
		}
	}
	switch {
	case fault == 1 || fault == 2 || fault == 3:
		byName[bodyOwner.node.Name].down.Store(true)
	case fault == 4:
		byName[owners[rng.Intn(len(owners))].node.Name].down.Store(true)
	}
	var reachable []int
	bodyAt := -1
	for i, m := range owners {
		if !byName[m.node.Name].down.Load() {
			reachable = append(reachable, i)
			if m == bodyOwner {
				bodyAt = len(reachable) - 1
			}
		}
	}
	describe := func() string {
		var b strings.Builder
		for i, m := range owners {
			fmt.Fprintf(&b, "\n  %s: tomb=%v clock=%d crc=%s down=%v known=%v body=%v", m.node.Name, holds[i].tomb,
				holds[i].clock(), storage.Checksum(holds[i].data), byName[m.node.Name].down.Load(), !m.Alive(), m == bodyOwner)
		}
		return b.String()
	}

	w := serve(rt, http.MethodGet, fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY), nil)
	need := rt.readQuorum()
	if len(reachable) < need {
		if w.code != http.StatusServiceUnavailable {
			return fmt.Sprintf("%d owners reachable, need %d: got %d, want 503%s", len(reachable), need, w.code, describe())
		}
		return ""
	}
	// The router answers once a quorum and the body leg have reported, so
	// any quorum-sized set of reachable owners holding the body owner may
	// be "the owners that answered".
	valid := false
	for mask := 1; mask < 1<<len(reachable); mask++ {
		var set []replica
		for j, i := range reachable {
			if mask&(1<<j) != 0 {
				set = append(set, holds[i])
			}
		}
		if len(set) < need || (bodyAt >= 0 && mask&(1<<bodyAt) == 0) {
			continue
		}
		win := fullBodyWinner(set)
		if win.data != nil && !win.tomb {
			valid = valid || (w.code == http.StatusOK && bytes.Equal(w.body, win.data) &&
				w.header.Get(storage.ChecksumHeader) == storage.Checksum(win.data))
		} else {
			valid = valid || w.code == http.StatusNotFound
		}
	}
	if !valid {
		return fmt.Sprintf("answer %d (%d bytes, crc %s) is no quorum's full-body winner%s",
			w.code, len(w.body), storage.Checksum(w.body), describe())
	}

	// Read-repair: every reachable owner converges on the winner among
	// all of them.
	var set []replica
	for _, i := range reachable {
		set = append(set, holds[i])
	}
	win := fullBodyWinner(set)
	deadline := time.Now().Add(5 * time.Second)
	for {
		lagging := ""
		for _, i := range reachable {
			n := byName[owners[i].node.Name]
			if data, tomb := held(n, key); !bytes.Equal(data, win.data) || tomb != win.tomb {
				lagging = n.name
			}
		}
		if lagging == "" {
			return ""
		}
		if time.Now().After(deadline) {
			return fmt.Sprintf("%s never converged on the winner (tomb=%v clock=%d crc=%s); stats %+v%s",
				lagging, win.tomb, win.clock(), storage.Checksum(win.data), rt.Stats(), describe())
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestReadBodyCount pins what a read moves: a clean read costs exactly
// one body and R−1 probes; a probe that beats the body, or ties it on
// everything but the bytes, costs exactly one more; a state that settles
// the answer (a tombstone, a staler probe) costs none.
func TestReadBodyCount(t *testing.T) {
	key := storage.TileKey{Layer: "base", TX: 3, TY: 4}
	const c = 10
	a, b := tileAt(c, 1), tileAt(c, 2)
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	m1, m2 := markerBytes(key, c, 1), markerBytes(key, c, 2)
	if bytes.Compare(m1, m2) > 0 {
		m1, m2 = m2, m1
	}
	for _, tc := range []struct {
		name   string
		holds  [3][]byte // owners[0] supplies the body
		rot    bool      // owners[0]'s bytes are damaged at rest
		bodies int64
		code   int
		want   []byte
	}{
		{name: "clean", holds: [3][]byte{a, a, a}, bodies: 1, code: 200, want: a},
		{name: "body owner ahead", holds: [3][]byte{tileAt(c+1, 5), a, a}, bodies: 1, code: 200, want: tileAt(c+1, 5)},
		{name: "probe beats body", holds: [3][]byte{a, tileAt(c+1, 5), tileAt(c+1, 5)}, bodies: 2, code: 200, want: tileAt(c+1, 5)},
		{name: "same clock, probes hold the greater bytes", holds: [3][]byte{a, b, b}, bodies: 2, code: 200, want: b},
		{name: "same clock, body holds the greater bytes", holds: [3][]byte{b, a, a}, bodies: 2, code: 200, want: b},
		// Whichever quorum answers first, b's owner is eventually read.
		{name: "same clock, three ways", holds: [3][]byte{a, b, a}, bodies: 2, code: 200},
		{name: "tombstone beats live at an equal clock", holds: [3][]byte{a, m1, m1}, bodies: 1, code: 404},
		{name: "two same-clock markers", holds: [3][]byte{m1, m2, m2}, bodies: 2, code: 404},
		{name: "absent body owner", holds: [3][]byte{nil, a, a}, bodies: 2, code: 200, want: a},
		{name: "damaged body owner", holds: [3][]byte{a, a, a}, rot: true, bodies: 2, code: 200, want: a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Not started: repairs queue but do not run, so every request
			// counted belongs to the read itself.
			rt, nodes := newMemCluster(t, 3, Config{Replicas: 3})
			byName := map[string]*memNode{}
			for _, n := range nodes {
				byName[n.name] = n
			}
			owners := rt.ownersFor(key)
			for i, m := range owners {
				if tc.holds[i] != nil {
					directPutMem(t, byName[m.node.Name], key, tc.holds[i])
				}
			}
			if tc.rot {
				if err := byName[owners[0].node.Name].store.Put(key, tileAt(c, 99)); err != nil {
					t.Fatal(err)
				}
			}
			rt.bodyTurn.Store(^uint64(0)) // the next turn is owners[0]'s
			w := serve(rt, http.MethodGet, "/v1/tiles/base/3/4", nil)
			if w.code != tc.code || (tc.want != nil && !bytes.Equal(w.body, tc.want)) {
				t.Fatalf("answer %d, %d bytes; want %d, %d bytes", w.code, len(w.body), tc.code, len(tc.want))
			}
			// Legs still in flight at answer time land on the finisher; wait
			// for all R of them before counting.
			var bodies, probes int64
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
				bodies, probes = 0, 0
				for _, n := range nodes {
					bodies += n.bodies.Load()
					probes += n.probes.Load()
				}
				if bodies+probes >= 2+tc.bodies || time.Now().After(deadline) {
					break
				}
			}
			if bodies != tc.bodies || probes != 2 {
				t.Fatalf("read moved %d bodies and %d probes, want %d and 2", bodies, probes, tc.bodies)
			}
			if got := rt.Stats().IntegrityFailures; (got == 1) != tc.rot {
				t.Errorf("integrity failures %d, damaged=%v", got, tc.rot)
			}
		})
	}
}

// TestReadBodyRotates: the body leg moves to the next live owner on
// every read of the same key, so each replica's bytes at rest are
// checksum-verified by a third of the reads — and by half once an owner
// is known dead.
func TestReadBodyRotates(t *testing.T) {
	rt, nodes := newMemCluster(t, 3, Config{Replicas: 3})
	if w := serve(rt, http.MethodPut, "/v1/tiles/base/1/1", tileAt(4, 1)); w.code != http.StatusNoContent {
		t.Fatalf("put: %d", w.code)
	}
	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if w := serve(rt, http.MethodGet, "/v1/tiles/base/1/1", nil); w.code != http.StatusOK {
				t.Fatalf("get: %d", w.code)
			}
		}
	}
	read(6)
	for _, n := range nodes {
		if got := n.bodies.Load(); got != 2 {
			t.Errorf("%s supplied %d of 6 bodies, want 2", n.name, got)
		}
	}
	nodes[0].down.Store(true)
	setAlive(rt, nodes[0].name, false)
	read(6)
	if a, b := nodes[1].bodies.Load()-2, nodes[2].bodies.Load()-2; a+b != 6 || a == 0 || b == 0 {
		t.Errorf("with node0 dead the live owners supplied %d and %d of 6 bodies", a, b)
	}
}

// bigTile encodes a valid tile of at least size bytes — the benchmark's
// tiles run about 23 KB.
func bigTile(size int) []byte {
	m := core.NewMap("big")
	m.Clock = 7
	for i := 0; ; i++ {
		m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(float64(i), float64(i%97), 0)})
		if i%64 == 63 {
			if data := storage.EncodeBinary(m); len(data) >= size {
				return data
			}
		}
	}
}

// TestRouterReadAllocBudget pins the gain of the one-body read where
// tier-1 sees it: a routed GET of a 23 KB tile at R=3 allocates at most
// 3 tile sizes and pulls at most 1.1 tile sizes out of the shards. The
// MemStore's copy (one size class, 24 576 B) and the leg's one pre-sized
// buffer (tile + bytes.MinRead lands in the next class, 27 264 B) are
// 2.1 of them, requests, headers and contexts of four HTTP exchanges
// most of the rest — measured 2.8 here. Three body legs re-growing
// io.ReadAll buffers took 17.8 tile sizes and 3.0 of egress.
func TestRouterReadAllocBudget(t *testing.T) {
	// The trace buffer of a request is sized by the span cap (64 spans,
	// 25 KB), not by the read; a small cap keeps it out of a budget that
	// is about bodies.
	rt, nodes := newMemCluster(t, 5, Config{Replicas: 3, Tracer: obs.NewTracer(obs.TracerConfig{MaxSpans: 8})})
	rt.Start()
	tile := bigTile(23 << 10)
	if w := serve(rt, http.MethodPut, "/v1/tiles/base/1/1", tile); w.code != http.StatusNoContent {
		t.Fatalf("put: %d %s", w.code, w.body)
	}
	read := func() {
		if w := serve(rt, http.MethodGet, "/v1/tiles/base/1/1", nil); w.code != http.StatusOK || len(w.body) != len(tile) {
			t.Fatalf("get: %d, %d bytes", w.code, len(w.body))
		}
	}
	egress := func() (n int64) {
		for _, nd := range nodes {
			n += nd.egress.Load()
		}
		return n
	}
	for i := 0; i < 20; i++ {
		read()
	}
	const reads = 200
	var before, after runtime.MemStats
	runtime.GC()
	sent := egress()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
	perReadSent := float64(egress()-sent) / reads
	t.Logf("a routed read of a %d-byte tile allocates %.0f bytes and pulls %.0f bytes out of the shards",
		len(tile), perRead, perReadSent)
	if limit := 3 * float64(len(tile)); perRead > limit && !raceEnabled {
		t.Errorf("allocation over budget %.0f", limit)
	}
	if limit := 1.1 * float64(len(tile)); perReadSent > limit {
		t.Errorf("shard egress over budget %.0f", limit)
	}
	if s := rt.Stats(); s.StaleReplicas != 0 || s.IntegrityFailures != 0 {
		t.Errorf("clean reads scheduled repairs: %+v", s)
	}
}

// TestShardBodyOverLimit: a shard body over MaxTileBytes is an integrity
// failure even when no checksum header would have caught the cut — it
// used to be truncated to limit+1 bytes, pass the header-only clock peek
// and be served under a checksum of the truncated bytes.
func TestShardBodyOverLimit(t *testing.T) {
	tile := tileBytes(3, 1)
	rt, nodes := newMemCluster(t, 1, Config{Replicas: 1, MaxTileBytes: int64(len(tile))})
	nodes[0].h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(append(append([]byte{}, tile...), 0)) // one byte over, no checksum header
	})
	w := serve(rt, http.MethodGet, "/v1/tiles/base/0/0", nil)
	if w.code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit shard body answered %d with %d bytes, want 503", w.code, len(w.body))
	}
	if s := rt.Stats(); s.IntegrityFailures != 1 || s.Shed != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// At the limit exactly, still without a checksum header, it is served.
	nodes[0].h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(tile) })
	if w := serve(rt, http.MethodGet, "/v1/tiles/base/0/0", nil); w.code != http.StatusOK || !bytes.Equal(w.body, tile) ||
		w.header.Get(storage.ChecksumHeader) != storage.Checksum(tile) {
		t.Fatalf("at-limit shard body: %d, %d bytes, checksum %q", w.code, len(w.body), w.header.Get(storage.ChecksumHeader))
	}
}

// TestRouterListWindow: the router validates ?bbox, forwards it, and
// merges the shards' windows — with a shard down, and never for an
// internal layer.
func TestRouterListWindow(t *testing.T) {
	rt, nodes := newMemCluster(t, 4, Config{Replicas: 3})
	for tx := 0; tx < 6; tx++ {
		for ty := 0; ty < 3; ty++ {
			path := fmt.Sprintf("/v1/tiles/base/%d/%d", tx, ty)
			if w := serve(rt, http.MethodPut, path, tileBytes(1, tx*3+ty)); w.code != http.StatusNoContent {
				t.Fatalf("put %s: %d", path, w.code)
			}
		}
	}
	type entry struct {
		TX int32 `json:"tx"`
		TY int32 `json:"ty"`
	}
	list := func(query string) (out []entry) {
		t.Helper()
		w := serve(rt, http.MethodGet, "/v1/tiles/base"+query, nil)
		if w.code != http.StatusOK {
			t.Fatalf("list %q: %d %s", query, w.code, w.body)
		}
		if err := json.Unmarshal(w.body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := []entry{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	check := func(what string, got []entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %v, want %v", what, got, want)
			}
		}
	}
	if all := list(""); len(all) != 18 {
		t.Fatalf("whole layer lists %d keys, want 18", len(all))
	}
	sent := nodes[0].egress.Load()
	check("window", list("?bbox=1,1,2,2"))
	if got := nodes[0].egress.Load() - sent; got > 200 {
		t.Errorf("a shard answered the window with %d bytes: the filter did not reach it", got)
	}
	// One shard down: every key still has two live owners listing it.
	nodes[1].down.Store(true)
	setAlive(rt, nodes[1].name, false)
	check("window with a shard down", list("?bbox=1,1,2,2"))

	for _, bad := range []string{"?bbox=1,2,3", "?bbox=x,1,2,2"} {
		if w := serve(rt, http.MethodGet, "/v1/tiles/base"+bad, nil); w.code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, w.code)
		}
	}
	if w := serve(rt, http.MethodGet, "/v1/tiles/hint--node0--base?bbox=0,0,9,9", nil); w.code != http.StatusNotFound {
		t.Errorf("internal layer window: %d, want 404", w.code)
	}
	s := rt.Stats()
	if s.Routed != s.Served+s.Shed+s.Errored || s.Shed != 0 {
		t.Errorf("accounting: %+v", s)
	}
}
