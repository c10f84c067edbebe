package hdbench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"hdmaps/internal/cluster"
	"hdmaps/internal/obs"
	"hdmaps/internal/resilience"
	"hdmaps/internal/storage"
)

// readOp is one operation of a distribution workload: a region pull or
// a tile upload.
type readOp struct {
	put  bool
	win  window
	key  storage.TileKey
	data []byte
}

// opStream is a seeded, endless operation stream per vehicle.
type opStream interface {
	next(v int) readOp
}

// readStack is the distribution side: a storage.Client in front of
// either one node (resilience.Handler → TileServer → store) or a
// cluster.Router over several such nodes, all joined by Wires.
type readStack struct {
	e      *env
	client *storage.Client
	creg   *obs.Registry
	front  *Wire
	legs   *Wire // nil on a single node
	resil  []*resilience.Handler
	tsrv   []*tracedHandler
	stores []*tracedStore
	router *cluster.Router // nil on a single node
	dir    string          // DirStore root, "" for memory stores

	stream opStream
	ops    [][]readOp
	// lastPut is the latest variant uploaded per tile, for the final
	// byte-identity check. Written only by prepare.
	lastPut map[storage.TileKey][]byte
}

// node builds resilience.Handler → TileServer → store with the timing
// wrappers around each boundary, and returns the node's outermost
// handler.
func (s *readStack) node(name string, store storage.TileStore, rcfg resilience.Config) http.Handler {
	ts := newTracedStore(store, s.e.rec, name, false)
	srv := &tracedHandler{next: storage.NewTileServer(ts), rec: s.e.rec, layer: layerTileServer, node: name}
	rh := resilience.NewHandler(srv, rcfg)
	s.stores = append(s.stores, ts)
	s.tsrv = append(s.tsrv, srv)
	s.resil = append(s.resil, rh)
	return &tracedHandler{next: rh, rec: s.e.rec, layer: layerResilience, node: name}
}

func (s *readStack) newClient(host string, cache *storage.TileCache) {
	s.creg = obs.NewRegistry()
	s.client = &storage.Client{
		Base:    "http://" + host,
		HTTP:    &http.Client{Transport: s.front},
		Cache:   cache,
		Metrics: s.creg,
	}
}

// singleNodeConfig is what distinguishes the single-node workloads.
type singleNodeConfig struct {
	clientCache int // TileCache capacity, 0 for none
	resCache    int // resilience response-cache capacity
	dirStore    bool
}

func newSingleNode(e *env, cfg singleNodeConfig, stream opStream) (*readStack, error) {
	s := &readStack{e: e, front: newWire(), stream: stream}
	var store storage.TileStore = storage.NewMemStore()
	if cfg.dirStore {
		dir, err := os.MkdirTemp(e.tmp, "tiles-*")
		if err != nil {
			return nil, fmt.Errorf("hdbench: dir store: %w", err)
		}
		s.dir = dir
		if store, err = storage.NewDirStore(dir); err != nil {
			return nil, err
		}
	}
	s.front.hosts["tiles"] = s.node("", store, resilience.Config{CacheSize: cfg.resCache})
	if _, err := (storage.Tiler{}).SaveMap(s.stores[0], e.fx.World, layerName); err != nil {
		return nil, err
	}
	var cache *storage.TileCache
	if cfg.clientCache > 0 {
		cache = storage.NewTileCache(cfg.clientCache)
	}
	s.newClient("tiles", cache)
	return s, nil
}

func newCluster(e *env, shards, replicas int, stream opStream) (*readStack, error) {
	s := &readStack{
		e: e, front: newWire(), legs: newWire(), stream: stream,
		lastPut: make(map[storage.TileKey][]byte),
	}
	nodes := make([]cluster.Node, shards)
	for i := range nodes {
		name := fmt.Sprintf("shard%d", i)
		nodes[i] = cluster.Node{Name: name, Base: "http://" + name}
		s.legs.hosts[name] = s.node(name, storage.NewMemStore(), resilience.Config{})
	}
	// Everything in the router that fires on wall-clock time is off, so a
	// round holds only work its operations caused: no anti-entropy sweep,
	// no observability plane, and a probe interval longer than any run.
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes: nodes, Replicas: replicas, Transport: s.legs,
		SweepInterval: -1, SampleInterval: -1, ProbeInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	rt.Start() // the read-repair worker
	s.router = rt
	s.front.hosts["router"] = &tracedHandler{next: rt, rec: e.rec, layer: layerCluster}
	s.newClient("router", nil)
	for _, k := range e.fx.Keys {
		if err := s.client.PutTile(context.Background(), k, e.fx.Bytes[k]); err != nil {
			rt.Close()
			return nil, fmt.Errorf("hdbench: load cluster: %w", err)
		}
	}
	return s, nil
}

func (s *readStack) chain() []string {
	if s.router != nil {
		return []string{layerClient, layerCluster, layerResilience, layerTileServer, layerStore}
	}
	return []string{layerClient, layerResilience, layerTileServer, layerStore}
}

func (s *readStack) prepare(n int) {
	s.ops = make([][]readOp, s.e.spec.Vehicles)
	for v := range s.ops {
		s.ops[v] = make([]readOp, n)
		for i := range s.ops[v] {
			op := s.stream.next(v)
			if op.put {
				s.lastPut[op.key] = op.data
			}
			s.ops[v][i] = op
		}
	}
}

func (s *readStack) warm() error {
	s.prepare(s.e.spec.WarmOps)
	for v := range s.ops {
		for i := range s.ops[v] {
			if _, ok := s.do(v, i, fmt.Sprintf("warm-%d-%d", v, i)); !ok {
				return fmt.Errorf("hdbench: %s: warm-up operation %d of vehicle %d failed", s.e.spec.Name, i, v)
			}
		}
	}
	return nil
}

func (s *readStack) do(v, i int, trace string) (opKind, bool) {
	op := &s.ops[v][i]
	ctx := obs.WithTraceID(context.Background(), trace)
	if op.put {
		return kindPut, s.client.PutTile(ctx, op.key, op.data) == nil
	}
	m, h, err := s.client.FetchRegion(ctx, layerName, op.win.tx0, op.win.ty0, op.win.tx1, op.win.ty1, "region")
	return kindFetch, op.win.check(m, h, err)
}

func (s *readStack) counters() counters {
	var c counters
	c[cFrontRequests] = float64(s.front.requests.Load())
	c[cFrontTileRequests] = float64(s.front.tileRequests.Load())
	c[cFrontListBytes] = float64(s.front.listBytes.Load())
	c[cFrontTileBytes] = float64(s.front.tileBytes.Load())
	c[cWireBytes] = c[cFrontListBytes] + c[cFrontTileBytes]
	c[cClientRetries] = float64(s.creg.Counter("storage.client.retries").Value())
	for _, rh := range s.resil {
		st := rh.Stats()
		c[cResSubmitted] += float64(st.Submitted)
		c[cResCacheHits] += float64(st.CacheHits)
		c[cResCacheMisses] += float64(st.CacheMisses)
		c[cResCoalesced] += float64(st.Coalesced)
		c[cResShed] += float64(st.Shed)
		c[cResInner] += float64(st.InnerRequests)
	}
	for _, h := range s.tsrv {
		c[cServerCalls] += float64(h.calls.Load())
	}
	for _, st := range s.stores {
		c[cStoreGets] += float64(st.gets.Load())
		c[cStoreKeys] += float64(st.keys.Load())
		c[cStorePuts] += float64(st.puts.Load())
		c[cStoreDeletes] += float64(st.deletes.Load())
		c[cStorePutBytes] += float64(st.putBytes.Load())
	}
	if s.router != nil {
		c[cLegRequests] = float64(s.legs.requests.Load())
		c[cLegBytes] = float64(s.legs.listBytes.Load() + s.legs.tileBytes.Load())
		rs := s.router.Stats()
		c[cRepairs] = float64(rs.RepairsScheduled)
		c[cHints] = float64(rs.HintsQueued)
	}
	return c
}

// finish checks the serving ledgers and, on the cluster, that every tile
// read back through the router is byte-identical to the last variant
// uploaded (or to the fixture's tile if none was).
func (s *readStack) finish() (failed, checked int) {
	check := func(ok bool) {
		checked++
		if !ok {
			failed++
		}
	}
	for _, rh := range s.resil {
		st := rh.Stats()
		check(st.Shed == 0 && st.Submitted == st.Accepted+st.Shed+st.Errored)
	}
	if s.router == nil {
		return failed, checked
	}
	for _, k := range s.e.fx.Keys {
		want := s.lastPut[k]
		if want == nil {
			want = s.e.fx.Bytes[k]
		}
		got, err := s.client.GetTile(context.Background(), k)
		check(err == nil && bytes.Equal(got, want))
	}
	rs := s.router.Stats()
	check(rs.Shed == 0 && rs.Routed == rs.Served+rs.Shed+rs.Errored)
	return failed, checked
}

func (s *readStack) close() {
	if s.router != nil {
		s.router.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // a leftover directory is swept with the rest of the scratch space
	}
}

// vehicleRNG seeds vehicle v's generator from the run seed.
func vehicleRNG(seed int64, v int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
}

// windows memoises Fixture.window: op streams revisit the same few
// rectangles.
type windows struct {
	fx    *Fixture
	cache map[[4]int32]window
}

func (w *windows) get(tx0, ty0, tx1, ty1 int32) window {
	k := [4]int32{tx0, ty0, tx1, ty1}
	if win, ok := w.cache[k]; ok {
		return win
	}
	if w.cache == nil {
		w.cache = make(map[[4]int32]window)
	}
	win := w.fx.window(tx0, ty0, tx1, ty1)
	w.cache[k] = win
	return win
}

// around is the 3×3 tile window centred on k.
func (w *windows) around(k storage.TileKey) window {
	return w.get(k.TX-1, k.TY-1, k.TX+1, k.TY+1)
}

// zipfStream pulls the 3×3 window around a pose whose tile is drawn
// zipf(1.2) by distance from the city centre: a few central tiles take
// most of the traffic.
type zipfStream struct {
	wins   windows
	ranked []storage.TileKey
	zipf   []*rand.Zipf
}

func newZipfStream(fx *Fixture, seed int64, vehicles int) *zipfStream {
	s := &zipfStream{wins: windows{fx: fx}, ranked: append([]storage.TileKey(nil), fx.Keys...)}
	var cx, cy float64
	for _, k := range fx.Keys {
		cx += float64(k.TX)
		cy += float64(k.TY)
	}
	cx, cy = cx/float64(len(fx.Keys)), cy/float64(len(fx.Keys))
	dist := func(k storage.TileKey) float64 {
		dx, dy := float64(k.TX)-cx, float64(k.TY)-cy
		return dx*dx + dy*dy
	}
	// fx.Keys is in Morton order and the sort is stable, so equidistant
	// tiles rank the same way on every run.
	sort.SliceStable(s.ranked, func(i, j int) bool { return dist(s.ranked[i]) < dist(s.ranked[j]) })
	for v := 0; v < vehicles; v++ {
		s.zipf = append(s.zipf, rand.NewZipf(vehicleRNG(seed, v), 1.2, 1, uint64(len(s.ranked)-1)))
	}
	return s
}

func (s *zipfStream) next(v int) readOp {
	return readOp{win: s.wins.around(s.ranked[s.zipf[v].Uint64()])}
}

// sweepStream drives along the corridor: each op pulls the next `ahead`
// tile columns (all rows) and advances by as many. Each vehicle sweeps
// its own contiguous share of the columns and wraps within it, so a tile
// comes round again only after the vehicle's whole share — several times
// the server cache — has gone by, however the vehicles interleave. The
// seed sets where in its share each vehicle starts.
type sweepStream struct {
	wins       windows
	cols       []int32
	ty0, ty1   int32
	ahead      int
	lo, hi, at []int
}

func newSweepStream(fx *Fixture, seed int64, vehicles, ahead int) *sweepStream {
	s := &sweepStream{wins: windows{fx: fx}, ahead: ahead, ty0: fx.Keys[0].TY, ty1: fx.Keys[0].TY}
	seen := map[int32]bool{}
	for _, k := range fx.Keys {
		if !seen[k.TX] {
			seen[k.TX] = true
			s.cols = append(s.cols, k.TX)
		}
		s.ty0, s.ty1 = min(s.ty0, k.TY), max(s.ty1, k.TY)
	}
	sort.Slice(s.cols, func(i, j int) bool { return s.cols[i] < s.cols[j] })
	for v := 0; v < vehicles; v++ {
		lo, hi := len(s.cols)*v/vehicles, len(s.cols)*(v+1)/vehicles
		steps := max((hi-lo)/ahead, 1)
		s.lo, s.hi = append(s.lo, lo), append(s.hi, hi)
		s.at = append(s.at, lo+vehicleRNG(seed, v).Intn(steps)*ahead)
	}
	return s
}

func (s *sweepStream) next(v int) readOp {
	first := s.at[v]
	last := min(first+s.ahead, s.hi[v]) - 1
	s.at[v] = first + s.ahead
	if s.at[v] >= s.hi[v] {
		s.at[v] = s.lo[v]
	}
	return readOp{win: s.wins.get(s.cols[first], s.ty0, s.cols[last], s.ty1)}
}

// mixStream is 80 % region pulls at a uniformly drawn pose and 20 %
// uploads of the next variant of a uniformly drawn tile: every block of
// five operations of a vehicle holds exactly one upload, at a position
// the seed draws, so the mix itself does not vary from seed to seed and
// only the poses do. A variant is
// the fixture's tile re-encoded with its logical clock advanced by one
// more than the previous variant's, so replicas order the uploads. Each
// tile is uploaded by one vehicle only (tile index modulo the vehicle
// count), which makes "the last variant uploaded" well defined without
// the vehicles coordinating.
type mixStream struct {
	fx       *Fixture
	wins     windows
	rng      []*rand.Rand
	vehicles int
	variant  map[storage.TileKey]uint64
	// pos is each vehicle's position in its current block of mixBlock
	// operations, slot the position of that block's upload.
	pos, slot []int
}

// mixBlock is the number of operations that hold one upload.
const mixBlock = 5

func newMixStream(fx *Fixture, seed int64, vehicles int) *mixStream {
	s := &mixStream{fx: fx, wins: windows{fx: fx}, vehicles: vehicles, variant: make(map[storage.TileKey]uint64)}
	for v := 0; v < vehicles; v++ {
		s.rng = append(s.rng, vehicleRNG(seed, v))
	}
	s.pos, s.slot = make([]int, vehicles), make([]int, vehicles)
	return s
}

func (s *mixStream) next(v int) readOp {
	rng := s.rng[v]
	if s.pos[v] == 0 {
		s.slot[v] = rng.Intn(mixBlock)
	}
	put := s.pos[v] == s.slot[v]
	s.pos[v] = (s.pos[v] + 1) % mixBlock
	if !put {
		return readOp{win: s.wins.around(s.fx.Keys[rng.Intn(len(s.fx.Keys))])}
	}
	mine := (len(s.fx.Keys) - v + s.vehicles - 1) / s.vehicles
	k := s.fx.Keys[v+s.vehicles*rng.Intn(mine)]
	s.variant[k]++
	sm := s.fx.Tiles[k]
	base := sm.Clock
	sm.SetClock(base + s.variant[k])
	data := storage.EncodeBinary(sm)
	sm.SetClock(base) // the fixture is shared by every set-up
	return readOp{put: true, key: k, data: data}
}
