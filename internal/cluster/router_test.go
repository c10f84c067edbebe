package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
)

// testNode is one in-process tile server: a MemStore behind the real
// HTTP surface plus the /healthz the failure detector probes.
type testNode struct {
	name  string
	store storage.TileStore
	srv   *httptest.Server
}

func newTestNode(t *testing.T, name string) *testNode {
	t.Helper()
	store := storage.NewMemStore()
	mux := http.NewServeMux()
	mux.Handle("/v1/", storage.NewTileServer(store))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &testNode{name: name, store: store, srv: srv}
}

// newTestCluster builds n nodes and a stopped router over them (tests
// drive the failure detector by hand for determinism).
func newTestCluster(t *testing.T, n int, cfg Config) (*Router, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	cfg.Nodes = make([]Node, n)
	for i := range nodes {
		nodes[i] = newTestNode(t, fmt.Sprintf("node%d", i))
		cfg.Nodes[i] = Node{Name: nodes[i].name, Base: nodes[i].srv.URL}
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, nodes
}

// tileBytes encodes a tiny valid tile with the given logical clock.
func tileBytes(clock uint64, salt int) []byte {
	m := core.NewMap(fmt.Sprintf("t%d", salt))
	m.Clock = clock
	m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(float64(salt), 1, 0)})
	return storage.EncodeBinary(m)
}

// markDown forces the failure detector's view without real probes.
func markDown(rt *Router, name string) {
	m := rt.members[name]
	for i := 0; i < rt.cfg.failAfter(); i++ {
		m.strike(rt.cfg.failAfter(), "test kill")
	}
}

func do(t *testing.T, h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func checkAccounting(t *testing.T, rt *Router) {
	t.Helper()
	s := rt.Stats()
	if s.Routed != s.Served+s.Shed+s.Errored {
		t.Errorf("accounting: routed %d != served %d + shed %d + errored %d",
			s.Routed, s.Served, s.Shed, s.Errored)
	}
}

func TestRouterReplicatedWriteAndQuorumRead(t *testing.T) {
	rt, nodes := newTestCluster(t, 3, Config{Replicas: 3})
	data := tileBytes(1, 7)
	path := "/v1/tiles/base/4/2"
	if w := do(t, rt, http.MethodPut, path, data, map[string]string{storage.ChecksumHeader: storage.Checksum(data)}); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d %s", w.Code, w.Body.String())
	}
	// With R == N the write must land on every node.
	key := storage.TileKey{Layer: "base", TX: 4, TY: 2}
	for _, n := range nodes {
		got, err := n.store.Get(key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("node %s replica: err=%v len=%d want %d", n.name, err, len(got), len(data))
		}
	}
	w := do(t, rt, http.MethodGet, path, nil, nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
		t.Fatalf("get: %d len=%d", w.Code, w.Body.Len())
	}
	if got := w.Header().Get(storage.ChecksumHeader); got != storage.Checksum(data) {
		t.Fatalf("checksum header %q", got)
	}
	if w := do(t, rt, http.MethodGet, "/v1/tiles/base/99/99", nil, nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing tile: %d", w.Code)
	}
	s := rt.Stats()
	if s.Reads != 2 || s.Writes != 1 || s.Served != 3 {
		t.Fatalf("stats: %+v", s)
	}
	checkAccounting(t, rt)
}

func TestRouterReadRepairConverges(t *testing.T) {
	rt, nodes := newTestCluster(t, 3, Config{Replicas: 3})
	rt.Start()
	key := storage.TileKey{Layer: "base", TX: 1, TY: 1}
	v1 := tileBytes(1, 1)
	v2 := tileBytes(2, 2)
	// All replicas at v1 via the router, then one replica jumps to v2
	// behind the router's back (as if written during a partition). The
	// divergent write goes through the node's own HTTP surface so its
	// write-time checksum is honest — a direct store write would look
	// like at-rest corruption instead.
	if w := do(t, rt, http.MethodPut, "/v1/tiles/base/1/1", v1, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put v1: %d", w.Code)
	}
	req, err := http.NewRequest(http.MethodPut, nodes[2].srv.URL+"/v1/tiles/base/1/1", bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("direct put v2: %d", resp.StatusCode)
	}
	// Quorum reads must converge every replica to the winner (v2: the
	// higher clock) byte-identically via background read-repair.
	deadline := time.Now().Add(5 * time.Second)
	for {
		do(t, rt, http.MethodGet, "/v1/tiles/base/1/1", nil, nil)
		converged := true
		for _, n := range nodes {
			got, err := n.store.Get(key)
			if err != nil || !bytes.Equal(got, v2) {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge to the winner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := rt.Stats()
	if s.StaleReplicas == 0 || s.RepairsDone == 0 {
		t.Fatalf("expected stale replicas and repairs: %+v", s)
	}
	// A later read must serve v2 from a clean quorum.
	w := do(t, rt, http.MethodGet, "/v1/tiles/base/1/1", nil, nil)
	if !bytes.Equal(w.Body.Bytes(), v2) {
		t.Fatal("read after convergence is not the winner")
	}
	checkAccounting(t, rt)
}

func TestRouterReadsSurviveOneDeadReplica(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 3})
	data := tileBytes(1, 3)
	if w := do(t, rt, http.MethodPut, "/v1/tiles/base/5/5", data, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d", w.Code)
	}
	markDown(rt, "node1")
	w := do(t, rt, http.MethodGet, "/v1/tiles/base/5/5", nil, nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), data) {
		t.Fatalf("quorum read with one dead replica: %d", w.Code)
	}
	checkAccounting(t, rt)
}

func TestRouterShedsWithoutQuorum(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 3})
	data := tileBytes(1, 4)
	if w := do(t, rt, http.MethodPut, "/v1/tiles/base/6/6", data, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d", w.Code)
	}
	markDown(rt, "node0")
	markDown(rt, "node1")
	// One live replica < read quorum of 2: the router must refuse
	// honestly (503 + Retry-After), never serve a sub-quorum answer.
	w := do(t, rt, http.MethodGet, "/v1/tiles/base/6/6", nil, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sub-quorum read: %d", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	s := rt.Stats()
	if s.Shed != 1 || s.QuorumFailures != 1 {
		t.Fatalf("stats: %+v", s)
	}
	checkAccounting(t, rt)
}

// TestReplicasFollowMembership: the effective replication factor
// clamps to current membership, not the boot-time Nodes list — a
// cluster started below its target regains the full factor (and the
// derived quorums) once AddNode grows the ring.
func TestReplicasFollowMembership(t *testing.T) {
	rt, nodes := newTestCluster(t, 2, Config{Replicas: 3})
	if got := rt.replicas(); got != 2 {
		t.Fatalf("2-node start: replicas %d, want 2", got)
	}
	late := newTestNode(t, "node2")
	if err := rt.AddNode(Node{Name: late.name, Base: late.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if got := rt.replicas(); got != 3 {
		t.Fatalf("after join: replicas %d, want 3", got)
	}
	if got := rt.writeQuorum(); got != 2 {
		t.Fatalf("after join: write quorum %d, want 2", got)
	}
	if st := rt.Status(); st.Replicas != 3 || st.WriteQuorum != 2 {
		t.Fatalf("status: replicas %d quorum %d", st.Replicas, st.WriteQuorum)
	}
	// A post-join write must land on all three nodes (R == N), not on
	// the two the boot-time clamp would have chosen.
	data := tileBytes(1, 9)
	if w := do(t, rt, http.MethodPut, "/v1/tiles/base/3/3", data, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d %s", w.Code, w.Body.String())
	}
	key := storage.TileKey{Layer: "base", TX: 3, TY: 3}
	for _, n := range append(nodes, late) {
		got, err := n.store.Get(key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("node %s replica after join: err=%v len=%d", n.name, err, len(got))
		}
	}
	checkAccounting(t, rt)
}

// TestDeleteShedsWithoutProbeQuorum: minting a deletion marker from
// fewer than a read quorum of definitive clock answers could stamp it
// below the tile's real version, acking a delete that erases nothing.
// The router must shed instead.
func TestDeleteShedsWithoutProbeQuorum(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 3})
	data := tileBytes(7, 5)
	if w := do(t, rt, http.MethodPut, "/v1/tiles/base/2/2", data, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put: %d", w.Code)
	}
	markDown(rt, "node0")
	markDown(rt, "node1")
	w := do(t, rt, http.MethodDelete, "/v1/tiles/base/2/2", nil, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("sub-quorum delete: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	checkAccounting(t, rt)
}

// pickKey finds a tile key on the given layer whose owner set contains
// wantOwner — N=4, R=3 guarantees one non-owner fallback.
func pickKey(rt *Router, layer, wantOwner string) storage.TileKey {
	for tx := int32(0); tx < 1000; tx++ {
		key := storage.TileKey{Layer: layer, TX: tx, TY: 0}
		for _, o := range rt.Ring().Owners(key, rt.replicas()) {
			if o == wantOwner {
				return key
			}
		}
	}
	panic("no key found for owner " + wantOwner)
}

func TestRouterHintedHandoff(t *testing.T) {
	rt, nodes := newTestCluster(t, 4, Config{Replicas: 3})
	byName := map[string]*testNode{}
	for _, n := range nodes {
		byName[n.name] = n
	}
	const dead = "node2"
	key := pickKey(rt, "base", dead)
	path := fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY)
	markDown(rt, dead)

	data := tileBytes(3, 9)
	if w := do(t, rt, http.MethodPut, path, data, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put with dead owner: %d %s", w.Code, w.Body.String())
	}
	// Live owners got the write; the dead one did not.
	if _, err := byName[dead].store.Get(key); err == nil {
		t.Fatal("dead owner received the write")
	}
	s := rt.Stats()
	if s.HintsQueued != 1 || s.HintsPending != 1 {
		t.Fatalf("hint stats after write: %+v", s)
	}
	// The hint is durably parked on some live node under the handoff
	// layer, surviving a router restart.
	hl := hintLayer(dead, key.Layer)
	durable := 0
	for _, n := range nodes {
		if ks, _ := n.store.Keys(hl); len(ks) == 1 {
			durable++
		}
	}
	if durable != 1 {
		t.Fatalf("durable hint copies: %d, want 1", durable)
	}
	// Hint layers never leak through the router's merged listings.
	var layers []string
	if err := json.Unmarshal(do(t, rt, http.MethodGet, "/v1/layers", nil, nil).Body.Bytes(), &layers); err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if strings.HasPrefix(l, hintLayerPrefix) {
			t.Fatalf("hint layer leaked: %v", layers)
		}
	}

	// Recovery: the up transition drains the handoff buffer back to the
	// returned owner.
	rt.noteSuccess(rt.members[dead])
	// pending() drops when the drain claims the batch, before the replay
	// PUT lands — quiescence is when the drained counter catches up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := rt.Stats()
		if s.HintsPending == 0 && s.HintsDrained == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hints did not drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	got, err := byName[dead].store.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("recovered owner replica: err=%v", err)
	}
	// Drained durable copies are cleaned up.
	waitCleanup := time.Now().Add(2 * time.Second)
	for {
		left := 0
		for _, n := range nodes {
			ks, _ := n.store.Keys(hl)
			left += len(ks)
		}
		if left == 0 {
			break
		}
		if time.Now().After(waitCleanup) {
			t.Fatalf("%d durable hint copies left after drain", left)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s = rt.Stats()
	if s.HintsDrained != 1 || s.HintsPending != 0 || s.HintsDropped != 0 {
		t.Fatalf("hint stats after drain: %+v", s)
	}
	if s.HintsQueued != s.HintsDrained+s.HintsSuperseded+s.HintsDropped {
		t.Fatalf("hint books do not balance: %+v", s)
	}
	checkAccounting(t, rt)
}

func TestRouterHintSupersededByNewerWrite(t *testing.T) {
	rt, nodes := newTestCluster(t, 4, Config{Replicas: 3})
	const dead = "node1"
	key := pickKey(rt, "base", dead)
	path := fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY)
	markDown(rt, dead)
	v1, v2 := tileBytes(1, 1), tileBytes(2, 2)
	if w := do(t, rt, http.MethodPut, path, v1, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put v1: %d", w.Code)
	}
	if w := do(t, rt, http.MethodPut, path, v2, nil); w.Code != http.StatusNoContent {
		t.Fatalf("put v2: %d", w.Code)
	}
	s := rt.Stats()
	if s.HintsQueued != 2 || s.HintsSuperseded != 1 || s.HintsPending != 1 {
		t.Fatalf("superseded accounting: %+v", s)
	}
	rt.noteSuccess(rt.members[dead])
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := rt.Stats()
		if s.HintsPending == 0 && s.HintsDrained == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hints did not drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var deadNode *testNode
	for _, n := range nodes {
		if n.name == dead {
			deadNode = n
		}
	}
	got, err := deadNode.store.Get(key)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("drain replayed wrong version: err=%v", err)
	}
	s = rt.Stats()
	if s.HintsQueued != s.HintsDrained+s.HintsSuperseded+s.HintsDropped {
		t.Fatalf("hint books do not balance: %+v", s)
	}
}

func TestRouterMergedListings(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 2})
	// Tiles on two layers spread across shards.
	for i := 0; i < 8; i++ {
		layer := "base"
		if i%2 == 1 {
			layer = "signs"
		}
		data := tileBytes(1, i)
		path := fmt.Sprintf("/v1/tiles/%s/%d/0", layer, i)
		if w := do(t, rt, http.MethodPut, path, data, nil); w.Code != http.StatusNoContent {
			t.Fatalf("put %s: %d", path, w.Code)
		}
	}
	var layers []string
	if err := json.Unmarshal(do(t, rt, http.MethodGet, "/v1/layers", nil, nil).Body.Bytes(), &layers); err != nil {
		t.Fatal(err)
	}
	if len(layers) != 2 || layers[0] != "base" || layers[1] != "signs" {
		t.Fatalf("merged layers: %v", layers)
	}
	var keys []struct {
		TX int32 `json:"tx"`
		TY int32 `json:"ty"`
	}
	if err := json.Unmarshal(do(t, rt, http.MethodGet, "/v1/tiles/base", nil, nil).Body.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("merged base listing: %v", keys)
	}
	checkAccounting(t, rt)
}

func TestRouterMetaEndpoints(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 3})
	for _, path := range []string{"/healthz", "/readyz", "/statz", "/clusterz", "/metricz", "/tracez"} {
		if w := do(t, rt, http.MethodGet, path, nil, nil); w.Code != http.StatusOK {
			t.Errorf("%s: %d", path, w.Code)
		}
	}
	var status ClusterStatus
	if err := json.Unmarshal(do(t, rt, http.MethodGet, "/clusterz", nil, nil).Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Members) != 3 || status.Replicas != 3 || status.ReadQuorum != 2 {
		t.Fatalf("clusterz: %+v", status)
	}
	// Meta endpoints are not proxied traffic and must not be counted.
	if s := rt.Stats(); s.Routed != 0 {
		t.Fatalf("meta endpoints counted as routed: %+v", s)
	}
	// Per-shard counters ride the registry with bounded label
	// cardinality.
	var ms map[string]json.RawMessage
	if err := json.Unmarshal(do(t, rt, http.MethodGet, "/metricz", nil, nil).Body.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
}

func TestRouterRejectsBadRequests(t *testing.T) {
	rt, nodes := newTestCluster(t, 3, Config{Replicas: 3})
	cases := []struct {
		method, path string
		body         []byte
		hdr          map[string]string
		want         int
	}{
		{http.MethodGet, "/v1/tiles/base/x/0", nil, nil, http.StatusBadRequest},
		{http.MethodPost, "/v1/tiles/base/1/0", nil, nil, http.StatusMethodNotAllowed},
		{http.MethodPut, "/v1/tiles/base/1/0", []byte("not a tile"), nil, http.StatusUnprocessableEntity},
		{http.MethodPut, "/v1/tiles/base/1/0", tileBytes(1, 1), map[string]string{storage.ChecksumHeader: "deadbeef"}, http.StatusBadRequest},
		// Handoff and tombstone layers are not addressed through the router,
		// to read or to write.
		{http.MethodGet, "/v1/tiles/hint--node0--base/1/0", nil, nil, http.StatusNotFound},
		{http.MethodPut, "/v1/tiles/hint--node0--base/1/0", tileBytes(1, 1), nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/tiles/hint--node0--base/1/0", nil, nil, http.StatusNotFound},
		{http.MethodPut, "/v1/tiles/tomb--base/1/0", tileBytes(1, 1), nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/tiles/tomb--base/1/0", nil, nil, http.StatusNotFound},
		{http.MethodGet, "/v1/nope", nil, nil, http.StatusNotFound},
		// A layer is one plain path element, however it is spelled.
		{http.MethodPut, "/v1/tiles/%2e%2e/0/0", tileBytes(1, 1), nil, http.StatusBadRequest},
		{http.MethodPut, "/v1/tiles/../0/0", tileBytes(1, 1), nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/tiles/%2E%2e/0/0", nil, nil, http.StatusBadRequest},
		{http.MethodDelete, "/v1/tiles/..%5Cup/0/0", nil, nil, http.StatusBadRequest},
		{http.MethodPut, "/v1/tiles/a%00b/0/0", tileBytes(1, 1), nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/tiles/%2e%2e", nil, nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/tiles/.", nil, nil, http.StatusBadRequest},
	}
	for _, c := range cases {
		w := do(t, rt, c.method, c.path, c.body, c.hdr)
		if w.Code != c.want {
			t.Errorf("%s %s: %d want %d (%s)", c.method, c.path, w.Code, c.want, w.Body.String())
		}
	}
	for _, n := range nodes {
		if layers, err := n.store.ListLayers(); err != nil || len(layers) != 0 {
			t.Errorf("%s holds layers %v after nothing but refused requests (%v)", n.name, layers, err)
		}
	}
	// Definitive rejections are served answers; accounting still closes.
	s := rt.Stats()
	if s.Served != uint64(len(cases)) {
		t.Fatalf("served = %d, want %d", s.Served, len(cases))
	}
	checkAccounting(t, rt)
}

func TestRouterDrainingSheds(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 3})
	rt.Close()
	w := do(t, rt, http.MethodGet, "/v1/tiles/base/1/0", nil, nil)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("draining router: %d Retry-After=%q", w.Code, w.Header().Get("Retry-After"))
	}
	if w := do(t, rt, http.MethodGet, "/readyz", nil, nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %d", w.Code)
	}
	checkAccounting(t, rt)
}

func TestRouterMembershipChange(t *testing.T) {
	rt, _ := newTestCluster(t, 3, Config{Replicas: 2})
	if got := rt.Ring().Len(); got != 3 {
		t.Fatalf("ring size %d", got)
	}
	extra := newTestNode(t, "node3")
	if err := rt.AddNode(Node{Name: extra.name, Base: extra.srv.URL}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Ring().Len(); got != 4 {
		t.Fatalf("ring size after join: %d", got)
	}
	rt.RemoveNode("node3")
	if got := rt.Ring().Len(); got != 3 {
		t.Fatalf("ring size after leave: %d", got)
	}
	if err := rt.AddNode(Node{Name: "Bad Name!", Base: "http://x"}); err == nil {
		t.Fatal("invalid node name accepted")
	}
}
