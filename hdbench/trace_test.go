package hdbench

import "testing"

func TestCoveredCountsOverlapOnceAndClips(t *testing.T) {
	got := covered(10, 90, [][2]int64{{30, 95}, {20, 50}, {25, 60}, {0, 5}, {200, 300}})
	if got != 70 {
		t.Errorf("covered = %d, want 70 (union [20,90] of the clipped intervals)", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no intervals = %d, want 0", got)
	}
}

// One cluster read: the router fans out to three shards in parallel, one
// leg outlives the router's answer, and a read-repair runs beside it.
func TestSummarizeParallelLegsAndBackground(t *testing.T) {
	chain := []string{layerClient, layerCluster, layerResilience, layerTileServer, layerStore}
	spans := []Span{
		// Deliberately out of start order: resolveParents must not rely on it.
		{Name: layerStore, Op: "get", Node: "shard2", Key: "base/1/1", Start: 35, End: 90},
		{Name: layerTileServer, Op: "GET", Node: "shard2", Trace: "t1", Key: "base/1/1", Start: 32, End: 93},
		{Name: layerResilience, Op: "GET", Node: "shard2", Trace: "t1", Key: "base/1/1", Start: 30, End: 95},
		{Name: layerClient, Op: "fetch_region", Trace: "t1", Start: 0, End: 100},
		{Name: layerCluster, Op: "GET", Trace: "t1", Key: "base/1/1", Start: 10, End: 90},
		{Name: layerResilience, Op: "GET", Node: "shard0", Trace: "t1", Key: "base/1/1", Start: 20, End: 50},
		{Name: layerTileServer, Op: "GET", Node: "shard0", Trace: "t1", Key: "base/1/1", Start: 22, End: 48},
		{Name: layerStore, Op: "get", Node: "shard0", Key: "base/1/1", Start: 24, End: 40},
		{Name: layerResilience, Op: "GET", Node: "shard1", Trace: "t1", Key: "base/1/1", Start: 25, End: 60},
		{Name: layerTileServer, Op: "GET", Node: "shard1", Trace: "t1", Key: "base/1/1", Start: 27, End: 58},
		{Name: layerStore, Op: "get", Node: "shard1", Key: "base/1/1", Start: 30, End: 50},
		// Read-repair traffic on shard0, under its own trace: no operation
		// caused it, so it must not be billed to one.
		{Name: layerResilience, Op: "GET", Node: "shard0", Trace: "repair", Key: "base/2/2", Start: 40, End: 45},
		{Name: layerTileServer, Op: "GET", Node: "shard0", Trace: "repair", Key: "base/2/2", Start: 41, End: 44},
		{Name: layerStore, Op: "get", Node: "shard0", Key: "base/2/2", Start: 42, End: 43},
	}
	resolveParents(spans, chain)
	sums := summarize(spans, chain)

	want := map[string]int64{
		layerClient:     20,        // 100 - router span
		layerCluster:    10,        // 80 - union [20,90] of the legs, the straggler clipped at 90
		layerResilience: 4 + 4 + 4, // each leg minus its tile-server call
		layerTileServer: 10 + 11 + 6,
		layerStore:      16 + 20 + 55,
	}
	for layer, w := range want {
		if got := sums.busy[layer]; got != w {
			t.Errorf("busy[%s] = %d, want %d", layer, got, w)
		}
	}
	if sums.legWall != 70 {
		t.Errorf("legWall = %d, want 70: three overlapping legs count once", sums.legWall)
	}
	if sums.storeNs["get"] != 91 {
		t.Errorf("storeNs[get] = %d, want 91", sums.storeNs["get"])
	}
	if sums.opWall != 100 || sums.ops != 1 {
		t.Errorf("opWall, ops = %d, %d, want 100, 1", sums.opWall, sums.ops)
	}
	if sums.background != 3 {
		t.Errorf("background = %d, want the 3 read-repair spans", sums.background)
	}
	// What a wall clock sees: client + router + the legs' union is the op.
	if got := sums.busy[layerClient] + sums.busy[layerCluster] + sums.legWall; got != sums.opWall {
		t.Errorf("client + cluster + legWall = %d, want op wall %d", got, sums.opWall)
	}
}

// Two vehicles on one node at once: store calls carry no trace ID, so
// they are linked by the key they address.
func TestResolveParentsLinksStoreCallsByKey(t *testing.T) {
	chain := []string{layerClient, layerResilience, layerTileServer, layerStore}
	spans := []Span{
		{Name: layerClient, Trace: "a", Start: 0, End: 50},
		{Name: layerResilience, Trace: "a", Key: "base/0/0", Start: 5, End: 45},
		{Name: layerTileServer, Trace: "a", Key: "base/0/0", Start: 10, End: 40},
		{Name: layerStore, Op: "get", Key: "base/0/0", Start: 15, End: 35},
		{Name: layerClient, Trace: "b", Start: 2, End: 60},
		{Name: layerResilience, Trace: "b", Key: "base/9/9", Start: 12, End: 55},
		{Name: layerTileServer, Trace: "b", Key: "base/9/9", Start: 14, End: 52},
		{Name: layerStore, Op: "get", Key: "base/9/9", Start: 20, End: 30},
	}
	resolveParents(spans, chain)
	for i, wantParent := range []int{0, 1, 2, 3, 0, 5, 6, 7} {
		if spans[i].ID != i+1 || spans[i].Parent != wantParent {
			t.Errorf("span %d (%s %s): id %d parent %d, want id %d parent %d",
				i, spans[i].Name, spans[i].Key, spans[i].ID, spans[i].Parent, i+1, wantParent)
		}
	}
	sums := summarize(spans, chain)
	var total int64
	for _, layer := range chain {
		total += sums.busy[layer]
	}
	if total != sums.opWall || sums.opWall != 50+58 {
		t.Errorf("layers sum to %d, op wall %d, want both 108", total, sums.opWall)
	}
	if sums.background != 0 {
		t.Errorf("background = %d, want 0", sums.background)
	}
}
