package hdbench

import (
	"runtime"
	"time"

	"hdmaps/internal/mapverify"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/ingest"
)

// perLayer assembles the per-layer metrics of a traced run: counter
// deltas of the untraced rounds over their ops, span self times of the
// traced rounds over theirs, and direct probes of public functions on
// the workload's own data.
func (r *runner) perLayer(fx *Fixture, d counters, ops, opNs float64) map[string]float64 {
	out := make(map[string]float64, len(PerLayer))
	for _, m := range PerLayer {
		out[m.Name] = 0
	}
	per := func(c counter) float64 { return d[c] / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// busyMs is a traced-round time per traced operation.
	busyMs := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(r.sums.ops)) }

	out["client.busy_ms_per_op"] = busyMs(r.sums.busy[layerClient])
	out["client.requests_per_op"] = per(cFrontRequests)
	out["client.tiles_per_op"] = per(cFrontTileRequests)
	out["client.retries_per_op"] = per(cClientRetries)
	out["client.list_kb_per_op"] = per(cFrontListBytes) / 1024
	out["client.tile_kb_per_op"] = per(cFrontTileBytes) / 1024
	out["client.fetch_region_p50_ms"] = percentile(r.pools[kindFetch], 50)
	out["client.put_tile_p50_ms"] = percentile(r.pools[kindPut], 50)

	out["resilience.busy_ms_per_op"] = busyMs(r.sums.busy[layerResilience])
	out["resilience.cache_hit_ratio"] = ratio(d[cResCacheHits], d[cResCacheHits]+d[cResCacheMisses])
	out["resilience.inner_per_request"] = ratio(d[cResInner], d[cResSubmitted])
	out["resilience.coalesced_per_op"] = per(cResCoalesced)
	out["resilience.shed_per_op"] = per(cResShed)

	out["tileserver.busy_ms_per_op"] = busyMs(r.sums.busy[layerTileServer])
	out["tileserver.requests_per_op"] = per(cServerCalls)

	out["store.get_ms_per_op"] = busyMs(r.sums.storeNs["get"])
	out["store.gets_per_op"] = per(cStoreGets)
	out["store.keys_ms_per_op"] = busyMs(r.sums.storeNs["keys"])
	out["store.keys_calls_per_op"] = per(cStoreKeys)
	out["store.put_ms_per_op"] = busyMs(r.sums.storeNs["put"])
	out["store.puts_per_op"] = per(cStorePuts)
	out["store.put_kb_per_op"] = per(cStorePutBytes) / 1024
	out["store.deletes_per_op"] = per(cStoreDeletes)

	out["cluster.busy_ms_per_op"] = busyMs(r.sums.busy[layerCluster])
	out["cluster.leg_wall_ms_per_op"] = busyMs(r.sums.legWall)
	out["cluster.shard_requests_per_op"] = per(cLegRequests)
	out["cluster.shard_kb_per_op"] = per(cLegBytes) / 1024
	out["cluster.read_amplification"] = ratio(d[cLegBytes], d[cWireBytes])
	out["cluster.repairs_per_op"] = per(cRepairs)
	out["cluster.hints_per_op"] = per(cHints)

	if d[cReportsSubmitted] > 0 {
		out["ingest.submit_ms_per_op"] = per(cSubmitNs) / 1e6
		out["ingest.pipeline_wait_ms_per_op"] = (opNs - d[cSubmitNs]) / ops / 1e6
		out["ingest.stage_validate_ms_per_op"] = per(cStageValidate) * 1e3
		out["ingest.stage_screen_ms_per_op"] = per(cStageScreen) * 1e3
		out["ingest.stage_fuse_ms_per_op"] = per(cStageFuse) * 1e3
		out["ingest.stage_commit_ms_per_op"] = per(cStageCommit) * 1e3
		out["ingest.stage_publish_ms_per_op"] = per(cStagePublish) * 1e3
		out["ingest.tiles_put_per_op"] = per(cStorePuts)
		out["ingest.useful_put_ratio"] = ratio(d[cStorePutsChanged], d[cStorePuts])
		out["ingest.accepted_ratio"] = ratio(d[cReportsAccepted], d[cReportsSubmitted])
		out["ingest.commits_per_op"] = per(cCommits)
	}

	r.probes(fx, out)
	return out
}

// timeMedian runs fn passes times and returns the median wall time of a
// pass in nanoseconds.
func timeMedian(passes int, fn func()) float64 {
	times := make([]float64, passes)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start))
	}
	return Median(times)
}

// probeSink keeps probe results observable so the calls are not elided.
var probeSink int

// probes times public functions of the inner layers directly on the
// workload's own data, after the measured rounds and with nothing else
// running. Codec probes make whole passes over the fixture's tiles, at
// least 200 calls in all.
func (r *runner) probes(fx *Fixture, out map[string]float64) {
	runtime.GC()
	tiles := float64(len(fx.Keys))
	passes := max(5, (200+len(fx.Keys)-1)/len(fx.Keys))
	var bytes int
	for _, k := range fx.Keys {
		bytes += len(fx.Bytes[k])
	}
	out["codec.tile_kb"] = float64(bytes) / tiles / 1024

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decodeNs := timeMedian(passes, func() {
		for _, k := range fx.Keys {
			m, err := storage.DecodeBinary(fx.Bytes[k])
			if err != nil {
				panic(err) // the fixture's own encoding
			}
			probeSink += m.NumElements()
		}
	})
	runtime.ReadMemStats(&ms1)
	out["codec.decode_us_per_tile"] = decodeNs / tiles / 1e3
	out["codec.decode_allocs_per_tile"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(passes) / tiles
	out["codec.encode_us_per_tile"] = timeMedian(passes, func() {
		for _, k := range fx.Keys {
			probeSink += len(storage.EncodeBinary(fx.Tiles[k]))
		}
	}) / tiles / 1e3
	out["codec.checksum_us_per_tile"] = timeMedian(passes, func() {
		for _, k := range fx.Keys {
			probeSink += len(storage.Checksum(fx.Bytes[k]))
		}
	}) / tiles / 1e3

	out["tiler.split_ms"] = timeMedian(9, func() {
		probeSink += len(storage.Tiler{}.Split(fx.World, layerName))
	}) / 1e6
	// The region a vehicle of this workload stitches, loaded the way
	// FetchRegion loads it: from a MemStore holding just those tiles.
	region := storage.NewMemStore()
	win := r.spec.region(fx)
	for _, k := range fx.Keys {
		if k.TX < win.tx0 || k.TX > win.tx1 || k.TY < win.ty0 || k.TY > win.ty1 {
			continue
		}
		if err := region.Put(k, fx.Bytes[k]); err != nil {
			panic(err) // MemStore.Put cannot fail
		}
	}
	out["tiler.loadmap_ms_per_region"] = timeMedian(15, func() {
		m, err := storage.Tiler{}.LoadMap(region, layerName, "probe")
		if err != nil {
			panic(err) // the fixture's own tiles
		}
		probeSink += m.NumElements()
	}) / 1e6

	out["mapverify.verify_ms"] = timeMedian(5, func() {
		probeSink += mapverify.Verify(fx.World, mapverify.Config{}).Checked
	}) / 1e6

	switch st := r.st.(type) {
	case *readStack:
		if st.router != nil {
			ring := st.router.Ring()
			const calls = 20000
			out["cluster.ring_owners_ns"] = timeMedian(9, func() {
				for i := 0; i < calls; i++ {
					probeSink += len(ring.Owners(fx.Keys[i%len(fx.Keys)], 3))
				}
			}) / calls
		}
	case *ingestStack:
		// The gate as the service runs it: the current version against a
		// candidate of the same size.
		parent := st.svc.Store().Frozen()
		next := st.svc.Store().Current()
		out["ingest.gate_check_ms"] = timeMedian(9, func() {
			probeSink += len(ingest.CheckCommit(parent, next, ingest.GateConfig{}))
		}) / 1e6
	}
}
