package hdbench

import (
	"hdmaps/internal/core"
)

// Spec declares one workload: its world, its stack, and how much work a
// round is. The round sizes are frozen: changing one changes what every
// recorded number means.
type Spec struct {
	Name string
	// Why is the reason the workload exists — which layers do most of
	// its work, so which optimisations it can and cannot see.
	Why string
	// Vehicles is the number of closed-loop client goroutines. Never more
	// than the two cores the benchmark pins itself to.
	Vehicles int
	// RoundOps is operations per vehicle per round, sized so a round
	// takes about a second on the reference box.
	RoundOps int
	// WarmOps is operations per vehicle in the warm-up pass that ends
	// every set-up.
	WarmOps int

	world func(small bool, seed int64) (*core.Map, error)
	build func(e *env) (stack, error)
	// region is a typical window of the workload, for the LoadMap probe.
	region func(fx *Fixture) window
}

// midWindow is the 3×3 window around the fixture's middle tile.
func midWindow(fx *Fixture) window {
	k := fx.Keys[len(fx.Keys)/2]
	return fx.window(k.TX-1, k.TY-1, k.TX+1, k.TY+1)
}

// env is what a Spec builds a stack from.
type env struct {
	spec *Spec
	fx   *Fixture
	rec  *Recorder
	seed int64
	// tmp is where directory stores go; traced says whether this run
	// reports per-layer metrics (and so pays for change tracking).
	tmp    string
	traced bool
}

// Specs lists the workloads in the order BENCHMARK.json does.
var Specs = []*Spec{
	{
		Name: "urban_hot",
		Why: "working set fits every cache, so the store idles and client decode/stitch plus the " +
			"resilience hit path do the work: a codec or cache-copy win shows here, a store win does not",
		Vehicles: 2, RoundOps: 120, WarmOps: 10,
		world: func(small bool, seed int64) (*core.Map, error) {
			if small {
				return urbanWorld(6, seed)
			}
			return urbanWorld(24, seed)
		},
		build: func(e *env) (stack, error) {
			return newSingleNode(e, singleNodeConfig{clientCache: 64, resCache: 1024},
				newZipfStream(e.fx, e.seed, e.spec.Vehicles))
		},
		region: midWindow,
	},
	{
		Name: "highway_cold",
		Why: "every tile and listing misses (working set 5x the 64-entry server cache, no client cache), " +
			"so DirStore reads, the layer listing and TileServer do the work: the caches are bypassed",
		Vehicles: 2, RoundOps: 750, WarmOps: 30,
		world: func(small bool, seed int64) (*core.Map, error) {
			if small {
				return highwayWorld(40_000, seed)
			}
			return highwayWorld(150_000, seed)
		},
		build: func(e *env) (stack, error) {
			return newSingleNode(e, singleNodeConfig{resCache: 64, dirStore: true},
				newSweepStream(e.fx, e.seed, e.spec.Vehicles, 6))
		},
		region: func(fx *Fixture) window {
			return newSweepStream(fx, 0, 1, 6).next(0).win
		},
	},
	{
		Name: "cluster_rw",
		Why: "5 shards, R=3, 80% region pulls and 20% tile uploads through the router: quorum fan-out and " +
			"replica writes do the work, and writes invalidate shard caches, so a read gain that costs writes shows",
		Vehicles: 2, RoundOps: 150, WarmOps: 10,
		world: func(small bool, seed int64) (*core.Map, error) {
			if small {
				return urbanWorld(6, seed)
			}
			return urbanWorld(24, seed)
		},
		build: func(e *env) (stack, error) {
			return newCluster(e, 5, 3, newMixStream(e.fx, e.seed, e.spec.Vehicles))
		},
		region: midWindow,
	},
	{
		Name: "ingest_publish",
		Why: "the write side: validate, screen, fuse, gate + mapverify, re-split, re-encode, re-PUT; " +
			"uses codec/tiler/store in the opposite direction from the read workloads and no serving layer",
		Vehicles: 1, RoundOps: 28, WarmOps: 2,
		world: func(small bool, seed int64) (*core.Map, error) {
			if small {
				return urbanWorld(4, seed)
			}
			return urbanWorld(12, seed)
		},
		build: func(e *env) (stack, error) { return newIngestStack(e) },
		// The end-of-run check reloads the whole published layer.
		region: func(fx *Fixture) window {
			const all = 1 << 30
			return fx.window(-all, -all, all, all)
		},
	},
}

// SpecByName finds a workload.
func SpecByName(name string) *Spec {
	for _, s := range Specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
