// Package hdbench is the repository's benchmark: four closed-loop
// workloads that drive the public entry points of the distribution side
// (storage.Client → resilience.Handler → cluster.Router → TileServer →
// store) and the maintenance side (ingest.Service → commit gate →
// Tiler.SyncMap) in one process, over an in-process http.RoundTripper.
//
// A run builds the world from the seed, times several complete set-ups,
// discards a warm-up round, then measures fixed-size rounds until the
// requested number of seconds has been measured. Throughput and CPU are
// medians over rounds, latency percentiles are taken over the pooled
// samples, counts are deltas over all measured rounds. Every time is
// reported at reference speed: divided by how much slower than on the
// reference machine a fixed calibration kernel ran beside it. A traced run
// alternates untraced and traced rounds: timing wrappers the benchmark
// installed around each layer's public boundary record spans, and each
// layer's busy time is its spans' duration minus what their child spans
// cover. README.md has the protocol and the reasons.
package hdbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long to measure: rounds run until their wall times
	// add up to it. Rounds, when positive, fixes the number of measured
	// rounds instead, which makes every count of the run a function of
	// the seed alone.
	Seconds float64
	Rounds  int
	// Trace selects the traced run (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	Trace bool
	// Setups is the number of timed set-ups after one discarded (7 when
	// zero).
	Setups int
	// Small shrinks worlds and rounds about fifty-fold, for the smoke test.
	Small bool
	// TmpDir holds directory stores; OutDir receives trace-<workload>.json.
	// Both are created on demand; an empty OutDir writes no trace file.
	TmpDir string
	OutDir string
}

// minRounds is the fewest measured rounds a timed run accepts, so a
// median over rounds always has something to reject.
const minRounds = 4

// Report is everything one run measured.
type Report struct {
	Config   Config
	Spec     *Spec
	RoundOps int
	Rounds   int
	Tiles    int
	// EndToEnd comes from the untraced rounds. PerLayer is nil for an
	// untraced run. Times in both are at reference speed; Raw holds the
	// end-to-end metrics as the machine's own clock gave them.
	EndToEnd map[string]float64
	PerLayer map[string]float64
	Raw      map[string]float64
	// Speed is how many times slower than on the reference machine the
	// calibration kernel ran, median of its runs between the set-ups and
	// around every round.
	Speed float64
	// LayerSum is the layers' busy times as a share of operation wall
	// time in the traced rounds; it must be within 2 % of 1.
	LayerSum float64
	// Attempted and Failed count operations of the measured rounds plus
	// the end-of-run output checks.
	Attempted int
	Failed    int
	Problems  []string
}

// Correct reports whether every operation and every output check passed.
func (r *Report) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

type sample struct {
	kind opKind
	ns   int64
	ok   bool
}

type roundStats struct {
	traced     bool
	ops        int
	failed     int
	wall       float64 // seconds
	cpu        float64 // seconds of user+sys
	opNs       int64   // summed operation latency
	mallocs    float64
	allocBytes float64
	delta      counters
	calibMs    [2]float64 // the calibration kernel before and after the round
}

type runner struct {
	cfg   Config
	spec  *Spec
	rec   *Recorder
	st    stack
	calib *calibrator
	round int

	pools [nKinds][]float64 // latencies in ms of the untraced measured rounds
	sums  traceSums
	last  []Span // spans of the latest traced round
}

// Run executes one run of one workload.
func Run(cfg Config) (*Report, error) {
	base := SpecByName(cfg.Workload)
	if base == nil {
		return nil, fmt.Errorf("hdbench: unknown workload %q", cfg.Workload)
	}
	spec := *base
	if cfg.Small {
		spec.RoundOps = max(spec.RoundOps/50, 2)
		spec.WarmOps = 2
	}
	if cfg.Setups <= 0 {
		cfg.Setups = 7
	}
	if cfg.TmpDir == "" {
		cfg.TmpDir = os.TempDir()
	}
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("hdbench: scratch dir: %w", err)
	}

	r := &runner{cfg: cfg, spec: &spec, rec: newRecorder(), calib: newCalibrator(cfg.Small)}
	// The baseline of live_heap_mb: everything from here on — the world,
	// its tiles decoded and encoded, the stack — is memory the system's
	// own representations take.
	heapBefore := liveHeap()

	genStart := time.Now()
	world, err := spec.world(cfg.Small, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fx := newFixture(world)
	worldgen := time.Since(genStart).Seconds()
	e := &env{spec: &spec, fx: fx, rec: r.rec, seed: cfg.Seed, tmp: cfg.TmpDir, traced: cfg.Trace}

	// Set-ups: one discarded, then cfg.Setups timed. Each starts from the
	// generated world and ends after the stack's warm pass; the last one
	// built is the stack measured.
	var setups []float64
	calib := []float64{r.calib.run(spec.Vehicles)}
	for i := 0; i <= cfg.Setups; i++ {
		if r.st != nil {
			r.st.close()
		}
		runtime.GC()
		start := time.Now()
		st, err := spec.build(e)
		if err != nil {
			return nil, err
		}
		r.st = st
		if err := st.warm(); err != nil {
			st.close()
			return nil, err
		}
		if i > 0 {
			setups = append(setups, time.Since(start).Seconds())
		}
		calib = append(calib, r.calib.run(spec.Vehicles))
	}
	defer r.st.close()

	r.runRound(false) // warm-up round, discarded
	// Live heap is read here, a fixed number of operations after set-up,
	// so it does not depend on how many rounds the clock allows.
	heap := liveHeap() - heapBefore

	var rounds []roundStats
	var measured float64
	for i := 0; ; i++ {
		if cfg.Rounds > 0 && i >= cfg.Rounds {
			break
		}
		if cfg.Rounds <= 0 && measured >= cfg.Seconds && i >= minRounds {
			break
		}
		// A traced run alternates, so drift hits both kinds of round alike.
		rs := r.runRound(cfg.Trace && i%2 == 1)
		measured += rs.wall
		rounds = append(rounds, rs)
	}

	rep := &Report{
		Config: cfg, Spec: &spec, RoundOps: spec.RoundOps, Rounds: len(rounds), Tiles: len(fx.Keys),
		EndToEnd: map[string]float64{},
	}
	var total counters
	var ops, opNs, mallocs, allocBytes float64
	var tput, tputTraced, cpuPerOp []float64
	for _, rs := range rounds {
		rep.Attempted += rs.ops
		rep.Failed += rs.failed
		calib = append(calib, rs.calibMs[:]...)
		if rs.traced {
			tputTraced = append(tputTraced, float64(rs.ops)/rs.wall)
			continue
		}
		total = total.add(rs.delta)
		ops += float64(rs.ops)
		opNs += float64(rs.opNs)
		mallocs += rs.mallocs
		allocBytes += rs.allocBytes
		tput = append(tput, float64(rs.ops)/rs.wall)
		cpuPerOp = append(cpuPerOp, rs.cpu*1e3/float64(rs.ops))
	}
	failed, checked := r.st.finish()
	rep.Attempted += checked
	rep.Failed += failed
	if failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d end-of-run output checks failed", failed, checked))
	}

	var all []float64
	for k := range r.pools {
		sort.Float64s(r.pools[k])
		all = append(all, r.pools[k]...)
	}
	sort.Float64s(all)
	rep.Speed = Median(calib) / calibRefMs
	rep.Raw = map[string]float64{
		"setup_s":         Median(setups),
		"ops_per_s":       Median(tput),
		"op_p50_ms":       percentile(all, 50),
		"op_p99_ms":       percentile(all, 99),
		"cpu_ms_per_op":   Median(cpuPerOp),
		"allocs_per_op":   mallocs / ops,
		"alloc_kb_per_op": allocBytes / ops / 1024,
		"wire_kb_per_op":  total[cWireBytes] / ops / 1024,
		"live_heap_mb":    float64(heap) / (1 << 20),
	}
	for _, m := range EndToEnd {
		rep.EndToEnd[m.Name] = m.atReference(rep.Raw[m.Name], rep.Speed)
	}

	if cfg.Trace {
		rep.PerLayer = r.perLayer(fx, total, ops, opNs)
		for _, m := range PerLayer {
			rep.PerLayer[m.Name] = m.atReference(rep.PerLayer[m.Name], rep.Speed)
		}
		// The harness's own numbers stay on the machine's clock.
		rep.PerLayer["harness.worldgen_s"] = worldgen
		rep.PerLayer["harness.calib_ms"] = Median(calib)
		rep.PerLayer["harness.round_cv"] = cv(tput)
		rep.PerLayer["harness.trace_overhead_ratio"] = Median(tputTraced) / Median(tput)
		rep.PerLayer["harness.samples"] = float64(len(all))
		rep.LayerSum = r.layerSum()
		if rep.LayerSum < 0.98 || rep.LayerSum > 1.02 {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("layer busy times sum to %.3f of operation wall time", rep.LayerSum))
		}
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runRound prepares and runs one round of spec.RoundOps operations per
// vehicle. Only the part between the two clock reads is timed; stream
// generation, the GC and the two runs of the calibration kernel are
// outside it.
func (r *runner) runRound(traced bool) roundStats {
	n, vehicles := r.spec.RoundOps, r.spec.Vehicles
	r.round++
	r.st.prepare(n)
	ids := make([][]string, vehicles)
	samples := make([][]sample, vehicles)
	for v := range ids {
		ids[v] = make([]string, n)
		samples[v] = make([]sample, n)
		for i := range ids[v] {
			ids[v][i] = fmt.Sprintf("r%d-v%d-%d", r.round, v, i)
		}
	}
	runtime.GC()
	rs := roundStats{traced: traced, ops: n * vehicles}
	rs.calibMs[0] = r.calib.run(vehicles)
	r.rec.take() // late spans of earlier rounds belong to no operation of this one

	var ms0, ms1 runtime.MemStats
	before := r.st.counters()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	r.rec.on.Store(traced)
	start := time.Now()
	var wg sync.WaitGroup
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				kind, ok := r.st.do(v, i, ids[v][i])
				d := time.Since(t0)
				samples[v][i] = sample{kind: kind, ns: int64(d), ok: ok}
				if traced {
					s := int64(t0.Sub(r.rec.epoch))
					r.rec.record(Span{Name: layerClient, Op: kindNames[kind], Trace: ids[v][i], Start: s, End: s + int64(d)})
				}
			}
		}(v)
	}
	wg.Wait()
	rs.wall = time.Since(start).Seconds()
	r.rec.on.Store(false)
	rs.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	rs.calibMs[1] = r.calib.run(vehicles)
	rs.delta = r.st.counters().sub(before)
	rs.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	rs.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)

	for v := range samples {
		for _, s := range samples[v] {
			rs.opNs += s.ns
			if !s.ok {
				rs.failed++
			}
			if !traced && r.round > 1 {
				r.pools[s.kind] = append(r.pools[s.kind], float64(s.ns)/1e6)
			}
		}
	}
	if traced {
		spans := r.rec.take()
		resolveParents(spans, r.st.chain())
		r.sums.add(summarize(spans, r.st.chain()))
		r.last = spans
	}
	return rs
}

// layerSum adds the layers' busy times the way a wall clock sees them
// and divides by operation wall time. On a cluster the shard-side layers
// run in parallel, so the union of the leg intervals stands in for them.
func (r *runner) layerSum() float64 {
	if r.sums.opWall == 0 {
		return 0
	}
	sum := r.sums.busy[layerClient]
	if _, ok := r.sums.busy[layerCluster]; ok {
		sum += r.sums.busy[layerCluster] + r.sums.legWall
	} else {
		sum += r.sums.busy[layerResilience] + r.sums.busy[layerTileServer] + r.sums.busy[layerStore]
	}
	return float64(sum) / float64(r.sums.opWall)
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Layers   []string `json:"layers"`
	Ops      int      `json:"ops"`
	Spans    []Span   `json:"spans"`
}

// writeTrace writes the spans of the last traced round.
func (r *runner) writeTrace() error {
	if r.cfg.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.OutDir, 0o755); err != nil {
		return fmt.Errorf("hdbench: trace dir: %w", err)
	}
	data, err := json.Marshal(traceFile{
		Workload: r.spec.Name, Seed: r.cfg.Seed, Layers: r.st.chain(),
		Ops: r.spec.RoundOps * r.spec.Vehicles, Spans: r.last,
	})
	if err != nil {
		return fmt.Errorf("hdbench: encode trace: %w", err)
	}
	path := filepath.Join(r.cfg.OutDir, "trace-"+r.spec.Name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("hdbench: write trace: %w", err)
	}
	return nil
}

// liveHeap is HeapAlloc after two forced collections (the second frees
// what the first's finalizers released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cpu_ms_per_op then reads 0, which no bound accepts
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
