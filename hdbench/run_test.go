package hdbench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func smallConfig(t *testing.T, workload string) Config {
	return Config{
		Workload: workload, Seed: 3, Rounds: 2, Setups: 1, Small: true, Trace: true,
		TmpDir: t.TempDir(), OutDir: t.TempDir(),
	}
}

// Every workload at about 1/50 scale with tracing and every output check
// on: keeps the benchmark compiling and correct under plain `go test`,
// and checks the contrast each workload exists to show.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, spec := range Specs {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := smallConfig(t, spec.Name)
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct() {
				t.Fatalf("run incorrect: %d of %d failed, problems %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			if rep.Attempted < rep.Rounds*rep.RoundOps*spec.Vehicles {
				t.Errorf("attempted %d, want at least %d operations", rep.Attempted, rep.Rounds*rep.RoundOps*spec.Vehicles)
			}
			for _, m := range EndToEnd {
				if v, ok := rep.EndToEnd[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, v)
				}
			}
			if len(rep.PerLayer) != len(PerLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(rep.PerLayer), len(PerLayer))
			}
			for _, m := range PerLayer {
				if _, ok := rep.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if rep.LayerSum < 0.98 || rep.LayerSum > 1.02 {
				t.Errorf("layer busy times sum to %v of op wall, want within 2%% of 1", rep.LayerSum)
			}
			contrasts[spec.Name](t, rep.PerLayer)

			var out bytes.Buffer
			if err := rep.Print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last output line is not the result object: %v", err)
			}
			if !res.Correct || res.Attempted != rep.Attempted || len(res.Metrics) != len(PerLayer) {
				t.Errorf("result line: correct=%v attempted=%d metrics=%d", res.Correct, res.Attempted, len(res.Metrics))
			}

			var tf traceFile
			data, err := os.ReadFile(filepath.Join(cfg.OutDir, "trace-"+spec.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range tf.Spans {
				if s.Name == layerClient {
					roots++
				}
			}
			if roots != tf.Ops || tf.Ops != rep.RoundOps*spec.Vehicles {
				t.Errorf("trace file has %d operation roots, ops %d, want %d", roots, tf.Ops, rep.RoundOps*spec.Vehicles)
			}
		})
	}
}

// contrasts are what each workload exists to show; they must hold even
// at smoke scale.
var contrasts = map[string]func(t *testing.T, pl map[string]float64){
	"urban_hot": func(t *testing.T, pl map[string]float64) {
		if pl["resilience.cache_hit_ratio"] < 0.5 || pl["store.gets_per_op"] > 1 {
			t.Errorf("hit ratio %v, store gets/op %v: the caches are not doing the work",
				pl["resilience.cache_hit_ratio"], pl["store.gets_per_op"])
		}
	},
	"highway_cold": func(t *testing.T, pl map[string]float64) {
		if pl["store.gets_per_op"] < 1 || pl["store.keys_calls_per_op"] != 1 {
			t.Errorf("store gets/op %v, listings/op %v: the store is not doing the work",
				pl["store.gets_per_op"], pl["store.keys_calls_per_op"])
		}
	},
	"cluster_rw": func(t *testing.T, pl map[string]float64) {
		if pl["cluster.read_amplification"] < 2.5 || pl["client.put_tile_p50_ms"] <= 0 {
			t.Errorf("read amplification %v, put p50 %v", pl["cluster.read_amplification"], pl["client.put_tile_p50_ms"])
		}
	},
	"ingest_publish": func(t *testing.T, pl map[string]float64) {
		if pl["ingest.commits_per_op"] != 1 || pl["ingest.accepted_ratio"] != 1 ||
			pl["ingest.useful_put_ratio"] <= 0 || pl["ingest.useful_put_ratio"] > 1 {
			t.Errorf("commits/op %v accepted %v useful puts %v",
				pl["ingest.commits_per_op"], pl["ingest.accepted_ratio"], pl["ingest.useful_put_ratio"])
		}
	},
}

// Same seed, same inputs: the operation streams and therefore every count
// of a fixed-round run repeat exactly; another seed gives another stream.
func TestSameSeedSameStream(t *testing.T) {
	world, err := urbanWorld(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	fx := newFixture(world)
	corridor, err := highwayWorld(40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfx := newFixture(corridor)
	draw := func(s opStream) []readOp {
		ops := make([]readOp, 0, 200)
		for i := 0; i < 100; i++ {
			ops = append(ops, s.next(0), s.next(1))
		}
		return ops
	}
	for name, mk := range map[string]func(seed int64) opStream{
		"zipf":  func(seed int64) opStream { return newZipfStream(fx, seed, 2) },
		"sweep": func(seed int64) opStream { return newSweepStream(cfx, seed, 2, 2) },
		"mix":   func(seed int64) opStream { return newMixStream(fx, seed, 2) },
	} {
		a, b, c := draw(mk(5)), draw(mk(5)), draw(mk(6))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 5 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: streams from seeds 5 and 6 are identical", name)
		}
	}

	// Reads change nothing, so on the read-only workloads the bytes repeat
	// exactly however the two vehicles interleave. With uploads in the mix
	// a pull may see a tile one variant earlier or later, so there only
	// the request count is exact.
	for _, name := range []string{"urban_hot", "highway_cold", "cluster_rw"} {
		a, err := Run(smallConfig(t, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(smallConfig(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if name != "cluster_rw" && a.EndToEnd["wire_kb_per_op"] != b.EndToEnd["wire_kb_per_op"] {
			t.Errorf("%s: wire_kb_per_op %v then %v on the same seed", name,
				a.EndToEnd["wire_kb_per_op"], b.EndToEnd["wire_kb_per_op"])
		}
		if a.PerLayer["client.requests_per_op"] != b.PerLayer["client.requests_per_op"] {
			t.Errorf("%s: client.requests_per_op %v then %v on the same seed", name,
				a.PerLayer["client.requests_per_op"], b.PerLayer["client.requests_per_op"])
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"hdbench"}) {
		t.Errorf("paths = %v, want [hdbench]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(file.Workloads), len(Specs))
	}
	for i, w := range file.Workloads {
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, Specs[i].Name, Specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match code's %v", kind, g.Name, w.Bound)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, EndToEnd, true)
	compare("per-layer", file.PerLayer, PerLayer, false)
}
