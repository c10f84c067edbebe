package hdbench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Value is one metric as the result line carries it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as the last line of its output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Result selects the metric set the run was asked for: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (r *Report) Result() Result {
	defs, vals := EndToEnd, r.EndToEnd
	if r.Config.Trace {
		defs, vals = PerLayer, r.PerLayer
	}
	res := Result{
		Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]Value, len(defs)),
	}
	for _, m := range defs {
		res.Metrics[m.Name] = Value{Value: vals[m.Name], Unit: m.Unit}
	}
	return res
}

// Print writes the run-environment block, every metric as
// "name value unit", and the result object as the last line.
func (r *Report) Print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s: %s\n", r.Spec.Name, r.Spec.Why)
	fmt.Fprintf(w, "# env commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		Commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "# run seed=%d vehicles=%d ops_per_vehicle_per_round=%d rounds=%d (+1 warm-up) setups=%d (+1 discarded) tiles=%d traced=%v\n",
		r.Config.Seed, r.Spec.Vehicles, r.RoundOps, r.Rounds, r.Config.Setups, r.Tiles, r.Config.Trace)
	fmt.Fprintf(w, "# speed: the calibration kernel took %.3f times its %g ms on the reference machine; times below are the machine's divided by that\n",
		r.Speed, calibRefMs)
	if r.Config.Trace {
		fmt.Fprintln(w, "# end-to-end numbers below come from the untraced half of the rounds; the result line carries the per-layer metrics")
	}
	for _, m := range EndToEnd {
		fmt.Fprintf(w, "%s %.6g %s", m.Name, r.EndToEnd[m.Name], m.Unit)
		if raw := r.Raw[m.Name]; raw != r.EndToEnd[m.Name] {
			fmt.Fprintf(w, "   # machine time: %.6g", raw)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "failed_op_ratio %.6g ratio\n", float64(r.Failed)/float64(max(r.Attempted, 1)))
	if r.Config.Trace {
		for _, m := range PerLayer {
			fmt.Fprintf(w, "%s %.6g %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "# layer busy times sum to %.4f of operation wall time\n", r.LayerSum)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(r.Result())
	if err != nil {
		return fmt.Errorf("hdbench: encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Commit is the revision the binary was built from; hdbench/run.sh sets it
// with -ldflags -X when the checkout is a git repository.
var Commit = "unknown"

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
