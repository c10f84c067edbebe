package mapverify_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

// sameAsFull fails unless the pass that starts from the parent's report
// returns exactly what a full pass over next returns, and hands that
// report back for the next step of a chain.
func sameAsFull(t testing.TB, parent *core.Map, prev *mapverify.Report, next *core.Map, cfg mapverify.Config, what string) *mapverify.Report {
	t.Helper()
	var dirty *core.Closure
	if parent != nil {
		dirty = next.ClosureFrom(parent, next.ChangedFrom(parent))
	}
	got := mapverify.VerifyFrom(prev, next, dirty, cfg)
	want := mapverify.Verify(next, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: report from the parent differs from the full pass\n got: %d errors %d warnings truncated=%v %v\nwant: %d errors %d warnings truncated=%v %v",
			what, got.Errors, got.Warnings, got.Truncated, got.Violations,
			want.Errors, want.Warnings, want.Truncated, want.Violations)
	}
	return got
}

// city is a small grid with everything the rules follow a reference
// to: bounds, successors, neighbours, regulatory elements with devices
// and governed lanelets, and (added here — the generator makes none) a
// bundle.
func city(t testing.TB, seed int64) *core.Map {
	t.Helper()
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: 2, Cols: 2, Lanes: 2, TrafficLights: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ids := g.Map.LaneletIDs()
	g.Map.AddBundle(core.LaneBundle{RoadID: 1, Lanelets: ids[:2], RefLine: geo.Polyline{geo.V2(0, 0), geo.V2(10, 0)}})
	return g.Map
}

// TestVerifyFromMatchesFullOnCorruptions walks every worldgen
// corruption class in both directions: pristine parent to corrupted
// child, and corrupted parent to repaired child.
func TestVerifyFromMatchesFullOnCorruptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pristine := city(t, 7)
	clean := mapverify.Verify(pristine, mapverify.Config{})
	for _, kind := range worldgen.CorruptionKinds() {
		for trial := 0; trial < 8; trial++ {
			what := fmt.Sprintf("%s trial %d", kind, trial)
			bad := pristine.Clone()
			if _, ok := worldgen.ApplyCorruption(bad, kind, rng); !ok {
				t.Fatalf("%s: no victim", what)
			}
			rep := sameAsFull(t, pristine, clean, bad, mapverify.Config{}, what)
			if rep.Clean() {
				t.Fatalf("%s: corruption not reported", what)
			}
			sameAsFull(t, bad, rep, pristine.Clone(), mapverify.Config{}, what+" repaired")
		}
	}
}

// edits are the single steps of the random sequences below. Each
// returns false when the map offers it no victim.
var edits = []struct {
	name  string
	apply func(m *core.Map, rng *rand.Rand) bool
}{
	{"move point", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.PointIDs()
		if len(ids) == 0 {
			return false
		}
		return m.UpdatePoint(ids[rng.Intn(len(ids))], func(p *core.PointElement) {
			p.Pos.X += rng.NormFloat64() * 80
			p.Pos.Y += rng.NormFloat64() * 80
		}) == nil
	}},
	{"add point", func(m *core.Map, rng *rand.Rand) bool {
		m.AddPoint(core.PointElement{
			Class: core.Class(rng.Intn(20)), // sometimes outside the taxonomy
			Pos:   geo.V3(rng.Float64()*300, rng.Float64()*300, 2),
		})
		return true
	}},
	{"remove point", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.PointIDs() // a regulatory element's device, often
		return len(ids) > 0 && m.RemovePoint(ids[rng.Intn(len(ids))]) == nil
	}},
	{"perturb line vertex", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.LineIDs()
		if len(ids) == 0 {
			return false
		}
		l, _ := m.Line(ids[rng.Intn(len(ids))])
		g := l.Geometry.Clone()
		i := rng.Intn(len(g))
		g[i] = g[i].Add(geo.V2(rng.NormFloat64()*4, rng.NormFloat64()*4))
		l.Geometry = g
		return true
	}},
	{"rewire successor", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.LaneletIDs()
		if len(ids) < 2 {
			return false
		}
		l, _ := m.Lanelet(ids[rng.Intn(len(ids))])
		switch to := ids[rng.Intn(len(ids))]; {
		case len(l.Successors) > 0 && rng.Intn(3) == 0:
			l.Successors = l.Successors[: len(l.Successors)-1 : len(l.Successors)-1]
		case len(l.Successors) > 0 && rng.Intn(2) == 0:
			s := append([]core.ID(nil), l.Successors...)
			s[rng.Intn(len(s))] = to
			l.Successors = s
		default:
			l.Successors = append(l.Successors[:len(l.Successors):len(l.Successors)], to)
		}
		return true
	}},
	{"change speed limit", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.LaneletIDs()
		if len(ids) == 0 {
			return false
		}
		l, _ := m.Lanelet(ids[rng.Intn(len(ids))])
		l.SpeedLimit = []float64{0, 3, 14, 60, 400, -1}[rng.Intn(6)]
		return true
	}},
	{"retarget device", func(m *core.Map, rng *rand.Rand) bool {
		regs, points := m.RegulatoryIDs(), m.PointIDs()
		if len(regs) == 0 || len(points) == 0 {
			return false
		}
		r, _ := m.Regulatory(regs[rng.Intn(len(regs))])
		r.Devices = []core.ID{points[rng.Intn(len(points))]}
		if rng.Intn(4) == 0 {
			r.Lanelets = nil
		}
		return true
	}},
	{"remove bound line", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.LaneletIDs()
		if len(ids) == 0 {
			return false
		}
		l, _ := m.Lanelet(ids[rng.Intn(len(ids))])
		return m.RemoveLine(l.Left) == nil
	}},
	{"remove stop line", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.RegulatoryIDs()
		if len(ids) == 0 {
			return false
		}
		r, _ := m.Regulatory(ids[rng.Intn(len(ids))])
		return m.RemoveLine(r.StopLine) == nil
	}},
	{"remove referenced lanelet", func(m *core.Map, rng *rand.Rand) bool {
		ids := m.LaneletIDs() // a successor, neighbour, bundle member or governed lanelet of others
		return len(ids) > 0 && m.RemoveLanelet(ids[rng.Intn(len(ids))]) == nil
	}},
	{"inject NaN", func(m *core.Map, rng *rand.Rand) bool {
		if ids := m.PointIDs(); len(ids) > 0 && rng.Intn(2) == 0 {
			p, _ := m.Point(ids[rng.Intn(len(ids))])
			p.Pos.Y = math.NaN()
			return true
		}
		ids := m.LaneletIDs()
		if len(ids) == 0 {
			return false
		}
		l, _ := m.Lanelet(ids[rng.Intn(len(ids))])
		cl := l.Centerline.Clone()
		cl[rng.Intn(len(cl))].X = math.NaN()
		l.Centerline = cl
		return true
	}},
}

// TestVerifyFromMatchesFullOnRandomEdits chains seeded random edit
// sequences: each step's report is the next step's starting point, so
// a finding carried wrongly once would be carried on. Every step is
// also compared with a full pass.
func TestVerifyFromMatchesFullOnRandomEdits(t *testing.T) {
	const sequences, steps = 1000, 6
	base := city(t, 3)
	clean := mapverify.Verify(base, mapverify.Config{})
	used := make(map[string]int)
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		parent, prev := base, clean
		for step := 0; step < steps; step++ {
			next := parent.Clone()
			var names []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if e := edits[rng.Intn(len(edits))]; e.apply(next, rng) {
					names = append(names, e.name)
					used[e.name]++
				}
			}
			prev = sameAsFull(t, parent, prev, next, mapverify.Config{},
				fmt.Sprintf("sequence %d step %d %v", seq, step, names))
			parent = next
		}
	}
	for _, e := range edits {
		if used[e.name] == 0 {
			t.Errorf("edit %q never found a victim", e.name)
		}
	}
}

// TestVerifyFromFallsBack covers the starting points the pass cannot
// use: a report the cap truncated, a result the cap would truncate,
// and a map crossing the one-lanelet line. What comes back is the full
// pass either way.
func TestVerifyFromFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pristine := city(t, 5)
	bad := pristine.Clone()
	for i := 0; i < 12; i++ {
		edits[rng.Intn(len(edits))].apply(bad, rng)
	}
	worse := bad.Clone()
	for i := 0; i < 4; i++ {
		edits[rng.Intn(len(edits))].apply(worse, rng)
	}
	full := mapverify.Verify(bad, mapverify.Config{})
	if full.Truncated || len(full.Violations) < 6 {
		t.Fatalf("fixture: want 6+ untruncated violations, have %d (truncated=%v)", len(full.Violations), full.Truncated)
	}

	tight := mapverify.Config{MaxViolations: len(full.Violations) - 2}
	truncated := mapverify.Verify(bad, tight)
	if !truncated.Truncated {
		t.Fatal("fixture: tight cap did not truncate")
	}
	sameAsFull(t, bad, truncated, worse, tight, "truncated parent report")
	sameAsFull(t, pristine, mapverify.Verify(pristine, tight), bad, tight, "result over the cap")
	exact := mapverify.Config{MaxViolations: len(full.Violations)}
	if rep := sameAsFull(t, pristine, mapverify.Verify(pristine, exact), bad, exact, "result exactly at the cap"); rep.Truncated {
		t.Fatal("a report exactly at the cap is not truncated")
	}

	// A truncated report is no starting point even when the result fits
	// under the cap: it lacks the findings the cap dropped.
	six := core.NewMap("six")
	var ids []core.ID
	for i := 0; i < 6; i++ {
		ids = append(ids, six.AddPoint(core.PointElement{Class: core.Class(200)}))
	}
	three := six.Clone()
	for _, id := range ids[:3] {
		if err := three.RemovePoint(id); err != nil {
			t.Fatal(err)
		}
	}
	four := mapverify.Config{MaxViolations: 4}
	if rep := sameAsFull(t, six, mapverify.Verify(six, four), three, four, "truncated parent, result under the cap"); rep.Truncated || rep.Errors != 3 {
		t.Fatalf("want the 3 remaining findings untruncated, have %d (truncated=%v)", rep.Errors, rep.Truncated)
	}

	// Few new findings, but together with the carried ones over the cap.
	worse = bad.Clone()
	for i := 0; i < 3; i++ {
		worse.AddPoint(core.PointElement{Class: core.Class(200)})
	}
	roomy := mapverify.Config{MaxViolations: len(full.Violations) + 1}
	if rep := sameAsFull(t, bad, mapverify.Verify(bad, roomy), worse, roomy, "carried plus new over the cap"); !rep.Truncated {
		t.Fatal("fixture: carried plus new findings did not reach the cap")
	}

	one := core.NewMap("one")
	lane(t, one, geo.Polyline{geo.V2(0, 0), geo.V2(40, 0)}, 3.5, 10)
	two := one.Clone()
	lane(t, two, geo.Polyline{geo.V2(0, 50), geo.V2(40, 50)}, 3.5, 10)
	rep := sameAsFull(t, one, mapverify.Verify(one, mapverify.Config{}), two, mapverify.Config{}, "second lanelet appears")
	if rep.CountRule(mapverify.RuleOrphan) != 2 {
		t.Fatalf("two unconnected lanelets: want 2 orphan warnings, have %d", rep.CountRule(mapverify.RuleOrphan))
	}
	sameAsFull(t, two, rep, one, mapverify.Config{}, "second lanelet goes")

	sameAsFull(t, nil, nil, bad, mapverify.Config{}, "no parent")
	sameAsFull(t, pristine, nil, bad, mapverify.Config{}, "no parent report")
}

// TestVerifyFromSeesReferenceAppear: a lanelet that did not change
// loses its dangling-reference finding when the regulatory element it
// names comes into being (no edit above can do that: the map has no
// way to remove one).
func TestVerifyFromSeesReferenceAppear(t *testing.T) {
	parent := core.NewMap("parent")
	a := lane(t, parent, geo.Polyline{geo.V2(0, 0), geo.V2(40, 0)}, 3.5, 10)
	b := lane(t, parent, geo.Polyline{geo.V2(40, 0), geo.V2(80, 0)}, 3.5, 10)
	if err := parent.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	next := parent.Clone()
	reg := next.AddRegulatory(core.RegulatoryElement{Kind: core.RegStop, Lanelets: []core.ID{a}})
	for _, m := range []*core.Map{parent, next} {
		l, _ := m.Lanelet(a)
		l.Regulatory = []core.ID{reg}
	}
	prev := mapverify.Verify(parent, mapverify.Config{})
	if prev.CountRule(mapverify.RuleDanglingRef) != 1 {
		t.Fatalf("fixture: want 1 dangling reference in the parent, have %v", prev.Violations)
	}
	if rep := sameAsFull(t, parent, prev, next, mapverify.Config{}, "regulatory element appears"); !rep.Clean() {
		t.Fatalf("dangling reference carried over: %v", rep.Violations)
	}
}

// FuzzVerifyDelta decodes two arbitrary maps and takes one for the
// other's parent: nothing relates them, IDs may repeat across element
// kinds, references point anywhere — and the pass from the parent must
// still return the full pass's report, under a cap small enough for
// the fuzzer to reach.
func FuzzVerifyDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	if g, err := worldgen.GenerateGrid(worldgen.GridParams{Rows: 1, Cols: 2, Lanes: 1, TrafficLights: true}, rng); err == nil {
		pristine := storage.EncodeBinary(g.Map)
		f.Add(pristine, pristine)
		for _, kind := range worldgen.CorruptionKinds() {
			m := g.Map.Clone()
			if _, ok := worldgen.ApplyCorruption(m, kind, rng); ok {
				f.Add(pristine, storage.EncodeBinary(m))
				f.Add(storage.EncodeBinary(m), pristine)
			}
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		parent, err := storage.DecodeBinary(a)
		if err != nil {
			return
		}
		next, err := storage.DecodeBinary(b)
		if err != nil {
			return
		}
		cfg := mapverify.Config{MaxViolations: 48}
		sameAsFull(t, parent, mapverify.Verify(parent, cfg), next, cfg, "fuzz")
	})
}
