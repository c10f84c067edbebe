package ingest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

// gateCity is a small signalised grid with a bundle added (the
// generator makes none), so that every kind of reference the gate
// follows is present.
func gateCity(t testing.TB, rows, cols int, seed int64) *core.Map {
	t.Helper()
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: rows, Cols: cols, Lanes: 2, TrafficLights: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ids := g.Map.LaneletIDs()
	g.Map.AddBundle(core.LaneBundle{RoadID: 1, Lanelets: ids[:2], RefLine: geo.Polyline{geo.V2(0, 0), geo.V2(10, 0)}})
	return g.Map
}

// violationsOf is what a commit's error says the gate found.
func violationsOf(err error) []GateViolation {
	var ge *GateError
	if errors.As(err, &ge) {
		return ge.Violations
	}
	return nil
}

// edgeElements lists the physical elements whose box reaches an edge of
// the map's: the ones that define its extent.
func edgeElements(m *core.Map) (points, lines, areas []core.ID) {
	box := m.Bounds()
	touches := func(b geo.AABB) bool {
		return b.Min.X == box.Min.X || b.Min.Y == box.Min.Y || b.Max.X == box.Max.X || b.Max.Y == box.Max.Y
	}
	for _, id := range m.PointIDs() {
		if p, _ := m.Point(id); touches(p.Bounds()) {
			points = append(points, id)
		}
	}
	for _, id := range m.LineIDs() {
		if l, _ := m.Line(id); touches(l.Bounds()) {
			lines = append(lines, id)
		}
	}
	for _, id := range m.AreaIDs() {
		if a, _ := m.Area(id); touches(a.Bounds()) {
			areas = append(areas, id)
		}
	}
	return points, lines, areas
}

// withoutRegulatory returns a copy of m without the regulatory element
// id — core offers no way to remove one. The copy allocates IDs after
// the largest one it holds, so an ID a removal freed may come back as
// another kind.
func withoutRegulatory(m *core.Map, id core.ID) *core.Map {
	out := core.NewMap(m.Name)
	for _, pid := range m.PointIDs() {
		p, _ := m.Point(pid)
		_ = out.RestorePoint(*p)
	}
	for _, lid := range m.LineIDs() {
		l, _ := m.Line(lid)
		_ = out.RestoreLine(*l)
	}
	for _, aid := range m.AreaIDs() {
		a, _ := m.Area(aid)
		_ = out.RestoreArea(*a)
	}
	for _, lid := range m.LaneletIDs() {
		l, _ := m.Lanelet(lid)
		_ = out.RestoreLanelet(*l)
	}
	for _, bid := range m.BundleIDs() {
		b, _ := m.Bundle(bid)
		_ = out.RestoreBundle(*b)
	}
	for _, rid := range m.RegulatoryIDs() {
		if rid != id {
			r, _ := m.Regulatory(rid)
			_ = out.RestoreRegulatory(*r)
		}
	}
	out.SetClock(m.Clock)
	return out
}

func pick(ids []core.ID, rng *rand.Rand) (core.ID, bool) {
	if len(ids) == 0 {
		return core.NilID, false
	}
	return ids[rng.Intn(len(ids))], true
}

// poison is a coordinate no map should hold.
func poison(rng *rand.Rand) float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
}

// gateEdits are the single steps of the chains below, each of the
// working map as a pipeline would write it. An edit returns the map to
// go on with (a new one only when it had to be rebuilt) and false when
// the map offered it no victim. Chains draw an edit in proportion to its
// weight: the edits a maintenance batch is made of more often than the
// ones the gate exists to refuse, so that chains commit as well.
var gateEdits = []struct {
	name   string
	weight int
	apply  func(m *core.Map, rng *rand.Rand) (*core.Map, bool)
}{
	{"move point", 6, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.PointIDs(), rng)
		return m, ok && m.UpdatePoint(id, func(p *core.PointElement) {
			p.Pos.X += rng.NormFloat64() * 2
			p.Pos.Y += rng.NormFloat64() * 2
		}) == nil
	}},
	{"add point", 3, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		box := m.Bounds()
		m.AddPoint(core.PointElement{
			Class: core.ClassPole,
			Pos: geo.V3(box.Min.X-60+rng.Float64()*(box.Max.X-box.Min.X+120),
				box.Min.Y-60+rng.Float64()*(box.Max.Y-box.Min.Y+120), 2),
			Meta: core.Meta{Confidence: 0.6},
		})
		return m, true
	}},
	{"remove point", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.PointIDs(), rng)
		return m, ok && m.RemovePoint(id) == nil
	}},
	{"perturb line vertex", 6, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.LineIDs(), rng)
		return m, ok && m.UpdateLine(id, func(l *core.LineElement) {
			g := l.Geometry.Clone()
			i := rng.Intn(len(g))
			g[i] = g[i].Add(geo.V2(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5))
			l.Geometry = g
		}) == nil
	}},
	{"remove bound line", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.LaneletIDs(), rng)
		if !ok {
			return m, false
		}
		l, _ := m.Lanelet(id)
		return m, m.RemoveLine(l.Right) == nil
	}},
	{"remove stop line", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.RegulatoryIDs(), rng)
		if !ok {
			return m, false
		}
		r, _ := m.Regulatory(id)
		return m, m.RemoveLine(r.StopLine) == nil
	}},
	{"remove device", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.RegulatoryIDs(), rng)
		if !ok {
			return m, false
		}
		r, _ := m.Regulatory(id)
		return m, len(r.Devices) > 0 && m.RemovePoint(r.Devices[0]) == nil
	}},
	{"remove referenced lanelet", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.LaneletIDs(), rng)
		return m, ok && m.RemoveLanelet(id) == nil
	}},
	{"remove regulatory element", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		id, ok := pick(m.RegulatoryIDs(), rng)
		if !ok {
			return m, false
		}
		return withoutRegulatory(m, id), true
	}},
	{"inject NaN or Inf", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		switch rng.Intn(3) {
		case 0:
			id, ok := pick(m.PointIDs(), rng)
			return m, ok && m.UpdatePoint(id, func(p *core.PointElement) { p.Pos.X = poison(rng) }) == nil
		case 1:
			id, ok := pick(m.LineIDs(), rng)
			return m, ok && m.UpdateLine(id, func(l *core.LineElement) {
				g := l.Geometry.Clone()
				g[rng.Intn(len(g))].Y = poison(rng)
				l.Geometry = g
			}) == nil
		}
		id, ok := pick(m.LaneletIDs(), rng)
		if !ok {
			return m, false
		}
		l, _ := m.Lanelet(id)
		cl := l.Centerline.Clone()
		cl[rng.Intn(len(cl))].X = poison(rng)
		l.Centerline = cl
		return m, true
	}},
	{"move past the margin", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		far := geo.V2(0, 260+rng.Float64()*100)
		if rng.Intn(2) == 0 {
			far = geo.V2(-far.Y, 0)
		}
		if rng.Intn(2) == 0 {
			id, ok := pick(m.PointIDs(), rng)
			return m, ok && m.UpdatePoint(id, func(p *core.PointElement) {
				p.Pos.X, p.Pos.Y = p.Pos.X+far.X, p.Pos.Y+far.Y
			}) == nil
		}
		id, ok := pick(m.LineIDs(), rng)
		return m, ok && m.UpdateLine(id, func(l *core.LineElement) {
			g := l.Geometry.Clone()
			for i := range g {
				g[i] = g[i].Add(far)
			}
			l.Geometry = g
		}) == nil
	}},
	{"edit an edge element", 6, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		centre := m.Bounds().Center()
		inward := func(v geo.Vec2) geo.Vec2 { return v.Add(centre.Sub(v).Scale(0.01 + rng.Float64()*0.02)) }
		points, lines, areas := edgeElements(m)
		if id, ok := pick(points, rng); ok && (len(lines)+len(areas) == 0 || rng.Intn(2) == 0) {
			return m, m.UpdatePoint(id, func(p *core.PointElement) {
				q := inward(p.Pos.XY())
				p.Pos.X, p.Pos.Y = q.X, q.Y
			}) == nil
		}
		if id, ok := pick(lines, rng); ok && (len(areas) == 0 || rng.Intn(2) == 0) {
			return m, m.UpdateLine(id, func(l *core.LineElement) {
				g := l.Geometry.Clone()
				for i := range g {
					g[i] = inward(g[i])
				}
				l.Geometry = g
			}) == nil
		}
		id, ok := pick(areas, rng)
		if !ok {
			return m, false
		}
		a, _ := m.Area(id)
		out := append(geo.Polygon(nil), a.Outline...)
		for i := range out {
			out[i] = inward(out[i])
		}
		a.Outline = out
		return m, true
	}},
	{"remove an edge element", 1, func(m *core.Map, rng *rand.Rand) (*core.Map, bool) {
		points, lines, _ := edgeElements(m)
		if id, ok := pick(points, rng); ok && (len(lines) == 0 || rng.Intn(2) == 0) {
			return m, m.RemovePoint(id) == nil
		}
		id, ok := pick(lines, rng)
		return m, ok && m.RemoveLine(id) == nil
	}},
}

// gateEdit draws one of gateEdits in proportion to its weight.
func gateEdit(rng *rand.Rand) int {
	total := 0
	for _, e := range gateEdits {
		total += e.weight
	}
	n := rng.Intn(total)
	for i, e := range gateEdits {
		if n -= e.weight; n < 0 {
			return i
		}
	}
	panic("unreachable")
}

// gateChain runs one seeded commit chain through a VersionStore — one
// chain in four on a directory-backed store, which it reopens now and
// then — and fails on the first commit whose gate verdict is not
// CheckCommit's against the served version, or after which the
// remembered box is not that version's Bounds. stats counts what the
// chain did.
func gateChain(t *testing.T, seed int64, base *core.Map, cfg GateConfig, stats map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("GATE_SEED=%d: %s", seed, fmt.Sprintf(format, args...))
	}
	vs, dir := NewVersionStore(cfg), ""
	if seed%4 == 0 {
		dir = t.TempDir()
		var err error
		if vs, err = OpenVersionDir(dir, cfg); err != nil {
			fail("%v", err)
		}
	}
	if _, err := vs.Commit(base, "genesis"); err != nil {
		fail("genesis: %v", err)
	}
	work := vs.Current()
	const steps = 8
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(12); {
		case r == 0 && vs.CurrentSeq() > 1:
			if _, err := vs.Rollback(1 + rng.Intn(min(2, vs.CurrentSeq()-1))); err != nil {
				fail("step %d: rollback: %v", step, err)
			}
			work = vs.Current()
			stats["rollback"]++
		case r == 1 && dir != "":
			var err error
			if vs, err = OpenVersionDir(dir, cfg); err != nil {
				fail("step %d: reopen: %v", step, err)
			}
			work = vs.Current()
			stats["reopen"]++
		}
		var names []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			e := gateEdits[gateEdit(rng)]
			var ok bool
			if work, ok = e.apply(work, rng); ok {
				names = append(names, e.name)
				stats[e.name]++
			}
		}
		parent, delta := vs.Frozen(), vs.ok
		want := CheckCommit(parent, work, cfg)
		_, err := vs.Commit(work, fmt.Sprint("step ", step))
		got := violationsOf(err)
		if err != nil && got == nil {
			fail("step %d %v: %v", step, names, err)
		}
		if !reflect.DeepEqual(got, want) {
			fail("step %d %v (from the parent: %v): the store's gate found\n%v\nCheckCommit finds\n%v", step, names, delta, got, want)
		}
		if !delta {
			stats["full gate"]++
		}
		if err != nil {
			stats["rejected"]++
			if hasInvariant(got, "bounds") {
				stats["rejected for bounds"]++
			}
			if rng.Intn(4) != 0 {
				work = vs.Current() // what the service does
			}
			continue
		}
		stats["committed"]++
		frozen := vs.Frozen()
		if !vs.ok {
			fail("step %d: a committed version left nothing remembered", step)
		}
		if box := frozen.Bounds(); vs.box != box {
			fail("step %d %v: remembered box %v, the version's is %v", step, names, vs.box, box)
		}
		if delta {
			was := parent.Bounds()
			switch now := frozen.Bounds(); {
			case now.Min.X > was.Min.X || now.Min.Y > was.Min.Y || now.Max.X < was.Max.X || now.Max.Y < was.Max.Y:
				stats["box shrank"]++
			case now != was:
				stats["box grew"]++
			}
		}
	}
}

// TestGateFromParentMatchesFull: through 1 000 seeded commit chains of
// every kind of edit — dangling references, NaN and infinite
// coordinates, geometry pushed past the margin, the elements that define
// the box moved or removed — with rollbacks and reopens between them,
// the gate a VersionStore runs from what it kept of the served version
// gives, violation for violation, what the full CheckCommit gives, and
// the box it keeps is always the served version's Bounds. A failure
// names its seed; GATE_SEED=<n> replays that chain alone.
func TestGateFromParentMatchesFull(t *testing.T) {
	base := gateCity(t, 2, 2, 25)
	// The displacement check is two thirds of a full gate here and is
	// made the same way whether the gate starts from the parent or not:
	// it is off, so that the chains can be many.
	cfg := GateConfig{MaxDisplacement: -1, Metrics: obs.NewRegistry()}
	stats := make(map[string]int)
	if s := os.Getenv("GATE_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("GATE_SEED=%q: %v", s, err)
		}
		gateChain(t, seed, base, cfg, stats)
		t.Logf("%v", stats)
		return
	}
	for seed := int64(0); seed < 1000; seed++ {
		gateChain(t, seed, base, cfg, stats)
	}
	t.Logf("%v", stats)
	for _, e := range gateEdits {
		if stats[e.name] == 0 {
			t.Errorf("edit %q never found a victim", e.name)
		}
	}
	for _, what := range []string{"rollback", "reopen", "full gate", "rejected", "rejected for bounds", "committed", "box shrank", "box grew"} {
		if stats[what] == 0 {
			t.Errorf("no chain ever %s", what)
		}
	}
}

// FuzzGateDelta decodes two arbitrary maps and commits one after the
// other: whatever the two hold, the store's gate — starting from what it
// kept when the first passed — must give the full CheckCommit's verdict,
// and a second version that passes must leave the box of its own
// Bounds remembered.
func FuzzGateDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	if g, err := worldgen.GenerateGrid(worldgen.GridParams{Rows: 2, Cols: 2, Lanes: 1, TrafficLights: true}, rng); err == nil {
		pristine := storage.EncodeBinary(g.Map)
		f.Add(pristine, pristine)
		for _, kind := range worldgen.CorruptionKinds() {
			m := g.Map.Clone()
			if _, ok := worldgen.ApplyCorruption(m, kind, rng); ok {
				f.Add(pristine, storage.EncodeBinary(m))
			}
		}
		for i := 0; i < 4; i++ {
			m := g.Map.Clone()
			for n := 0; n < 3; n++ {
				m, _ = gateEdits[gateEdit(rng)].apply(m, rng)
			}
			f.Add(pristine, storage.EncodeBinary(m))
		}
	}
	// A cap small enough for the fuzzer to reach, and no displacement
	// check: it is quadratic, and made the same way on both sides.
	cfg := GateConfig{MaxDisplacement: -1, Metrics: obs.NewRegistry(), Verify: mapverify.Config{MaxViolations: 48}}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		parent, err := storage.DecodeBinary(a)
		if err != nil {
			return
		}
		next, err := storage.DecodeBinary(b)
		if err != nil {
			return
		}
		vs := NewVersionStore(cfg)
		if _, err := vs.Commit(parent, "parent"); err != nil {
			return // the gate refuses it as a first version: nothing to start from
		}
		want := CheckCommit(vs.Frozen(), next, cfg)
		_, err = vs.Commit(next, "next")
		if got := violationsOf(err); !reflect.DeepEqual(got, want) {
			t.Fatalf("the store's gate found\n%v\nCheckCommit finds\n%v", got, want)
		}
		if err == nil && vs.box != vs.Frozen().Bounds() {
			t.Fatalf("remembered box %v, the version's is %v", vs.box, vs.Frozen().Bounds())
		}
	})
}

// TestGateAllocBudget: the gate's cost follows the commit, not the map.
// The same batch — a few signs re-observed at one intersection — is
// gated from the parent on a 9×9 city and on a 13×13 one of more than
// twice the elements, and allocates the same number of times and the
// same bytes within a small constant on both.
func TestGateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	type cost struct{ allocs, bytes float64 }
	measure := func(rows int) (cost, int) {
		g, err := worldgen.GenerateGrid(worldgen.GridParams{Rows: rows, Cols: rows, Lanes: 2, TrafficLights: true},
			rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := GateConfig{MaxDisplacement: -1, Metrics: obs.NewRegistry()}
		vs := NewVersionStore(cfg)
		if _, err := vs.Commit(g.Map, "genesis"); err != nil {
			t.Fatal(err)
		}
		work := vs.Current()
		for _, id := range work.PointIDs()[:8] {
			_ = work.UpdatePoint(id, func(p *core.PointElement) { p.Pos.X += 0.01 })
		}
		parent := vs.Frozen()
		ch := work.ChangedFrom(parent)
		gate := func() {
			if viol, _ := checkCommit(parent, vs.passed, work, ch, vs.gate); len(viol) != 0 {
				t.Fatal(viol)
			}
		}
		gate()
		const runs = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			gate()
		}
		runtime.ReadMemStats(&after)
		return cost{
			allocs: float64(after.Mallocs-before.Mallocs) / runs,
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
		}, work.NumElements()
	}
	small, n := measure(9)
	large, m := measure(13)
	t.Logf("gate of the same batch: %d elements %.0f allocations %.0f B; %d elements %.0f allocations %.0f B",
		n, small.allocs, small.bytes, m, large.allocs, large.bytes)
	if m < 2*n {
		t.Fatalf("fixture: %d elements against %d, want twice as many", m, n)
	}
	if d := math.Abs(large.allocs - small.allocs); d > 2 {
		t.Errorf("the gate allocates %.0f times on the larger city, %.0f on the smaller", large.allocs, small.allocs)
	}
	if d := math.Abs(large.bytes - small.bytes); d > 1024 {
		t.Errorf("the gate allocates %.0f B on the larger city, %.0f B on the smaller", large.bytes, small.bytes)
	}
}
