package incremental

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
)

func signAt(m *core.Map, x, y float64) core.ID {
	return m.AddPoint(core.PointElement{
		Class: core.ClassSign, Pos: geo.V3(x, y, 2.2),
		Meta: core.Meta{Confidence: 0.9, Source: "base"},
	})
}

func TestNewFuserNil(t *testing.T) {
	if _, err := NewFuser(nil, Config{}); !errors.Is(err, ErrNoMap) {
		t.Errorf("err = %v", err)
	}
}

func TestFusionRefinesPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	m := core.NewMap("t")
	id := signAt(m, 10, 0) // true position (10.5, 0): the map is 0.5 m off
	f, err := NewFuser(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(20, 10))
	truth := geo.V2(10.5, 0)
	for i := 0; i < 30; i++ {
		obs := []Observation{{
			Class:  core.ClassSign,
			P:      truth.Add(geo.V2(rng.NormFloat64()*0.3, rng.NormFloat64()*0.3)),
			PosVar: 0.09, Stamp: uint64(i + 1),
		}}
		f.Observe(obs, view, uint64(i+1))
	}
	p, _ := m.Point(id)
	if d := p.Pos.XY().Dist(truth); d > 0.2 {
		t.Errorf("fused position error = %v m", d)
	}
	if f.PosVar(id) > 0.1 {
		t.Errorf("posterior variance = %v, want shrunk", f.PosVar(id))
	}
	if p.Meta.Confidence < 0.95 {
		t.Errorf("confidence = %v, want grown", p.Meta.Confidence)
	}
	if p.Meta.Observy < 30 {
		t.Errorf("observy = %d", p.Meta.Observy)
	}
}

// TestFuseAdvancesTileClock: whatever a fuse changes in a tile's bytes
// — a matched point moved, an unobserved one decayed — also moves the
// tile's content-derived clock forward, and the map's with it. The
// cluster orders two states of a tile by clock first; with equal
// clocks it falls back on comparing bytes, which says nothing about
// which is newer.
func TestFuseAdvancesTileClock(t *testing.T) {
	m := core.NewMap("t")
	signAt(m, 10, 0)
	signAt(m, 30, 0) // in view, never observed: decays
	f, err := NewFuser(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(40, 10))
	tile := func() (uint64, []byte) {
		t.Helper()
		tiles := storage.Tiler{}.Split(m, "serve")
		if len(tiles) != 1 {
			t.Fatalf("fixture: want one tile, have %d", len(tiles))
		}
		for _, sm := range tiles {
			return sm.Clock, storage.EncodeBinary(sm)
		}
		panic("unreachable")
	}
	clock, data := tile()
	for step, obs := range [][]Observation{
		{{Class: core.ClassSign, P: geo.V2(10.4, 0.1), PosVar: 0.09, Stamp: 1}}, // match: moves one, decays the other
		{}, // nothing observed: both decay
	} {
		mapClock := m.Clock
		f.Observe(obs, view, uint64(step+1))
		nextClock, nextData := tile()
		if string(nextData) == string(data) {
			t.Fatalf("step %d: fixture: fuse left the tile's bytes alone", step)
		}
		if nextClock <= clock {
			t.Errorf("step %d: tile bytes changed but its clock went %d -> %d", step, clock, nextClock)
		}
		if m.Clock <= mapClock {
			t.Errorf("step %d: map changed but its clock went %d -> %d", step, mapClock, m.Clock)
		}
		clock, data = nextClock, nextData
	}
}

func TestObserveDropsMalformedObservations(t *testing.T) {
	m := core.NewMap("t")
	id := signAt(m, 10, 0)
	f, err := NewFuser(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(20, 10))
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Observation{
		{Class: core.ClassSign, P: geo.V2(nan, 0), PosVar: 0.1, Stamp: 1},
		{Class: core.ClassSign, P: geo.V2(10, inf), PosVar: 0.1, Stamp: 1},
		{Class: core.ClassSign, P: geo.V2(10, 0), PosVar: nan, Stamp: 1},
		{Class: core.ClassSign, P: geo.V2(10, 0), PosVar: -inf, Stamp: 1},
		{Class: core.Class(200), P: geo.V2(10, 0), PosVar: 0.1, Stamp: 1},
	}
	// One good observation rides along so the element does not decay.
	obs := append(bad, Observation{Class: core.ClassSign, P: geo.V2(10, 0), PosVar: 0.1, Stamp: 1})
	f.Observe(obs, view, 1)
	if f.DroppedInvalid != len(bad) {
		t.Errorf("DroppedInvalid = %d, want %d", f.DroppedInvalid, len(bad))
	}
	p, err := m.Point(id)
	if err != nil {
		t.Fatal(err)
	}
	if !finite(p.Pos.X) || !finite(p.Pos.Y) {
		t.Errorf("malformed observation poisoned element position: %v", p.Pos)
	}
	if !finite(f.PosVar(id)) {
		t.Errorf("malformed observation poisoned Kalman variance: %v", f.PosVar(id))
	}
	if issues := m.Validate(); len(issues) != 0 {
		t.Errorf("map invalid after hostile batch: %v", issues)
	}
	if f.PendingCount() != 0 {
		t.Errorf("malformed observations entered the pending queue: %d", f.PendingCount())
	}
}

func TestDecayRemovesVanishedElement(t *testing.T) {
	m := core.NewMap("t")
	id := signAt(m, 10, 0)
	f, err := NewFuser(m, Config{DecayHalfLife: 2})
	if err != nil {
		t.Fatal(err)
	}
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(20, 10))
	// The sign is gone from the world: every pass observes nothing.
	for i := 0; i < 12; i++ {
		f.Observe(nil, view, uint64(i+1))
		if _, err := m.Point(id); err != nil {
			break
		}
	}
	if _, err := m.Point(id); !errors.Is(err, core.ErrNotFound) {
		t.Error("vanished element not removed")
	}
	if f.Removed != 1 {
		t.Errorf("Removed = %d", f.Removed)
	}
}

func TestOutOfViewElementsNotDecayed(t *testing.T) {
	m := core.NewMap("t")
	id := signAt(m, 1000, 0) // far outside the view
	f, _ := NewFuser(m, Config{DecayHalfLife: 1})
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(20, 10))
	for i := 0; i < 20; i++ {
		f.Observe(nil, view, uint64(i+1))
	}
	p, err := m.Point(id)
	if err != nil {
		t.Fatal("out-of-view element removed")
	}
	if p.Meta.Confidence < 0.89 {
		t.Errorf("out-of-view confidence decayed to %v", p.Meta.Confidence)
	}
}

func TestPendingPromotion(t *testing.T) {
	m := core.NewMap("t")
	f, _ := NewFuser(m, Config{PromoteObs: 3})
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(60, 10))
	newPos := geo.V2(30, 2)
	for i := 0; i < 2; i++ {
		f.Observe([]Observation{{Class: core.ClassSign, P: newPos, PosVar: 0.1, Stamp: uint64(i + 1)}}, view, uint64(i+1))
	}
	if f.PendingCount() != 1 || f.Promoted != 0 {
		t.Fatalf("pending=%d promoted=%d", f.PendingCount(), f.Promoted)
	}
	f.Observe([]Observation{{Class: core.ClassSign, P: newPos, PosVar: 0.1, Stamp: 3}}, view, 3)
	if f.Promoted != 1 || f.PendingCount() != 0 {
		t.Fatalf("pending=%d promoted=%d after third obs", f.PendingCount(), f.Promoted)
	}
	// The promoted element exists near the observed position.
	found := false
	for _, pid := range m.PointIDs() {
		p, _ := m.Point(pid)
		if p.Pos.XY().Dist(newPos) < 1 {
			found = true
		}
	}
	if !found {
		t.Error("promoted element missing")
	}
}

func TestDifferentClassNotMatched(t *testing.T) {
	m := core.NewMap("t")
	signAt(m, 10, 0)
	f, _ := NewFuser(m, Config{PromoteObs: 2})
	view := geo.NewAABB(geo.V2(0, -10), geo.V2(20, 10))
	// Pole observations at the sign's location must not fuse into the
	// sign.
	for i := 0; i < 2; i++ {
		f.Observe([]Observation{{Class: core.ClassPole, P: geo.V2(10, 0), PosVar: 0.1, Stamp: uint64(i + 1)}}, view, uint64(i+1))
	}
	if f.Promoted != 1 {
		t.Errorf("pole not promoted separately: %d", f.Promoted)
	}
}

func TestRasterChanges(t *testing.T) {
	onboard := core.NewMap("a")
	signAt(onboard, 10, 10)
	onboard.AddLine(core.LineElement{Class: core.ClassLaneBoundary,
		Geometry: geo.Polyline{geo.V2(0, 0), geo.V2(50, 0)}})
	observed := onboard.Clone()
	// World changed: sign removed, new boundary segment appeared.
	for _, id := range observed.PointIDs() {
		_ = observed.RemovePoint(id)
	}
	observed.AddLine(core.LineElement{Class: core.ClassLaneBoundary,
		Geometry: geo.Polyline{geo.V2(0, 5), geo.V2(50, 5)}})
	diffs, err := RasterChanges(onboard, observed, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("no raster changes detected")
	}
	var removedSign, addedBoundary bool
	for _, d := range diffs {
		if d.Removed != 0 {
			removedSign = true
		}
		if d.Added != 0 {
			addedBoundary = true
		}
	}
	if !removedSign || !addedBoundary {
		t.Errorf("diff kinds missing: %+v", diffs[:min(4, len(diffs))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRSUPreAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(282))
	// 500 raw observations of 5 true signs spread across 2 RSU cells.
	truths := []geo.Vec2{{X: 50, Y: 0}, {X: 120, Y: 5}, {X: 300, Y: -5}, {X: 420, Y: 0}, {X: 480, Y: 8}}
	var obs []Observation
	for i := 0; i < 500; i++ {
		tp := truths[i%len(truths)]
		obs = append(obs, Observation{
			Class:  core.ClassSign,
			P:      tp.Add(geo.V2(rng.NormFloat64()*0.5, rng.NormFloat64()*0.5)),
			PosVar: 0.25, Stamp: uint64(i),
		})
	}
	reports := PreAggregateRSU(obs, 250, 3)
	if len(reports) < 2 {
		t.Fatalf("reports = %d, want multiple RSUs", len(reports))
	}
	raw, agg := UploadSavings(reports)
	if raw != int64(500*(1+24+8)) {
		t.Errorf("raw bytes = %d", raw)
	}
	if agg*10 > raw {
		t.Errorf("aggregation saved too little: %d vs %d", agg, raw)
	}
	merged := CentralMerge(reports, 3)
	if len(merged) != len(truths) {
		t.Fatalf("merged = %d, want %d", len(merged), len(truths))
	}
	// Merged estimates sit near the truths.
	for _, tr := range truths {
		best := 1e9
		for _, m := range merged {
			if d := m.P.Dist(tr); d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("merged estimate %.2f m from truth %v", best, tr)
		}
	}
}
