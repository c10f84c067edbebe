package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/core/coretest"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
)

// table is what the checks below need of one element kind.
type table[T any] struct {
	kind    string
	ids     func(*core.Map) []core.ID
	get     func(*core.Map, core.ID) (*T, error)
	equal   func(a, b *T) bool
	changed func(core.Changes) map[core.ID]struct{}
}

// checkTable fails unless succ holds, under the IDs next holds, private
// elements Equal to next's, and the parent's own element wherever ch
// names no change.
func checkTable[T any](t *testing.T, what string, tb table[T], parent, next, succ *core.Map, ch core.Changes) {
	t.Helper()
	ids := tb.ids(next)
	if got := tb.ids(succ); !slices.Equal(got, ids) {
		t.Fatalf("%s: %s IDs = %v, want %v", what, tb.kind, got, ids)
	}
	for _, id := range ids {
		want, _ := tb.get(next, id)
		got, err := tb.get(succ, id)
		if err != nil || !tb.equal(got, want) {
			t.Fatalf("%s: %s %d: successor holds %+v, want %+v", what, tb.kind, id, got, want)
		}
		if got == want {
			t.Fatalf("%s: %s %d: successor shares the element with the map it was made from", what, tb.kind, id)
		}
		if _, changed := tb.changed(ch)[id]; !changed {
			if old, _ := tb.get(parent, id); got != old {
				t.Fatalf("%s: %s %d did not change and is not the parent's own element", what, tb.kind, id)
			}
		}
	}
}

var (
	points = table[core.PointElement]{"point", (*core.Map).PointIDs, (*core.Map).Point, (*core.PointElement).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Points }}
	lines = table[core.LineElement]{"line", (*core.Map).LineIDs, (*core.Map).Line, (*core.LineElement).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Lines }}
	areas = table[core.AreaElement]{"area", (*core.Map).AreaIDs, (*core.Map).Area, (*core.AreaElement).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Areas }}
	lanelets = table[core.Lanelet]{"lanelet", (*core.Map).LaneletIDs, (*core.Map).Lanelet, (*core.Lanelet).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Lanelets }}
	bundles = table[core.LaneBundle]{"bundle", (*core.Map).BundleIDs, (*core.Map).Bundle, (*core.LaneBundle).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Bundles }}
	regs = table[core.RegulatoryElement]{"regulatory", (*core.Map).RegulatoryIDs, (*core.Map).Regulatory, (*core.RegulatoryElement).Equal,
		func(c core.Changes) map[core.ID]struct{} { return c.Regs }}
)

func sortedIDs[T any](els []*T, id func(*T) core.ID) []core.ID {
	out := make([]core.ID, len(els))
	for i, e := range els {
		out[i] = id(e)
	}
	slices.Sort(out)
	return out
}

// query asks a map the four spatial questions about one random box.
// Answers are sets (the trees of two maps need not agree on order) and,
// for the nearest lanelet, a distance.
func query(m *core.Map, rng *rand.Rand) (pts, lns, lls []core.ID, near float64) {
	c := geo.V2((rng.Float64()-0.5)*coretest.Extent, (rng.Float64()-0.5)*coretest.Extent)
	box := geo.NewAABB(c, c).Expand(rng.Float64() * coretest.Extent / 2)
	pts = sortedIDs(m.PointsIn(box, core.ClassUnknown), func(e *core.PointElement) core.ID { return e.ID })
	lns = sortedIDs(m.LinesIn(box, core.ClassUnknown), func(e *core.LineElement) core.ID { return e.ID })
	lls = sortedIDs(m.LaneletsIn(box), func(e *core.Lanelet) core.ID { return e.ID })
	near = math.Inf(1)
	if _, d, ok := m.NearestLanelet(c); ok {
		near = d
	}
	return
}

// TestSuccessorMatchesClone: along seeded chains of edits to every
// kind, with a rollback now and then, the successor of a snapshot is —
// element for element, ID list for ID list, query for query — the
// frozen clone it stands in for, made of the parent's own elements
// wherever nothing changed.
func TestSuccessorMatchesClone(t *testing.T) {
	const chains, steps = 1000, 6
	shared, total := 0, 0
	for seed := int64(0); seed < chains; seed++ {
		rng := rand.New(rand.NewSource(seed))
		work := coretest.Map(rng)
		snap := work.Clone()
		snap.FreezeIndexes()
		history := []*core.Map{snap}
		for step := 0; step < steps; step++ {
			if rng.Intn(8) == 0 {
				// A rollback: the lineage restarts from a copy that shares
				// nothing, as one decoded from the archive does.
				snap = history[rng.Intn(len(history))].Clone()
				snap.FreezeIndexes()
				work = snap.Clone()
			}
			next := coretest.Edit(work, rng)
			ch := next.ChangedFrom(snap)
			succ := snap.Successor(next, ch)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			want := next.Clone()
			want.FreezeIndexes()
			if succ.Name != want.Name || succ.Clock != want.Clock || succ.NumElements() != want.NumElements() {
				t.Fatalf("%s: successor is %q clock %d with %d elements, want %q clock %d with %d", what,
					succ.Name, succ.Clock, succ.NumElements(), want.Name, want.Clock, want.NumElements())
			}
			checkTable(t, what, points, snap, next, succ, ch)
			checkTable(t, what, lines, snap, next, succ, ch)
			checkTable(t, what, areas, snap, next, succ, ch)
			checkTable(t, what, lanelets, snap, next, succ, ch)
			checkTable(t, what, bundles, snap, next, succ, ch)
			checkTable(t, what, regs, snap, next, succ, ch)
			for q := 0; q < 4; q++ {
				qseed := rng.Int63()
				gp, gl, gll, gn := query(succ, rand.New(rand.NewSource(qseed)))
				wp, wl, wll, wn := query(want, rand.New(rand.NewSource(qseed)))
				if !slices.Equal(gp, wp) || !slices.Equal(gl, wl) || !slices.Equal(gll, wll) || gn != wn {
					t.Fatalf("%s query %d: successor answers %v %v %v %g, a frozen clone %v %v %v %g", what,
						qseed, gp, gl, gll, gn, wp, wl, wll, wn)
				}
			}
			if again := succ.ChangedFrom(snap); !reflect.DeepEqual(again, ch) {
				t.Fatalf("%s: successor differs from its parent by %+v, the map it was made from by %+v", what, again, ch)
			}
			total += succ.NumElements()
			shared += succ.NumElements() - len(ch.Points) - len(ch.Lines) - len(ch.Areas) - len(ch.Lanelets) - len(ch.Bundles) - len(ch.Regs)
			history = append(history, succ)
			snap, work = succ, next
		}
	}
	if shared*2 < total {
		t.Fatalf("fixture: only %d of %d elements went unchanged", shared, total)
	}
}

// TestSnapshotStableUnderLaterCommits: a snapshot encodes to the bytes
// it had when it was made after a thousand later commits of its
// lineage, each sharing most of its elements — while four goroutines
// query it and the newest one. Under -race a write to anything shared
// shows here.
func TestSnapshotStableUnderLaterCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	work := coretest.Map(rng)
	tip := work.Clone()
	tip.FreezeIndexes()
	var kept *core.Map
	var keptBytes []byte

	var mu sync.Mutex // guards newest
	newest := tip
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				m := newest
				mu.Unlock()
				query(m, rng)
				n := len(m.PointIDs()) + len(m.LineIDs()) + len(m.AreaIDs()) +
					len(m.LaneletIDs()) + len(m.BundleIDs()) + len(m.RegulatoryIDs())
				if n != m.NumElements() {
					t.Errorf("accessors list %d IDs, map holds %d elements", n, m.NumElements())
					return
				}
			}
		}(g)
	}
	for commit := 0; commit < 1100; commit++ {
		// The writer works in place on its private copy, like the fuser.
		for _, id := range work.PointIDs() {
			if rng.Intn(4) == 0 {
				_ = work.UpdatePoint(id, func(p *core.PointElement) { p.Pos.X += rng.NormFloat64() })
			}
		}
		if ids := work.LineIDs(); len(ids) > 0 && rng.Intn(3) == 0 {
			l, _ := work.Line(ids[rng.Intn(len(ids))])
			l.Geometry[0].Y += rng.NormFloat64()
			l.Meta.Version++
		}
		if ids := work.LaneletIDs(); len(ids) > 0 && rng.Intn(3) == 0 {
			l, _ := work.Lanelet(ids[rng.Intn(len(ids))])
			l.Centerline[0].X += rng.NormFloat64()
			l.Successors = append(l.Successors, core.ID(rng.Intn(50)))
		}
		if rng.Intn(5) == 0 {
			work.AddPoint(core.PointElement{Class: core.ClassPole, Pos: geo.V3(rng.Float64()*100, rng.Float64()*100, 2)})
		}
		if ids := work.PointIDs(); len(ids) > 4 && rng.Intn(5) == 0 {
			_ = work.RemovePoint(ids[rng.Intn(len(ids))])
		}
		tip = tip.Successor(work, work.ChangedFrom(tip))
		mu.Lock()
		newest = tip
		if commit == 99 {
			kept, keptBytes = tip, storage.EncodeBinary(tip)
			newest = kept // from here on the readers hammer the old snapshot
		}
		if commit >= 99 && commit%2 == 0 {
			newest = kept
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if !bytes.Equal(storage.EncodeBinary(kept), keptBytes) {
		t.Fatal("a snapshot changed under the 1000 commits that followed it")
	}
	if !bytes.Equal(storage.EncodeBinary(tip), storage.EncodeBinary(work)) {
		t.Fatal("the newest snapshot is not the working map it was made from")
	}
}

// TestChangedFromSharedElement: one object in both maps is unchanged
// without a look — even one that Equals nothing, itself included —
// while two objects always compare by value.
func TestChangedFromSharedElement(t *testing.T) {
	work := core.NewMap("w")
	id := work.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(math.NaN(), 0, 0)})
	work.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(1, 1, 0)})
	snap := work.Clone()
	snap.FreezeIndexes()
	if ch := work.ChangedFrom(snap); len(ch.Points) != 1 {
		t.Fatalf("a NaN point and its copy: changed points = %v, want just %d", ch.Points, id)
	}
	work.AddLine(core.LineElement{Class: core.ClassStopLine, Geometry: geo.Polyline{geo.V2(0, 0), geo.V2(1, 0)}})
	succ := snap.Successor(work, work.ChangedFrom(snap))
	if ch := succ.ChangedFrom(snap); len(ch.Points) != 1 || len(ch.Lines) != 1 {
		t.Fatalf("the successor cloned the NaN point and gained a line: changed = %+v", ch)
	}
	third := succ.Successor(work, work.ChangedFrom(succ))
	if p, _ := third.Point(id); p.Equal(p) {
		t.Fatal("fixture: the NaN point equals itself")
	}
	if ch := work.ChangedFrom(succ); len(ch.Points) != 1 {
		t.Fatalf("by value the NaN point always differs: changed points = %v", ch.Points)
	}
	// succ and third hold different clones of it, third and a successor
	// made without changes the same one.
	if ch := third.ChangedFrom(succ); len(ch.Points) != 1 {
		t.Fatalf("two clones of the NaN point: changed points = %v", ch.Points)
	}
	if ch := third.Successor(third, core.Changes{}).ChangedFrom(third); len(ch.Points)+len(ch.Lines) != 0 {
		t.Fatalf("a shared NaN point was looked at: changed = %+v", ch)
	}
}
