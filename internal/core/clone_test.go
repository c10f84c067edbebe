package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hdmaps/internal/geo"
)

// fill sets every exported field under v to a non-zero value that
// depends on salt, so two fills with different salts differ everywhere.
func fill(v reflect.Value, salt int) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(3 + salt))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(3 + salt))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5 + float64(salt))
	case reflect.String:
		v.SetString(fmt.Sprint("s", salt))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), salt+i)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(key, salt)
		fill(val, salt)
		v.SetMapIndex(key, val)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fill(f, salt)
			}
		}
	default:
		panic(fmt.Sprintf("fill: no rule for %s; teach it the new field's kind", v.Kind()))
	}
}

// walk visits, in step, the exported values under a and b: structs
// field by field, slices as themselves and through their first
// element, everything else as a leaf.
func walk(path string, a, b reflect.Value, visit func(path string, a, b reflect.Value)) {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Field(i).CanSet() {
				walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), visit)
			}
		}
	case reflect.Slice:
		visit(path, a, b)
		walk(path+"[0]", a.Index(0), b.Index(0), visit)
	default:
		visit(path, a, b)
	}
}

// checkElement fails when a field of T is missing from T's clone or
// from its Equal: a field clone does not copy shows as shared storage
// (or as a difference), a field Equal does not read shows as two
// elements that differ in it alone and still compare equal.
func checkElement[T any, P element[T]](t *testing.T) {
	t.Helper()
	full := new(T)
	fill(reflect.ValueOf(full).Elem(), 1)
	name := reflect.TypeOf(*full).Name()
	c := P(full).clone()
	if !P(full).Equal(c) || !P(c).Equal(full) {
		t.Errorf("%s: a clone does not Equal its original", name)
	}
	if !reflect.DeepEqual(full, c) {
		t.Errorf("%s: clone differs from its original:\n%+v\n%+v", name, *full, *c)
	}
	walk(name, reflect.ValueOf(full).Elem(), reflect.ValueOf(c).Elem(), func(path string, a, b reflect.Value) {
		switch a.Kind() {
		case reflect.Slice, reflect.Map:
			if a.Pointer() == b.Pointer() {
				t.Errorf("%s: clone shares its storage with the original", path)
			}
			if a.Kind() == reflect.Slice {
				return // compared through its first element and, below, its length
			}
		}
		saved := reflect.New(b.Type()).Elem()
		saved.Set(b)
		fill(b, 2)
		if P(full).Equal(c) {
			t.Errorf("%s: Equal does not compare it", path)
		}
		b.Set(saved)
	})
	walk(name, reflect.ValueOf(full).Elem(), reflect.ValueOf(c).Elem(), func(path string, a, b reflect.Value) {
		if a.Kind() != reflect.Slice {
			return
		}
		saved := reflect.New(b.Type()).Elem()
		saved.Set(b)
		b.Set(b.Slice(0, 1))
		if P(full).Equal(c) {
			t.Errorf("%s: Equal does not compare its length", path)
		}
		b.Set(saved)
	})
	if !P(full).Equal(c) {
		t.Errorf("%s: clone not restored by the test", name)
	}
}

func TestCloneAndEqualCoverEveryField(t *testing.T) {
	checkElement[PointElement](t)
	checkElement[LineElement](t)
	checkElement[AreaElement](t)
	checkElement[Lanelet](t)
	checkElement[LaneBundle](t)
	checkElement[RegulatoryElement](t)
}

func TestEqualNaNIsNeverEqual(t *testing.T) {
	p := &PointElement{ID: 1, Pos: geo.V3(nan(), 0, 0)}
	if p.Equal(p.clone()) {
		t.Error("a point with a NaN coordinate compares equal")
	}
	l := &Lanelet{ID: 2, Centerline: geo.Polyline{geo.V2(0, 0), geo.V2(nan(), 1)}}
	if l.Equal(l.clone()) {
		t.Error("a lanelet with a NaN vertex compares equal")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestChangedFrom(t *testing.T) {
	parent := NewMap("p")
	lane := straightLane(t, parent, 0, 0, 10)
	kept := parent.AddPoint(PointElement{Class: ClassSign, Pos: geo.V3(1, 1, 0)})
	moved := parent.AddPoint(PointElement{Class: ClassSign, Pos: geo.V3(2, 2, 0)})
	gone := parent.AddPoint(PointElement{Class: ClassPole, Pos: geo.V3(3, 3, 0)})

	next := parent.Clone()
	if ch := next.ChangedFrom(parent); len(ch.Points)+len(ch.Lines)+len(ch.Areas)+len(ch.Lanelets)+len(ch.Bundles)+len(ch.Regs) != 0 {
		t.Fatalf("a clone changed from its original: %+v", ch)
	}
	if err := next.UpdatePoint(moved, func(p *PointElement) { p.Pos.X++ }); err != nil {
		t.Fatal(err)
	}
	if err := next.RemovePoint(gone); err != nil {
		t.Fatal(err)
	}
	added := next.AddPoint(PointElement{Class: ClassPole})
	l, _ := next.Lanelet(lane)
	l.SpeedLimit++

	ch := next.ChangedFrom(parent)
	wantPoints := map[ID]struct{}{moved: {}, gone: {}, added: {}}
	if !reflect.DeepEqual(ch.Points, wantPoints) {
		t.Errorf("changed points = %v, want %v (point %d did not change)", ch.Points, wantPoints, kept)
	}
	if !reflect.DeepEqual(ch.Lanelets, map[ID]struct{}{lane: {}}) {
		t.Errorf("changed lanelets = %v, want only %d", ch.Lanelets, lane)
	}
	if len(ch.Lines)+len(ch.Areas)+len(ch.Bundles)+len(ch.Regs) != 0 {
		t.Errorf("untouched tables changed: %+v", ch)
	}
}

func TestUpdatePointStamps(t *testing.T) {
	m := NewMap("t")
	id := m.AddPoint(PointElement{Class: ClassSign, Pos: geo.V3(1, 2, 3)})
	before, _ := m.Point(id)
	was, clock := before.Meta, m.Clock
	if err := m.UpdatePoint(id, func(p *PointElement) { p.Pos.X = 5 }); err != nil {
		t.Fatal(err)
	}
	p, _ := m.Point(id)
	if p.Pos.X != 5 {
		t.Error("change not applied")
	}
	if m.Clock != clock+1 || p.Meta.Stamp != m.Clock || p.Meta.Version != was.Version+1 {
		t.Errorf("after update: map clock %d (was %d), element stamp %d version %d (was %d)",
			m.Clock, clock, p.Meta.Stamp, p.Meta.Version, was.Version)
	}
	if err := m.UpdatePoint(999, func(*PointElement) { t.Error("change applied to a missing point") }); !errors.Is(err, ErrNotFound) {
		t.Errorf("update of a missing point: %v", err)
	}
}

// checkIDs compares each accessor with a fresh sort of its table's
// keys, which is all an accessor promises.
func checkIDs(t *testing.T, m *Map, when string) {
	t.Helper()
	for _, c := range []struct {
		kind      string
		got, want []ID
	}{
		{"point", m.PointIDs(), sortedIDs(m.points)},
		{"line", m.LineIDs(), sortedIDs(m.lines)},
		{"area", m.AreaIDs(), sortedIDs(m.areas)},
		{"lanelet", m.LaneletIDs(), sortedIDs(m.lanelets)},
		{"bundle", m.BundleIDs(), sortedIDs(m.bundles)},
		{"regulatory", m.RegulatoryIDs(), sortedIDs(m.regs)},
	} {
		if c.got == nil || !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: %s IDs = %v, want %v", when, c.kind, c.got, c.want)
		}
	}
}

// TestIDAccessorsFollowEveryChange drives each way a table changes,
// before and after FreezeIndexes has remembered the order, and checks
// all six accessors against the tables each time.
func TestIDAccessorsFollowEveryChange(t *testing.T) {
	m := NewMap("t")
	checkIDs(t, m, "empty")
	lane := straightLane(t, m, 0, 0, 10)
	p := m.AddPoint(PointElement{Class: ClassSign})
	m.AddArea(AreaElement{Class: ClassCrosswalk, Outline: geo.Polygon{geo.V2(0, 0), geo.V2(1, 0), geo.V2(1, 1)}})
	m.AddBundle(LaneBundle{Lanelets: []ID{lane}})
	m.AddRegulatory(RegulatoryElement{Kind: RegStop, Lanelets: []ID{lane}})
	checkIDs(t, m, "built, never frozen")
	m.FreezeIndexes()
	checkIDs(t, m, "frozen")

	ids := m.PointIDs()
	ids[0] = 12345
	checkIDs(t, m, "after a caller wrote into the slice it was given")

	c := m.Clone()
	checkIDs(t, c, "clone of a frozen map")
	c.AddPoint(PointElement{Class: ClassPole})
	c.AddRegulatory(RegulatoryElement{Kind: RegYield})
	checkIDs(t, c, "clone after adds")
	checkIDs(t, m, "original after its clone's adds")
	c.FreezeIndexes()
	if err := c.RemovePoint(p); err != nil {
		t.Fatal(err)
	}
	l, _ := c.Lanelet(lane)
	if err := c.RemoveLine(l.Left); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveLanelet(lane); err != nil {
		t.Fatal(err)
	}
	checkIDs(t, c, "clone after removals")
	checkIDs(t, m, "original after its clone's removals")

	m.FreezeIndexes()
	if err := m.RestorePoint(PointElement{ID: 1000, Class: ClassPole}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreLine(LineElement{ID: 1001, Geometry: geo.Polyline{geo.V2(0, 0), geo.V2(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreArea(AreaElement{ID: 1002}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreLanelet(Lanelet{ID: 1003}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreBundle(LaneBundle{ID: 1004}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreRegulatory(RegulatoryElement{ID: 1005}); err != nil {
		t.Fatal(err)
	}
	checkIDs(t, m, "after restores")

	m.FreezeIndexes()
	var src Slabs
	for id := ID(2000); id < 2006; id++ {
		src.Points = append(src.Points, PointElement{ID: id})
		src.Lines = append(src.Lines, LineElement{ID: id})
		src.Areas = append(src.Areas, AreaElement{ID: id})
		src.Lanelets = append(src.Lanelets, Lanelet{ID: id})
		src.Bundles = append(src.Bundles, LaneBundle{ID: id})
		src.Regulatory = append(src.Regulatory, RegulatoryElement{ID: id})
	}
	if err := m.RestoreSlabs(&src); err != nil {
		t.Fatal(err)
	}
	checkIDs(t, m, "after a bulk restore")
	m.FreezeIndexes()
	checkIDs(t, m, "frozen again")
}
