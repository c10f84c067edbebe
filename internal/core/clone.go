package core

import (
	"maps"
	"reflect"
	"slices"
)

// Every element type has a clone and an Equal, side by side here so
// that a new field is added to both at once (TestCloneAndEqualCover-
// EveryField fails otherwise). clone copies everything a holder of the
// copy could write through; Equal compares every field by value, the
// cached bounds aside. Floats compare with ==, so an element holding a
// NaN equals nothing, itself included: whoever skips work on equal
// elements never skips a poisoned one.

func (p *PointElement) clone() *PointElement {
	c := *p
	c.Attr = maps.Clone(p.Attr)
	return &c
}

// Equal reports whether p and q hold the same values.
func (p *PointElement) Equal(q *PointElement) bool {
	return p.ID == q.ID && p.Class == q.Class && p.Pos == q.Pos && p.Heading == q.Heading &&
		maps.Equal(p.Attr, q.Attr) && p.Meta == q.Meta
}

func (l *LineElement) clone() *LineElement {
	c := *l
	c.Geometry = l.Geometry.Clone()
	c.Attr = maps.Clone(l.Attr)
	return &c
}

// Equal reports whether l and q hold the same values.
func (l *LineElement) Equal(q *LineElement) bool {
	return l.ID == q.ID && l.Class == q.Class && slices.Equal(l.Geometry, q.Geometry) &&
		l.Boundary == q.Boundary && maps.Equal(l.Attr, q.Attr) && l.Meta == q.Meta
}

func (a *AreaElement) clone() *AreaElement {
	c := *a
	c.Outline = slices.Clone(a.Outline)
	c.Attr = maps.Clone(a.Attr)
	return &c
}

// Equal reports whether a and q hold the same values.
func (a *AreaElement) Equal(q *AreaElement) bool {
	return a.ID == q.ID && a.Class == q.Class && slices.Equal(a.Outline, q.Outline) &&
		maps.Equal(a.Attr, q.Attr) && a.Meta == q.Meta
}

func (l *Lanelet) clone() *Lanelet {
	c := *l
	c.Centerline = l.Centerline.Clone()
	c.Successors = slices.Clone(l.Successors)
	c.Regulatory = slices.Clone(l.Regulatory)
	return &c
}

// Equal reports whether l and q hold the same values.
func (l *Lanelet) Equal(q *Lanelet) bool {
	return l.ID == q.ID && l.Left == q.Left && l.Right == q.Right &&
		slices.Equal(l.Centerline, q.Centerline) && l.Type == q.Type && l.SpeedLimit == q.SpeedLimit &&
		slices.Equal(l.Successors, q.Successors) &&
		l.LeftNeighbor == q.LeftNeighbor && l.RightNeighbor == q.RightNeighbor &&
		slices.Equal(l.Regulatory, q.Regulatory) && l.Meta == q.Meta
}

func (b *LaneBundle) clone() *LaneBundle {
	c := *b
	c.Lanelets = slices.Clone(b.Lanelets)
	c.RefLine = b.RefLine.Clone()
	return &c
}

// Equal reports whether b and q hold the same values.
func (b *LaneBundle) Equal(q *LaneBundle) bool {
	return b.ID == q.ID && b.RoadID == q.RoadID && slices.Equal(b.Lanelets, q.Lanelets) &&
		slices.Equal(b.RefLine, q.RefLine) && b.Meta == q.Meta
}

func (r *RegulatoryElement) clone() *RegulatoryElement {
	c := *r
	c.Devices = slices.Clone(r.Devices)
	c.Lanelets = slices.Clone(r.Lanelets)
	return &c
}

// Equal reports whether r and q hold the same values.
func (r *RegulatoryElement) Equal(q *RegulatoryElement) bool {
	return r.ID == q.ID && r.Kind == q.Kind && slices.Equal(r.Devices, q.Devices) &&
		r.StopLine == q.StopLine && slices.Equal(r.Lanelets, q.Lanelets) &&
		r.Value == q.Value && r.Meta == q.Meta
}

// element is what the per-table helpers below need of an element type.
type element[T any] interface {
	*T
	clone() *T
	Equal(*T) bool
}

func cloneTable[T any, P element[T]](src map[ID]*T) map[ID]*T {
	out := make(map[ID]*T, len(src))
	for id, e := range src {
		out[id] = P(e).clone()
	}
	return out
}

// Clone returns a deep copy of the map (indexes are rebuilt lazily).
func (m *Map) Clone() *Map {
	return &Map{
		Name:   m.Name,
		Clock:  m.Clock,
		nextID: m.nextID,

		points:   cloneTable(m.points),
		lines:    cloneTable(m.lines),
		areas:    cloneTable(m.areas),
		lanelets: cloneTable(m.lanelets),
		bundles:  cloneTable(m.bundles),
		regs:     cloneTable(m.regs),

		pointOrder: m.pointOrder, lineOrder: m.lineOrder, areaOrder: m.areaOrder,
		laneletOrder: m.laneletOrder, bundleOrder: m.bundleOrder, regOrder: m.regOrder,

		indexDirty: true,
	}
}

// Changes names, per element table, the IDs under which two maps hold
// different elements.
type Changes struct {
	Points, Lines, Areas, Lanelets, Bundles, Regs map[ID]struct{}
}

// ChangedFrom lists the IDs whose element in m does not Equal the one
// in parent, an ID only one of the two maps holds included. Where both
// maps hold the very same element (a snapshot and its Successor do) it
// is taken as unchanged without a look; two different objects always
// compare by value.
func (m *Map) ChangedFrom(parent *Map) Changes {
	return Changes{
		Points:   changedIDs(parent.points, m.points),
		Lines:    changedIDs(parent.lines, m.lines),
		Areas:    changedIDs(parent.areas, m.areas),
		Lanelets: changedIDs(parent.lanelets, m.lanelets),
		Bundles:  changedIDs(parent.bundles, m.bundles),
		Regs:     changedIDs(parent.regs, m.regs),
	}
}

func changedIDs[T any, P element[T]](old, cur map[ID]*T) map[ID]struct{} {
	out := make(map[ID]struct{})
	if reflect.ValueOf(old).Pointer() == reflect.ValueOf(cur).Pointer() {
		return out // one table, shared by a snapshot and its successor
	}
	both := 0
	for id, e := range cur {
		o, ok := old[id]
		if ok {
			both++
		}
		if !ok || (o != e && !P(e).Equal(o)) {
			out[id] = struct{}{}
		}
	}
	if both == len(old) {
		return out // cur holds every ID of old
	}
	for id := range old {
		if _, ok := cur[id]; !ok {
			out[id] = struct{}{}
		}
	}
	return out
}
