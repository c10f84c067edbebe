package core

import (
	"maps"

	"hdmaps/internal/spatial"
)

// Successor returns the next read-only snapshot in parent's lineage: a
// map that holds what next holds — element for element Equal to
// next.Clone() — with its ID orders known and its indexes built. ch
// must be next.ChangedFrom(parent).
//
// The work is in proportion to ch. An element ch does not name is the
// parent's own, shared by pointer; an element it names is a deep clone
// of next's, so next stays free to be written. A table ch leaves
// untouched is the parent's own table, with the parent's ID order and
// R-tree (whose items are those shared elements); a table with any
// changed ID is copied and indexed afresh, whole.
//
// That is sound only between maps nobody writes: parent must be a
// snapshot that is never written again (a frozen one, so that the
// bounds its lines and lanelets cache lazily are already computed), and
// so must the result. Clone remains the way to a map one may write.
func (parent *Map) Successor(next *Map, ch Changes) *Map {
	s := &Map{Name: next.Name, Clock: next.Clock, nextID: next.nextID}
	s.points, s.pointOrder = succeed(parent.points, parent.pointOrder, next.points, ch.Points)
	s.lines, s.lineOrder = succeed(parent.lines, parent.lineOrder, next.lines, ch.Lines)
	s.areas, s.areaOrder = succeed(parent.areas, parent.areaOrder, next.areas, ch.Areas)
	s.lanelets, s.laneletOrder = succeed(parent.lanelets, parent.laneletOrder, next.lanelets, ch.Lanelets)
	s.bundles, s.bundleOrder = succeed(parent.bundles, parent.bundleOrder, next.bundles, ch.Bundles)
	s.regs, s.regOrder = succeed(parent.regs, parent.regOrder, next.regs, ch.Regs)

	// The parent's trees stand for its tables only if it is frozen.
	stale := parent.indexDirty || parent.pointIdx == nil
	s.pointIdx, s.lineIdx, s.laneletIdx = parent.pointIdx, parent.lineIdx, parent.laneletIdx
	if stale || len(ch.Points) > 0 {
		s.pointIdx = indexOf(s.points)
	}
	if stale || len(ch.Lines) > 0 {
		s.lineIdx = indexOf(s.lines)
	}
	if stale || len(ch.Lanelets) > 0 {
		s.laneletIdx = indexOf(s.lanelets)
	}
	return s
}

// succeed returns one table of a successor and its ascending IDs: the
// parent's own table when no ID in it changed, else a copy in which
// each changed ID holds a clone of next's element, or nothing.
func succeed[T any, P element[T]](parent map[ID]*T, order []ID, next map[ID]*T, changed map[ID]struct{}) (map[ID]*T, []ID) {
	table, sameIDs := parent, true
	if len(changed) > 0 {
		table = maps.Clone(parent)
		for id := range changed {
			e, ok := next[id]
			if _, had := parent[id]; had != ok {
				sameIDs = false
			}
			if ok {
				table[id] = P(e).clone()
			} else {
				delete(table, id)
			}
		}
	}
	if order == nil || !sameIDs {
		order = sortedIDs(table)
	}
	return table, order
}

// indexOf bulk-loads an R-tree over a table's elements.
func indexOf[T any, P interface {
	*T
	spatial.Item
}](table map[ID]*T) *spatial.RTree {
	items := make([]spatial.Item, 0, len(table))
	for _, e := range table {
		items = append(items, P(e))
	}
	return spatial.NewRTree(items, 16)
}
