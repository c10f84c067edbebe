package core

import (
	"errors"
	"fmt"
)

// ErrIDTaken is returned by Restore methods when the element ID already
// exists in the map.
var ErrIDTaken = errors.New("core: element id already exists")

// The Restore family inserts elements with their existing IDs and
// metadata untouched. It exists for decoders and replication: normal
// construction goes through the Add methods, which assign IDs and touch
// version metadata.

func (m *Map) reserve(id ID) error {
	if id == NilID {
		return fmt.Errorf("restore: %w", ErrInvalidElement)
	}
	if id >= m.nextID {
		m.nextID = id + 1
	}
	return nil
}

// RestorePoint inserts a point element preserving its ID and metadata.
func (m *Map) RestorePoint(p PointElement) error {
	if err := m.reserve(p.ID); err != nil {
		return err
	}
	if _, ok := m.points[p.ID]; ok {
		return fmt.Errorf("restore point %d: %w", p.ID, ErrIDTaken)
	}
	cp := p
	m.points[cp.ID] = &cp
	m.pointOrder = nil
	m.indexDirty = true
	return nil
}

// RestoreLine inserts a line element preserving its ID and metadata.
func (m *Map) RestoreLine(l LineElement) error {
	if err := m.reserve(l.ID); err != nil {
		return err
	}
	if _, ok := m.lines[l.ID]; ok {
		return fmt.Errorf("restore line %d: %w", l.ID, ErrIDTaken)
	}
	l.invalidate()
	cl := l
	m.lines[cl.ID] = &cl
	m.lineOrder = nil
	m.indexDirty = true
	return nil
}

// RestoreArea inserts an area element preserving its ID and metadata.
func (m *Map) RestoreArea(a AreaElement) error {
	if err := m.reserve(a.ID); err != nil {
		return err
	}
	if _, ok := m.areas[a.ID]; ok {
		return fmt.Errorf("restore area %d: %w", a.ID, ErrIDTaken)
	}
	ca := a
	m.areas[ca.ID] = &ca
	m.areaOrder = nil
	m.indexDirty = true
	return nil
}

// RestoreLanelet inserts a lanelet preserving its ID and metadata.
func (m *Map) RestoreLanelet(l Lanelet) error {
	if err := m.reserve(l.ID); err != nil {
		return err
	}
	if _, ok := m.lanelets[l.ID]; ok {
		return fmt.Errorf("restore lanelet %d: %w", l.ID, ErrIDTaken)
	}
	l.invalidate()
	cl := l
	m.lanelets[cl.ID] = &cl
	m.laneletOrder = nil
	m.indexDirty = true
	return nil
}

// RestoreBundle inserts a lane bundle preserving its ID and metadata.
func (m *Map) RestoreBundle(b LaneBundle) error {
	if err := m.reserve(b.ID); err != nil {
		return err
	}
	if _, ok := m.bundles[b.ID]; ok {
		return fmt.Errorf("restore bundle %d: %w", b.ID, ErrIDTaken)
	}
	cb := b
	m.bundles[cb.ID] = &cb
	m.bundleOrder = nil
	m.indexDirty = true
	return nil
}

// RestoreRegulatory inserts a regulatory element preserving its ID and
// metadata.
func (m *Map) RestoreRegulatory(r RegulatoryElement) error {
	if err := m.reserve(r.ID); err != nil {
		return err
	}
	if _, ok := m.regs[r.ID]; ok {
		return fmt.Errorf("restore regulatory %d: %w", r.ID, ErrIDTaken)
	}
	cr := r
	m.regs[cr.ID] = &cr
	m.regOrder = nil
	return nil
}

// SetClock restores the logical clock (decoders only).
func (m *Map) SetClock(c uint64) { m.Clock = c }

// Reserve sizes the element tables for the given number of elements per
// kind, for a decoder that knows them before it restores. Only a
// still-empty table is sized.
func (m *Map) Reserve(points, lines, areas, lanelets, bundles, regs int) {
	m.points = sized(m.points, points)
	m.lines = sized(m.lines, lines)
	m.areas = sized(m.areas, areas)
	m.lanelets = sized(m.lanelets, lanelets)
	m.bundles = sized(m.bundles, bundles)
	m.regs = sized(m.regs, regs)
}

func sized[T any](table map[ID]*T, n int) map[ID]*T {
	if n == 0 || len(table) > 0 {
		return table
	}
	return make(map[ID]*T, n)
}

// Slabs is a batch of elements to restore together, one slice per kind:
// what a decoder makes of one payload.
type Slabs struct {
	Points     []PointElement
	Lines      []LineElement
	Areas      []AreaElement
	Lanelets   []Lanelet
	Bundles    []LaneBundle
	Regulatory []RegulatoryElement
}

// RestoreSlabs inserts every element of s, IDs and metadata untouched,
// by address: nothing is copied, the map's elements of one kind are the
// elements of s's slice of that kind, which the caller must not use
// again. It inserts all of them or none: NilID is ErrInvalidElement, an
// ID the map already holds, or s holds twice, is ErrIDTaken, and either
// leaves the map as it was.
func (m *Map) RestoreSlabs(s *Slabs) error {
	for i := range s.Lines {
		s.Lines[i].invalidate()
	}
	for i := range s.Lanelets {
		s.Lanelets[i].invalidate()
	}
	nextID := m.nextID
	var done [6]int // how many elements of each slice are in the map
	err := m.restoreSlabs(s, &done)
	if err != nil {
		unrestore(m.points, s.Points[:done[0]], pointID)
		unrestore(m.lines, s.Lines[:done[1]], lineID)
		unrestore(m.areas, s.Areas[:done[2]], areaID)
		unrestore(m.lanelets, s.Lanelets[:done[3]], laneletID)
		unrestore(m.bundles, s.Bundles[:done[4]], bundleID)
		unrestore(m.regs, s.Regulatory[:done[5]], regulatoryID)
		m.nextID = nextID
		return err
	}
	m.indexDirty = true
	m.pointOrder, m.lineOrder, m.areaOrder = nil, nil, nil
	m.laneletOrder, m.bundleOrder, m.regOrder = nil, nil, nil
	return nil
}

// Check reports what would stop RestoreSlabs from restoring s into an
// empty map: an element with NilID (ErrInvalidElement), or two of a kind
// with one ID (ErrIDTaken). A decoder runs it once on what it parsed, so
// that a payload is refused before any of it is in a map.
func (s *Slabs) Check() error {
	if err := checkSlab(s.Points, pointID, "point"); err != nil {
		return err
	}
	if err := checkSlab(s.Lines, lineID, "line"); err != nil {
		return err
	}
	if err := checkSlab(s.Areas, areaID, "area"); err != nil {
		return err
	}
	if err := checkSlab(s.Lanelets, laneletID, "lanelet"); err != nil {
		return err
	}
	if err := checkSlab(s.Bundles, bundleID, "bundle"); err != nil {
		return err
	}
	return checkSlab(s.Regulatory, regulatoryID, "regulatory")
}

// checkSlab looks for a repeated ID with a set only when the IDs are not
// in ascending order, which an encoder always writes them in.
func checkSlab[T any](slab []T, id func(*T) ID, kind string) error {
	ascending := true
	for i := range slab {
		if id(&slab[i]) == NilID {
			return fmt.Errorf("restore %s: %w", kind, ErrInvalidElement)
		}
		if i > 0 && id(&slab[i]) <= id(&slab[i-1]) {
			ascending = false
		}
	}
	if ascending {
		return nil
	}
	seen := make(map[ID]struct{}, len(slab))
	for i := range slab {
		eid := id(&slab[i])
		if _, dup := seen[eid]; dup {
			return fmt.Errorf("restore %s %d: %w", kind, eid, ErrIDTaken)
		}
		seen[eid] = struct{}{}
	}
	return nil
}

func (m *Map) restoreSlabs(s *Slabs, done *[6]int) (err error) {
	if done[0], err = restoreSlab(m, m.points, s.Points, pointID, "point"); err != nil {
		return err
	}
	if done[1], err = restoreSlab(m, m.lines, s.Lines, lineID, "line"); err != nil {
		return err
	}
	if done[2], err = restoreSlab(m, m.areas, s.Areas, areaID, "area"); err != nil {
		return err
	}
	if done[3], err = restoreSlab(m, m.lanelets, s.Lanelets, laneletID, "lanelet"); err != nil {
		return err
	}
	if done[4], err = restoreSlab(m, m.bundles, s.Bundles, bundleID, "bundle"); err != nil {
		return err
	}
	done[5], err = restoreSlab(m, m.regs, s.Regulatory, regulatoryID, "regulatory")
	return err
}

func pointID(e *PointElement) ID           { return e.ID }
func lineID(e *LineElement) ID             { return e.ID }
func areaID(e *AreaElement) ID             { return e.ID }
func laneletID(e *Lanelet) ID              { return e.ID }
func bundleID(e *LaneBundle) ID            { return e.ID }
func regulatoryID(e *RegulatoryElement) ID { return e.ID }

// restoreSlab inserts the elements of slab until one cannot be, and
// returns how many it inserted.
func restoreSlab[T any](m *Map, table map[ID]*T, slab []T, id func(*T) ID, kind string) (int, error) {
	for i := range slab {
		e := &slab[i]
		eid := id(e)
		if err := m.reserve(eid); err != nil {
			return i, err
		}
		if _, ok := table[eid]; ok {
			return i, fmt.Errorf("restore %s %d: %w", kind, eid, ErrIDTaken)
		}
		table[eid] = e
	}
	return len(slab), nil
}

func unrestore[T any](table map[ID]*T, slab []T, id func(*T) ID) {
	for i := range slab {
		delete(table, id(&slab[i]))
	}
}
