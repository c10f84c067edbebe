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

// Absorb moves every element of src into m, IDs and metadata untouched,
// and raises m's clock to src's if that is later. An ID both maps hold
// is ErrIDTaken. src is consumed: m takes over its element structs
// (nothing is copied), so src must not be used afterwards, on success
// or failure.
func (m *Map) Absorb(src *Map) error {
	if src.Clock > m.Clock {
		m.Clock = src.Clock
	}
	if src.nextID > m.nextID {
		m.nextID = src.nextID
	}
	m.indexDirty = true
	m.pointOrder, m.lineOrder, m.areaOrder = nil, nil, nil
	m.laneletOrder, m.bundleOrder, m.regOrder = nil, nil, nil
	if err := absorb(m.points, src.points, "point"); err != nil {
		return err
	}
	if err := absorb(m.lines, src.lines, "line"); err != nil {
		return err
	}
	if err := absorb(m.areas, src.areas, "area"); err != nil {
		return err
	}
	if err := absorb(m.lanelets, src.lanelets, "lanelet"); err != nil {
		return err
	}
	if err := absorb(m.bundles, src.bundles, "bundle"); err != nil {
		return err
	}
	return absorb(m.regs, src.regs, "regulatory")
}

func absorb[T any](dst, src map[ID]*T, kind string) error {
	for id, e := range src {
		if _, ok := dst[id]; ok {
			return fmt.Errorf("restore %s %d: %w", kind, id, ErrIDTaken)
		}
		dst[id] = e
	}
	return nil
}
