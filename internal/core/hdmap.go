package core

import (
	"fmt"
	"math"
	"slices"

	"hdmaps/internal/geo"
	"hdmaps/internal/spatial"
)

// Map is the in-memory HD map: the physical and relational layers plus
// spatial indexes. It is not safe for concurrent mutation; the pipelines
// build maps single-writer and share them read-only (queries after
// FreezeIndexes are concurrency-safe). A read-only snapshot may share
// elements, whole tables and indexes with its Successor, so writing one
// is never safe; a map from NewMap or Clone shares nothing.
type Map struct {
	// Name labels the map (tile id, region, scenario).
	Name string
	// Clock is the logical timestamp assigned to mutations.
	Clock uint64

	points   map[ID]*PointElement
	lines    map[ID]*LineElement
	areas    map[ID]*AreaElement
	lanelets map[ID]*Lanelet
	bundles  map[ID]*LaneBundle
	regs     map[ID]*RegulatoryElement

	nextID ID

	// Each table's IDs in ascending order, nil when not known: every
	// change to a table forgets its order, FreezeIndexes works it out
	// again, and the *IDs accessors only read it — so they sort nothing
	// on a frozen map or a clone of one, and a frozen map stays safe to
	// share. A slice is never written once set, so Clone shares it.
	pointOrder, lineOrder, areaOrder    []ID
	laneletOrder, bundleOrder, regOrder []ID

	pointIdx   *spatial.RTree
	lineIdx    *spatial.RTree
	laneletIdx *spatial.RTree
	indexDirty bool
}

// NewMap creates an empty map.
func NewMap(name string) *Map {
	return &Map{
		Name:     name,
		points:   make(map[ID]*PointElement),
		lines:    make(map[ID]*LineElement),
		areas:    make(map[ID]*AreaElement),
		lanelets: make(map[ID]*Lanelet),
		bundles:  make(map[ID]*LaneBundle),
		regs:     make(map[ID]*RegulatoryElement),
		nextID:   1,
	}
}

// allocate returns a fresh ID.
func (m *Map) allocate() ID {
	id := m.nextID
	m.nextID++
	return id
}

// Tick advances the logical clock and returns the new stamp.
func (m *Map) Tick() uint64 {
	m.Clock++
	return m.Clock
}

// --- Insertion -----------------------------------------------------------

// AddPoint inserts a point element and returns its assigned ID.
func (m *Map) AddPoint(p PointElement) ID {
	p.ID = m.allocate()
	p.Meta.touch(m.Tick())
	cp := p
	m.points[cp.ID] = &cp
	m.pointOrder = nil
	m.indexDirty = true
	return cp.ID
}

// AddLine inserts a line element and returns its assigned ID.
func (m *Map) AddLine(l LineElement) ID {
	l.ID = m.allocate()
	l.Meta.touch(m.Tick())
	l.invalidate()
	cl := l
	m.lines[cl.ID] = &cl
	m.lineOrder = nil
	m.indexDirty = true
	return cl.ID
}

// AddArea inserts an area element and returns its assigned ID.
func (m *Map) AddArea(a AreaElement) ID {
	a.ID = m.allocate()
	a.Meta.touch(m.Tick())
	ca := a
	m.areas[ca.ID] = &ca
	m.areaOrder = nil
	m.indexDirty = true
	return ca.ID
}

// AddLanelet inserts a lanelet and returns its assigned ID.
func (m *Map) AddLanelet(l Lanelet) ID {
	l.ID = m.allocate()
	l.Meta.touch(m.Tick())
	l.invalidate()
	cl := l
	m.lanelets[cl.ID] = &cl
	m.laneletOrder = nil
	m.indexDirty = true
	return cl.ID
}

// AddBundle inserts a lane bundle and returns its assigned ID.
func (m *Map) AddBundle(b LaneBundle) ID {
	b.ID = m.allocate()
	b.Meta.touch(m.Tick())
	cb := b
	m.bundles[cb.ID] = &cb
	m.bundleOrder = nil
	m.indexDirty = true
	return cb.ID
}

// AddRegulatory inserts a regulatory element and returns its assigned ID.
func (m *Map) AddRegulatory(r RegulatoryElement) ID {
	r.ID = m.allocate()
	r.Meta.touch(m.Tick())
	cr := r
	m.regs[cr.ID] = &cr
	m.regOrder = nil
	return cr.ID
}

// --- Lookup --------------------------------------------------------------

// Point returns the point element with id.
func (m *Map) Point(id ID) (*PointElement, error) {
	if p, ok := m.points[id]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("point %d: %w", id, ErrNotFound)
}

// Line returns the line element with id.
func (m *Map) Line(id ID) (*LineElement, error) {
	if l, ok := m.lines[id]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("line %d: %w", id, ErrNotFound)
}

// Area returns the area element with id.
func (m *Map) Area(id ID) (*AreaElement, error) {
	if a, ok := m.areas[id]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("area %d: %w", id, ErrNotFound)
}

// Lanelet returns the lanelet with id.
func (m *Map) Lanelet(id ID) (*Lanelet, error) {
	if l, ok := m.lanelets[id]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("lanelet %d: %w", id, ErrNotFound)
}

// Bundle returns the lane bundle with id.
func (m *Map) Bundle(id ID) (*LaneBundle, error) {
	if b, ok := m.bundles[id]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("bundle %d: %w", id, ErrNotFound)
}

// Regulatory returns the regulatory element with id.
func (m *Map) Regulatory(id ID) (*RegulatoryElement, error) {
	if r, ok := m.regs[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("regulatory %d: %w", id, ErrNotFound)
}

// --- Removal -------------------------------------------------------------

// RemovePoint deletes a point element.
func (m *Map) RemovePoint(id ID) error {
	if _, ok := m.points[id]; !ok {
		return fmt.Errorf("remove point %d: %w", id, ErrNotFound)
	}
	delete(m.points, id)
	m.pointOrder = nil
	m.indexDirty = true
	return nil
}

// RemoveLine deletes a line element.
func (m *Map) RemoveLine(id ID) error {
	if _, ok := m.lines[id]; !ok {
		return fmt.Errorf("remove line %d: %w", id, ErrNotFound)
	}
	delete(m.lines, id)
	m.lineOrder = nil
	m.indexDirty = true
	return nil
}

// RemoveLanelet deletes a lanelet.
func (m *Map) RemoveLanelet(id ID) error {
	if _, ok := m.lanelets[id]; !ok {
		return fmt.Errorf("remove lanelet %d: %w", id, ErrNotFound)
	}
	delete(m.lanelets, id)
	m.laneletOrder = nil
	m.indexDirty = true
	return nil
}

// --- In-place change -------------------------------------------------------

// UpdatePoint applies change to the point element and stamps it with
// the next logical time, so that its version, the map clock and every
// clock derived from element stamps (a tile's, a committed version's)
// move whenever its content does. The spatial index keeps the
// element's old position until the next FreezeIndexes, as it does for
// any write through a *PointElement.
func (m *Map) UpdatePoint(id ID, change func(*PointElement)) error {
	p, ok := m.points[id]
	if !ok {
		return fmt.Errorf("update point %d: %w", id, ErrNotFound)
	}
	change(p)
	p.Meta.touch(m.Tick())
	return nil
}

// UpdateLine is UpdatePoint for a line element, and also forgets the
// line's cached bounds, so that a change to its geometry shows in
// Bounds at once.
func (m *Map) UpdateLine(id ID, change func(*LineElement)) error {
	l, ok := m.lines[id]
	if !ok {
		return fmt.Errorf("update line %d: %w", id, ErrNotFound)
	}
	change(l)
	l.invalidate()
	l.Meta.touch(m.Tick())
	return nil
}

// --- Iteration (deterministic order) --------------------------------------

// PointIDs returns all point IDs in ascending order.
func (m *Map) PointIDs() []ID { return orderedIDs(m.points, m.pointOrder) }

// LineIDs returns all line IDs in ascending order.
func (m *Map) LineIDs() []ID { return orderedIDs(m.lines, m.lineOrder) }

// AreaIDs returns all area IDs in ascending order.
func (m *Map) AreaIDs() []ID { return orderedIDs(m.areas, m.areaOrder) }

// LaneletIDs returns all lanelet IDs in ascending order.
func (m *Map) LaneletIDs() []ID { return orderedIDs(m.lanelets, m.laneletOrder) }

// BundleIDs returns all bundle IDs in ascending order.
func (m *Map) BundleIDs() []ID { return orderedIDs(m.bundles, m.bundleOrder) }

// RegulatoryIDs returns all regulatory IDs in ascending order.
func (m *Map) RegulatoryIDs() []ID { return orderedIDs(m.regs, m.regOrder) }

// orderedIDs returns the table's IDs in ascending order, in a slice
// the caller owns: a copy of the remembered order when there is one.
func orderedIDs[T any](table map[ID]*T, order []ID) []ID {
	if order == nil {
		return sortedIDs(table)
	}
	out := make([]ID, len(order))
	copy(out, order)
	return out
}

// orderOf is orderedIDs for a caller inside the package that only
// reads: the remembered order itself when there is one.
func orderOf[T any](table map[ID]*T, order []ID) []ID {
	if order == nil {
		return sortedIDs(table)
	}
	return order
}

func learnOrder[T any](order *[]ID, table map[ID]*T) {
	if *order == nil {
		*order = sortedIDs(table)
	}
}

// sortedIDs never returns nil, which is how a remembered order of an
// empty table differs from an unknown one.
func sortedIDs[T any](table map[ID]*T) []ID {
	out := make([]ID, 0, len(table))
	for id := range table {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// --- Spatial queries -------------------------------------------------------

// FreezeIndexes (re)builds the spatial indexes and works out the ID
// orders the map's mutations forgot. Queries call it lazily, but
// pipelines that finish a batch of mutations should call it once
// before handing the map to readers.
func (m *Map) FreezeIndexes() {
	learnOrder(&m.pointOrder, m.points)
	learnOrder(&m.lineOrder, m.lines)
	learnOrder(&m.areaOrder, m.areas)
	learnOrder(&m.laneletOrder, m.lanelets)
	learnOrder(&m.bundleOrder, m.bundles)
	learnOrder(&m.regOrder, m.regs)
	m.pointIdx = indexOf(m.points)
	m.lineIdx = indexOf(m.lines)
	m.laneletIdx = indexOf(m.lanelets)
	m.indexDirty = false
}

func (m *Map) ensureIndexes() {
	if m.indexDirty || m.pointIdx == nil {
		m.FreezeIndexes()
	}
}

// PointsIn returns the point elements intersecting box, optionally
// filtered by class (ClassUnknown matches all).
func (m *Map) PointsIn(box geo.AABB, class Class) []*PointElement {
	m.ensureIndexes()
	var out []*PointElement
	m.pointIdx.Visit(box, func(it spatial.Item) bool {
		p := it.(*PointElement)
		if class == ClassUnknown || p.Class == class {
			out = append(out, p)
		}
		return true
	})
	return out
}

// LinesIn returns the line elements intersecting box, optionally filtered
// by class.
func (m *Map) LinesIn(box geo.AABB, class Class) []*LineElement {
	m.ensureIndexes()
	var out []*LineElement
	m.lineIdx.Visit(box, func(it spatial.Item) bool {
		l := it.(*LineElement)
		if class == ClassUnknown || l.Class == class {
			out = append(out, l)
		}
		return true
	})
	return out
}

// LaneletsIn returns the lanelets whose bounds intersect box.
func (m *Map) LaneletsIn(box geo.AABB) []*Lanelet {
	m.ensureIndexes()
	var out []*Lanelet
	m.laneletIdx.Visit(box, func(it spatial.Item) bool {
		out = append(out, it.(*Lanelet))
		return true
	})
	return out
}

// NearestLanelet returns the lanelet whose centreline is closest to p,
// with the distance; ok is false for an empty map.
func (m *Map) NearestLanelet(p geo.Vec2) (*Lanelet, float64, bool) {
	m.ensureIndexes()
	// Candidate set: nearest by bounds, then exact by centreline distance.
	cands := m.laneletIdx.Nearest(p, 8)
	best, bestD := (*Lanelet)(nil), math.Inf(1)
	for _, it := range cands {
		l := it.(*Lanelet)
		if d := l.Centerline.DistanceTo(p); d < bestD {
			best, bestD = l, d
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, bestD, true
}

// MatchLanelet returns the lanelet best matching a pose: close in space
// and aligned in heading. This is the entry point of the lane-level
// map-matching application (Li et al. [59]).
func (m *Map) MatchLanelet(pose geo.Pose2, maxDist float64) (*Lanelet, bool) {
	m.ensureIndexes()
	box := geo.NewAABB(pose.P, pose.P).Expand(maxDist)
	best, bestScore := (*Lanelet)(nil), math.Inf(1)
	for _, l := range m.LaneletsIn(box) {
		_, s, d := l.Centerline.Project(pose.P)
		if d > maxDist {
			continue
		}
		hErr := math.Abs(geo.AngleDiff(l.Centerline.HeadingAt(s), pose.Theta))
		// Combined cost: lateral metres + heading error weighted so that
		// 1 rad ≈ 5 m (empirically robust for lane-width geometry).
		score := d + 5*hErr
		if score < bestScore {
			best, bestScore = l, score
		}
	}
	return best, best != nil
}

// LaneletPolygon returns the drivable surface polygon of a lanelet from
// its left and right bounds.
func (m *Map) LaneletPolygon(id ID) (geo.Polygon, error) {
	l, err := m.Lanelet(id)
	if err != nil {
		return nil, err
	}
	left, err := m.Line(l.Left)
	if err != nil {
		return nil, fmt.Errorf("lanelet %d left bound: %w", id, err)
	}
	right, err := m.Line(l.Right)
	if err != nil {
		return nil, fmt.Errorf("lanelet %d right bound: %w", id, err)
	}
	poly := make(geo.Polygon, 0, len(left.Geometry)+len(right.Geometry))
	poly = append(poly, left.Geometry...)
	rev := right.Geometry.Reverse()
	poly = append(poly, rev...)
	return poly, nil
}

// Bounds returns the bounding box of all physical geometry.
func (m *Map) Bounds() geo.AABB {
	box := geo.EmptyAABB()
	for _, p := range m.points {
		box = box.Union(p.Bounds())
	}
	for _, l := range m.lines {
		box = box.Union(l.Bounds())
	}
	for _, a := range m.areas {
		box = box.Union(a.Bounds())
	}
	return box
}

// BoundsOf is Bounds over the physical elements m holds under the IDs
// ch names. The union of boxes does not depend on the order it is taken
// in, NaN and infinite coordinates included, so Bounds of a map is
// BoundsOf its changed elements united with Bounds of the rest.
func (m *Map) BoundsOf(ch Changes) geo.AABB {
	box := geo.EmptyAABB()
	for id := range ch.Points {
		if p, ok := m.points[id]; ok {
			box = box.Union(p.Bounds())
		}
	}
	for id := range ch.Lines {
		if l, ok := m.lines[id]; ok {
			box = box.Union(l.Bounds())
		}
	}
	for id := range ch.Areas {
		if a, ok := m.areas[id]; ok {
			box = box.Union(a.Bounds())
		}
	}
	return box
}

// NumElements returns the total physical + relational element count.
func (m *Map) NumElements() int {
	return len(m.points) + len(m.lines) + len(m.areas) +
		len(m.lanelets) + len(m.bundles) + len(m.regs)
}

// Counts returns per-layer element counts.
func (m *Map) Counts() (points, lines, areas, lanelets, bundles, regs int) {
	return len(m.points), len(m.lines), len(m.areas),
		len(m.lanelets), len(m.bundles), len(m.regs)
}
