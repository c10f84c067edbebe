package storage

import (
	"fmt"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// header reads magic, version, name and clock — the prefix parseTile
// and PeekClock share. The name is a slice of the input: only a caller
// that keeps it pays for a string.
func (r *reader) header() (name []byte, clock uint64, err error) {
	magic := r.uvarint()
	if r.err == nil && magic != binaryMagic {
		return nil, 0, fmt.Errorf("magic %x: %w", magic, ErrBadFormat)
	}
	version := r.uvarint()
	if r.err == nil && version != binaryVersion {
		return nil, 0, fmt.Errorf("version %d: %w", version, ErrVersion)
	}
	name = r.bytes()
	clock = r.uvarint()
	return name, clock, r.err
}

// parsedTile is a payload parsed and checked, in no map yet. Its
// elements are landed in a map by address (mapOf), so a tile is landed
// at most once.
type parsedTile struct {
	name  []byte // a slice of the payload
	clock uint64
	core.Slabs
}

// parseTile reads a payload and makes every check decoding it does; it
// returns ErrBadFormat (wrapped) for structurally invalid input — an
// element without an ID or two of a kind with one ID included — and
// ErrVersion for unknown versions.
func parseTile(data []byte) (*parsedTile, error) {
	t, err := readTile(data)
	if err != nil {
		return nil, err
	}
	if err := t.Check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return t, nil
}

// readTile is parseTile short of the check of the element IDs.
func readTile(data []byte) (*parsedTile, error) {
	r := &reader{buf: data}
	name, clock, err := r.header()
	if err != nil {
		return nil, err
	}
	t := &parsedTile{name: name, clock: clock}
	t.Points = slab(r, (*reader).point)
	t.Lines = slab(r, (*reader).line)
	t.Areas = slab(r, (*reader).area)
	t.Lanelets = slab(r, (*reader).lanelet)
	t.Bundles = slab(r, (*reader).bundle)
	t.Regulatory = slab(r, (*reader).regulatory)
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}

// slab reads one element table into one backing array, each element in
// place. The array is sized by the table's count, bounded by what the
// rest of the input could hold (no element encodes in under 16 bytes),
// so a forged count sizes nothing the input does not pay for; and the
// loop stops at the reader's first failure, so it costs one failed
// element.
func slab[T any](r *reader, read func(*reader, *T)) []T {
	n := r.uvarint()
	out := make([]T, 0, min(n, uint64(r.rest()/16)))
	for ; n > 0 && r.err == nil; n-- {
		var zero T
		out = append(out, zero)
		read(r, &out[len(out)-1])
	}
	return out
}

func (r *reader) point(p *core.PointElement) {
	p.ID = core.ID(r.uvarint())
	p.Class = core.Class(r.uvarint())
	x, y, z := r.varint(), r.varint(), r.varint()
	p.Pos = geo.V3(float64(x)*coordUnit, float64(y)*coordUnit, float64(z)*coordUnit)
	p.Heading = r.float()
	p.Attr = r.attrs()
	p.Meta = r.meta()
}

func (r *reader) line(l *core.LineElement) {
	l.ID = core.ID(r.uvarint())
	l.Class = core.Class(r.uvarint())
	l.Boundary = core.BoundaryType(r.uvarint())
	l.Geometry = r.polyline()
	l.Attr = r.attrs()
	l.Meta = r.meta()
}

func (r *reader) area(a *core.AreaElement) {
	a.ID = core.ID(r.uvarint())
	a.Class = core.Class(r.uvarint())
	a.Outline = geo.Polygon(r.polyline())
	a.Attr = r.attrs()
	a.Meta = r.meta()
}

func (r *reader) lanelet(l *core.Lanelet) {
	l.ID = core.ID(r.uvarint())
	l.Left, l.Right = core.ID(r.uvarint()), core.ID(r.uvarint())
	l.Centerline = r.polyline()
	l.Type = core.LaneType(r.uvarint())
	l.SpeedLimit = r.float()
	l.Successors = r.idList()
	l.LeftNeighbor, l.RightNeighbor = core.ID(r.uvarint()), core.ID(r.uvarint())
	l.Regulatory = r.idList()
	l.Meta = r.meta()
}

func (r *reader) bundle(b *core.LaneBundle) {
	b.ID = core.ID(r.uvarint())
	b.RoadID = r.varint()
	b.Lanelets = r.idList()
	b.RefLine = r.polyline()
	b.Meta = r.meta()
}

func (r *reader) regulatory(reg *core.RegulatoryElement) {
	reg.ID = core.ID(r.uvarint())
	reg.Kind = core.RegulatoryKind(r.uvarint())
	reg.Devices = r.idList()
	reg.StopLine = core.ID(r.uvarint())
	reg.Lanelets = r.idList()
	reg.Value = r.float()
	reg.Meta = r.meta()
}

// mapOf lands parsed tiles, in the order given, in one new map: its
// tables are sized once for all of them, each tile's elements go in by
// address — no per-tile map, no copy — and its clock is the latest of
// theirs. An element two tiles hold is core.ErrIDTaken.
func mapOf(name string, tiles ...*parsedTile) (*core.Map, error) {
	m := core.NewMap(name)
	var points, lines, areas, lanelets, bundles, regs int
	for _, t := range tiles {
		points, lines, areas = points+len(t.Points), lines+len(t.Lines), areas+len(t.Areas)
		lanelets, bundles, regs = lanelets+len(t.Lanelets), bundles+len(t.Bundles), regs+len(t.Regulatory)
	}
	m.Reserve(points, lines, areas, lanelets, bundles, regs)
	for _, t := range tiles {
		if err := t.land(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// land puts the tile's elements in m and raises m's clock to the tile's
// if that is later — or, when m holds one of them already, changes
// nothing and returns core.ErrIDTaken.
func (t *parsedTile) land(m *core.Map) error {
	if err := m.RestoreSlabs(&t.Slabs); err != nil {
		return err
	}
	m.SetClock(max(m.Clock, t.clock))
	return nil
}

// DecodeBinary parses a map from the compact vector format. It returns
// ErrBadFormat (wrapped) for structurally invalid input and ErrVersion
// for unknown versions.
//
// The returned map's elements of one kind share a backing array, as its
// polylines and ID lists share arena chunks: one element, polyline or
// list kept alive keeps its array alive. Each polyline and ID list is
// capacity-capped, so appending to one reallocates it and never writes
// a neighbour.
func DecodeBinary(data []byte) (*core.Map, error) {
	t, err := parseTile(data)
	if err != nil {
		return nil, err
	}
	return mapOf(string(t.name), t)
}
