package storage

import (
	"fmt"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// header reads magic, version, name and clock — the prefix DecodeBinary
// and PeekClock share.
func (r *reader) header() (name string, clock uint64, err error) {
	magic := r.uvarint()
	if r.err == nil && magic != binaryMagic {
		return "", 0, fmt.Errorf("magic %x: %w", magic, ErrBadFormat)
	}
	version := r.uvarint()
	if r.err == nil && version != binaryVersion {
		return "", 0, fmt.Errorf("version %d: %w", version, ErrVersion)
	}
	name = r.str()
	clock = r.uvarint()
	return name, clock, r.err
}

// section reads a section's element count and returns it with the size
// to reserve for it: the count, bounded by what the rest of the input
// could hold (no element encodes in under 16 bytes), so a forged count
// reserves nothing the input does not pay for.
func (r *reader) section() (n uint64, reserve int) {
	n = r.uvarint()
	if most := uint64(len(r.buf) / 16); n > most {
		return n, int(most)
	}
	return n, int(n)
}

// restored records the result of restoring a completely read element.
func (r *reader) restored(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

// DecodeBinary parses a map from the compact vector format. It returns
// ErrBadFormat (wrapped) for structurally invalid input and ErrVersion
// for unknown versions. The polylines of the returned map share vertex
// arena chunks; each is capacity-capped, so they never overlap.
func DecodeBinary(data []byte) (*core.Map, error) {
	r := &reader{buf: data}
	name, clock, err := r.header()
	if err != nil {
		return nil, err
	}
	m := core.NewMap(name)
	m.SetClock(clock)

	// Every loop stops at the reader's first failure, so a forged count
	// costs one failed element, and an element is restored only when all
	// of it was read.
	n, reserve := r.section()
	m.Reserve(reserve, 0, 0, 0, 0, 0)
	for ; n > 0 && r.err == nil; n-- {
		var p core.PointElement
		p.ID = core.ID(r.uvarint())
		p.Class = core.Class(r.uvarint())
		x, y, z := r.varint(), r.varint(), r.varint()
		p.Pos = geo.V3(float64(x)*coordUnit, float64(y)*coordUnit, float64(z)*coordUnit)
		p.Heading = r.float()
		p.Attr = r.attrs()
		p.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestorePoint(p))
		}
	}

	n, reserve = r.section()
	m.Reserve(0, reserve, 0, 0, 0, 0)
	for ; n > 0 && r.err == nil; n-- {
		var l core.LineElement
		l.ID = core.ID(r.uvarint())
		l.Class = core.Class(r.uvarint())
		l.Boundary = core.BoundaryType(r.uvarint())
		l.Geometry = r.polyline()
		l.Attr = r.attrs()
		l.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestoreLine(l))
		}
	}

	n, reserve = r.section()
	m.Reserve(0, 0, reserve, 0, 0, 0)
	for ; n > 0 && r.err == nil; n-- {
		var a core.AreaElement
		a.ID = core.ID(r.uvarint())
		a.Class = core.Class(r.uvarint())
		a.Outline = geo.Polygon(r.polyline())
		a.Attr = r.attrs()
		a.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestoreArea(a))
		}
	}

	n, reserve = r.section()
	m.Reserve(0, 0, 0, reserve, 0, 0)
	for ; n > 0 && r.err == nil; n-- {
		var l core.Lanelet
		l.ID = core.ID(r.uvarint())
		l.Left, l.Right = core.ID(r.uvarint()), core.ID(r.uvarint())
		l.Centerline = r.polyline()
		l.Type = core.LaneType(r.uvarint())
		l.SpeedLimit = r.float()
		l.Successors = r.ids()
		l.LeftNeighbor, l.RightNeighbor = core.ID(r.uvarint()), core.ID(r.uvarint())
		l.Regulatory = r.ids()
		l.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestoreLanelet(l))
		}
	}

	n, reserve = r.section()
	m.Reserve(0, 0, 0, 0, reserve, 0)
	for ; n > 0 && r.err == nil; n-- {
		var b core.LaneBundle
		b.ID = core.ID(r.uvarint())
		b.RoadID = r.varint()
		b.Lanelets = r.ids()
		b.RefLine = r.polyline()
		b.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestoreBundle(b))
		}
	}

	n, reserve = r.section()
	m.Reserve(0, 0, 0, 0, 0, reserve)
	for ; n > 0 && r.err == nil; n-- {
		var reg core.RegulatoryElement
		reg.ID = core.ID(r.uvarint())
		reg.Kind = core.RegulatoryKind(r.uvarint())
		reg.Devices = r.ids()
		reg.StopLine = core.ID(r.uvarint())
		reg.Lanelets = r.ids()
		reg.Value = r.float()
		reg.Meta = r.meta()
		if r.err == nil {
			r.restored(m.RestoreRegulatory(reg))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}
