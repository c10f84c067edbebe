package storage

// The decoder as it stood before the cursor reader replaced it, kept
// verbatim (names prefixed "oracle") as the reference the differential
// tests compare DecodeBinary against: a bytes.Reader read a byte at a
// time, one slice per polyline, one Restore per element.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// oracleReader parses the binary stream.
type oracleReader struct {
	buf *bytes.Reader
}

func (r *oracleReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.buf)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return v, nil
}

func (r *oracleReader) varint() (int64, error) {
	v, err := binary.ReadVarint(r.buf)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return v, nil
}

func (r *oracleReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if n > uint64(r.buf.Len()) {
		return "", fmt.Errorf("%w: string length %d exceeds remaining input", ErrBadFormat, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.buf, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return string(b), nil
}

func (r *oracleReader) float() (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.buf, b[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (r *oracleReader) polyline() (geo.Polyline, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each vertex is two varints of >= 1 byte each, so n vertices need
	// at least 2n remaining bytes; checking before make() stops a forged
	// count from over-allocating.
	if n > uint64(r.buf.Len())/2 {
		return nil, fmt.Errorf("%w: polyline of %d vertices exceeds input", ErrBadFormat, n)
	}
	out := make(geo.Polyline, n)
	var px, py int64
	for i := range out {
		dx, err := r.varint()
		if err != nil {
			return nil, err
		}
		dy, err := r.varint()
		if err != nil {
			return nil, err
		}
		px += dx
		py += dy
		out[i] = geo.V2(float64(px)*coordUnit, float64(py)*coordUnit)
	}
	return out, nil
}

func (r *oracleReader) attrs() (map[string]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Each attr is two strings with >= 1 length byte apiece.
	if n > uint64(r.buf.Len())/2 {
		return nil, fmt.Errorf("%w: attr count %d exceeds input", ErrBadFormat, n)
	}
	out := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		v, err := r.str()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func (r *oracleReader) meta() (core.Meta, error) {
	var m core.Meta
	v, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Version = int(v)
	if m.Stamp, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.Confidence, err = r.float(); err != nil {
		return m, err
	}
	obs, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Observy = int(obs)
	if m.Source, err = r.str(); err != nil {
		return m, err
	}
	return m, nil
}

func (r *oracleReader) ids() ([]core.ID, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.buf.Len()) {
		return nil, fmt.Errorf("%w: id count %d exceeds input", ErrBadFormat, n)
	}
	out := make([]core.ID, n)
	for i := range out {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = core.ID(v)
	}
	return out, nil
}

// oracleDecodeBinary parses a map from the compact vector format. It
// returns ErrBadFormat (wrapped) for structurally invalid input and
// ErrVersion for unknown versions.
func oracleDecodeBinary(data []byte) (*core.Map, error) {
	r := &oracleReader{buf: bytes.NewReader(data)}
	magic, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("magic %x: %w", magic, ErrBadFormat)
	}
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("version %d: %w", version, ErrVersion)
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	clock, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	m := core.NewMap(name)
	m.SetClock(clock)

	nPoints, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nPoints; i++ {
		var p core.PointElement
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		p.ID = core.ID(id)
		class, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		p.Class = core.Class(class)
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		y, err := r.varint()
		if err != nil {
			return nil, err
		}
		z, err := r.varint()
		if err != nil {
			return nil, err
		}
		p.Pos = geo.V3(float64(x)*coordUnit, float64(y)*coordUnit, float64(z)*coordUnit)
		if p.Heading, err = r.float(); err != nil {
			return nil, err
		}
		if p.Attr, err = r.attrs(); err != nil {
			return nil, err
		}
		if p.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestorePoint(p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}

	nLines, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nLines; i++ {
		var l core.LineElement
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.ID = core.ID(id)
		class, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.Class = core.Class(class)
		btype, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.Boundary = core.BoundaryType(btype)
		if l.Geometry, err = r.polyline(); err != nil {
			return nil, err
		}
		if l.Attr, err = r.attrs(); err != nil {
			return nil, err
		}
		if l.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestoreLine(l); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}

	nAreas, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nAreas; i++ {
		var a core.AreaElement
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		a.ID = core.ID(id)
		class, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		a.Class = core.Class(class)
		pl, err := r.polyline()
		if err != nil {
			return nil, err
		}
		a.Outline = geo.Polygon(pl)
		if a.Attr, err = r.attrs(); err != nil {
			return nil, err
		}
		if a.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestoreArea(a); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}

	nLL, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nLL; i++ {
		var l core.Lanelet
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.ID = core.ID(id)
		left, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		right, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.Left, l.Right = core.ID(left), core.ID(right)
		if l.Centerline, err = r.polyline(); err != nil {
			return nil, err
		}
		lt, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.Type = core.LaneType(lt)
		if l.SpeedLimit, err = r.float(); err != nil {
			return nil, err
		}
		if l.Successors, err = r.ids(); err != nil {
			return nil, err
		}
		ln, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l.LeftNeighbor, l.RightNeighbor = core.ID(ln), core.ID(rn)
		if l.Regulatory, err = r.ids(); err != nil {
			return nil, err
		}
		if l.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestoreLanelet(l); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}

	nB, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nB; i++ {
		var b core.LaneBundle
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b.ID = core.ID(id)
		if b.RoadID, err = r.varint(); err != nil {
			return nil, err
		}
		if b.Lanelets, err = r.ids(); err != nil {
			return nil, err
		}
		if b.RefLine, err = r.polyline(); err != nil {
			return nil, err
		}
		if b.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestoreBundle(b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}

	nR, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nR; i++ {
		var reg core.RegulatoryElement
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		reg.ID = core.ID(id)
		kind, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		reg.Kind = core.RegulatoryKind(kind)
		if reg.Devices, err = r.ids(); err != nil {
			return nil, err
		}
		sl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		reg.StopLine = core.ID(sl)
		if reg.Lanelets, err = r.ids(); err != nil {
			return nil, err
		}
		if reg.Value, err = r.float(); err != nil {
			return nil, err
		}
		if reg.Meta, err = r.meta(); err != nil {
			return nil, err
		}
		if err := m.RestoreRegulatory(reg); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	return m, nil
}
