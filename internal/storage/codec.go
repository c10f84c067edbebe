// Package storage provides HD-map persistence: a compact binary codec
// with delta-encoded varint geometry (the "vector map" of Li et al.,
// ~100 KB/mile), a raw point-cloud codec standing in for the
// laser-scan-heavy formats the same paper reports at ~10 MB/mile, a JSON
// codec for interchange, and a Morton-keyed tile store with decoupled
// feature layers (the layer separation of Kim et al.'s crowdsourced
// feature layers).
package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// Binary format constants.
const (
	binaryMagic   = 0x48444d50 // "HDMP"
	binaryVersion = 1
	// coordUnit is the quantisation of stored coordinates: 1 mm, well
	// below the centimetre accuracy HD maps promise.
	coordUnit = 0.001
)

// Codec errors.
var (
	// ErrBadFormat is returned when decoding fails structurally.
	ErrBadFormat = errors.New("storage: bad format")
	// ErrVersion is returned for unsupported format versions.
	ErrVersion = errors.New("storage: unsupported version")
)

// writer builds the binary stream.
type writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	w.buf.Write(b[:])
}

// quant converts a coordinate to integer units.
func quant(v float64) int64 { return int64(math.Round(v / coordUnit)) }

// polyline writes delta-encoded quantised vertices.
func (w *writer) polyline(pl geo.Polyline) {
	w.uvarint(uint64(len(pl)))
	var px, py int64
	for _, p := range pl {
		x, y := quant(p.X), quant(p.Y)
		w.varint(x - px)
		w.varint(y - py)
		px, py = x, y
	}
}

func (w *writer) attrs(a map[string]string) {
	w.uvarint(uint64(len(a)))
	// Deterministic order.
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		w.str(k)
		w.str(a[k])
	}
}

func (w *writer) meta(m core.Meta) {
	w.uvarint(uint64(m.Version))
	w.uvarint(m.Stamp)
	w.float(m.Confidence)
	w.uvarint(uint64(m.Observy))
	w.str(m.Source)
}

func (w *writer) ids(ids []core.ID) {
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.uvarint(uint64(id))
	}
}

// sortStrings is insertion sort (attr maps are tiny; avoids an import).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// EncodeBinary serialises a map to the compact vector format.
func EncodeBinary(m *core.Map) []byte {
	w := &writer{}
	w.uvarint(binaryMagic)
	w.uvarint(binaryVersion)
	w.str(m.Name)
	w.uvarint(m.Clock)

	pointIDs := m.PointIDs()
	w.uvarint(uint64(len(pointIDs)))
	for _, id := range pointIDs {
		p, _ := m.Point(id)
		w.uvarint(uint64(p.ID))
		w.uvarint(uint64(p.Class))
		w.varint(quant(p.Pos.X))
		w.varint(quant(p.Pos.Y))
		w.varint(quant(p.Pos.Z))
		w.float(p.Heading)
		w.attrs(p.Attr)
		w.meta(p.Meta)
	}
	lineIDs := m.LineIDs()
	w.uvarint(uint64(len(lineIDs)))
	for _, id := range lineIDs {
		l, _ := m.Line(id)
		w.uvarint(uint64(l.ID))
		w.uvarint(uint64(l.Class))
		w.uvarint(uint64(l.Boundary))
		w.polyline(l.Geometry)
		w.attrs(l.Attr)
		w.meta(l.Meta)
	}
	areaIDs := m.AreaIDs()
	w.uvarint(uint64(len(areaIDs)))
	for _, id := range areaIDs {
		a, _ := m.Area(id)
		w.uvarint(uint64(a.ID))
		w.uvarint(uint64(a.Class))
		w.polyline(geo.Polyline(a.Outline))
		w.attrs(a.Attr)
		w.meta(a.Meta)
	}
	llIDs := m.LaneletIDs()
	w.uvarint(uint64(len(llIDs)))
	for _, id := range llIDs {
		l, _ := m.Lanelet(id)
		w.uvarint(uint64(l.ID))
		w.uvarint(uint64(l.Left))
		w.uvarint(uint64(l.Right))
		w.polyline(l.Centerline)
		w.uvarint(uint64(l.Type))
		w.float(l.SpeedLimit)
		w.ids(l.Successors)
		w.uvarint(uint64(l.LeftNeighbor))
		w.uvarint(uint64(l.RightNeighbor))
		w.ids(l.Regulatory)
		w.meta(l.Meta)
	}
	bIDs := m.BundleIDs()
	w.uvarint(uint64(len(bIDs)))
	for _, id := range bIDs {
		b, _ := m.Bundle(id)
		w.uvarint(uint64(b.ID))
		w.varint(b.RoadID)
		w.ids(b.Lanelets)
		w.polyline(b.RefLine)
		w.meta(b.Meta)
	}
	rIDs := m.RegulatoryIDs()
	w.uvarint(uint64(len(rIDs)))
	for _, id := range rIDs {
		r, _ := m.Regulatory(id)
		w.uvarint(uint64(r.ID))
		w.uvarint(uint64(r.Kind))
		w.ids(r.Devices)
		w.uvarint(uint64(r.StopLine))
		w.ids(r.Lanelets)
		w.float(r.Value)
		w.meta(r.Meta)
	}
	return w.buf.Bytes()
}

// arenaChunk caps one vertex arena chunk (32 KiB of Vec2): big enough
// that a tile's polylines share a handful of allocations, small enough
// that one surviving polyline never pins much more than itself.
const arenaChunk = 2048

// reader is a cursor over an encoded payload. buf is the unread rest
// of the input. The first failure is sticky: it is recorded in err and
// buf is dropped, so every later read fails fast and returns zero —
// callers decode a whole element and check err once.
type reader struct {
	buf []byte
	err error
	// verts is the unused tail of the current vertex arena chunk.
	verts []geo.Vec2
	// strs interns the few short strings (attr keys, Meta.Source) that
	// repeat on every element of a tile.
	strs map[string]string
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
	}
	r.buf = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads an element count and rejects one the rest of the input
// cannot hold at minBytes per element, so a forged count never sizes an
// allocation.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/minBytes) {
		r.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed field as a slice of the input.
func (r *reader) bytes() []byte {
	n := r.count("string byte", 1)
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

// interned is str for values that repeat across a tile's elements: one
// string per distinct value per decode.
func (r *reader) interned() string {
	b := r.bytes()
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.strs[string(b)]; ok {
		return s
	}
	if r.strs == nil {
		r.strs = make(map[string]string)
	}
	s := string(b)
	r.strs[s] = s
	return s
}

func (r *reader) float() float64 {
	if len(r.buf) < 8 {
		r.fail("unexpected end of input")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// polyline carves the vertices out of the decode's arena. The slice is
// capacity-capped, so appending to one polyline reallocates it instead
// of writing into its neighbour.
func (r *reader) polyline() geo.Polyline {
	// Each vertex is two varints of >= 1 byte each.
	n := r.count("polyline vertex", 2)
	if n == 0 {
		return geo.Polyline{}
	}
	if n > len(r.verts) {
		// A new chunk: room for what the rest of the input can still
		// hold (already >= n), up to arenaChunk.
		r.verts = make([]geo.Vec2, max(n, min(arenaChunk, len(r.buf)/2)))
	}
	out := r.verts[:n:n]
	r.verts = r.verts[n:]
	var px, py int64
	for i := range out {
		px += r.varint()
		py += r.varint()
		out[i] = geo.V2(float64(px)*coordUnit, float64(py)*coordUnit)
	}
	return out
}

func (r *reader) attrs() map[string]string {
	// Each attr is two strings with >= 1 length byte apiece.
	n := r.count("attr", 2)
	if n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.interned()
		out[k] = r.str()
	}
	return out
}

func (r *reader) meta() core.Meta {
	var m core.Meta
	m.Version = int(r.uvarint())
	m.Stamp = r.uvarint()
	m.Confidence = r.float()
	m.Observy = int(r.uvarint())
	m.Source = r.interned()
	return m
}

func (r *reader) ids() []core.ID {
	n := r.count("id", 1)
	if n == 0 {
		return nil
	}
	out := make([]core.ID, n)
	for i := range out {
		out[i] = core.ID(r.uvarint())
	}
	return out
}
