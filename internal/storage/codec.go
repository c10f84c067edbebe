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
	"sync"

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

// writer builds the binary stream by appending to buf.
type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *writer) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
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

// One record per element kind. A record reads nothing but its element
// — every polyline delta-codes from the origin — so its bytes are the
// same wherever in whichever stream it is written: what lets EncodeFrom
// copy the records of unchanged elements out of an earlier encoding.

func (w *writer) point(p *core.PointElement) {
	w.uvarint(uint64(p.ID))
	w.uvarint(uint64(p.Class))
	w.varint(quant(p.Pos.X))
	w.varint(quant(p.Pos.Y))
	w.varint(quant(p.Pos.Z))
	w.float(p.Heading)
	w.attrs(p.Attr)
	w.meta(p.Meta)
}

func (w *writer) line(l *core.LineElement) {
	w.uvarint(uint64(l.ID))
	w.uvarint(uint64(l.Class))
	w.uvarint(uint64(l.Boundary))
	w.polyline(l.Geometry)
	w.attrs(l.Attr)
	w.meta(l.Meta)
}

func (w *writer) area(a *core.AreaElement) {
	w.uvarint(uint64(a.ID))
	w.uvarint(uint64(a.Class))
	w.polyline(geo.Polyline(a.Outline))
	w.attrs(a.Attr)
	w.meta(a.Meta)
}

func (w *writer) lanelet(l *core.Lanelet) {
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

func (w *writer) bundle(b *core.LaneBundle) {
	w.uvarint(uint64(b.ID))
	w.varint(b.RoadID)
	w.ids(b.Lanelets)
	w.polyline(b.RefLine)
	w.meta(b.Meta)
}

func (w *writer) regulatory(r *core.RegulatoryElement) {
	w.uvarint(uint64(r.ID))
	w.uvarint(uint64(r.Kind))
	w.ids(r.Devices)
	w.uvarint(uint64(r.StopLine))
	w.ids(r.Lanelets)
	w.float(r.Value)
	w.meta(r.Meta)
}

// The element kinds, in the order their tables are written.
const (
	kindPoint = iota
	kindLine
	kindArea
	kindLanelet
	kindBundle
	kindReg
	numKinds
)

// kindIDs holds ascending element IDs, one list per kind.
type kindIDs [numKinds][]core.ID

func (k *kindIDs) empty() bool {
	for _, ids := range k {
		if len(ids) > 0 {
			return false
		}
	}
	return true
}

func changesByKind(ch core.Changes) [numKinds]map[core.ID]struct{} {
	return [numKinds]map[core.ID]struct{}{ch.Points, ch.Lines, ch.Areas, ch.Lanelets, ch.Bundles, ch.Regs}
}

// Encoding is an EncodeBinary output that remembers where in it each
// element's record sits, for EncodeFrom to copy from.
type Encoding struct {
	// Bytes is the encoding itself. It is not a copy: whoever keeps the
	// Encoding must not write it.
	Bytes []byte
	// tables is nil when the positions were not kept.
	tables *[numKinds]table
}

// table locates one element table in an Encoding: record i belongs to
// ids[i] and ends at start+ends[i], where the next one starts. Nothing
// in it is written once set, so successive encodings share the ids and
// ends of a table no change touched.
type table struct {
	ids   []core.ID
	start int
	ends  []uint32
}

func (t *table) record(data []byte, i int) []byte {
	from := 0
	if i > 0 {
		from = int(t.ends[i-1])
	}
	return data[t.start+from : t.start+int(t.ends[i])]
}

// encoder is one encoding job.
type encoder struct {
	*writer
	m *core.Map
	// only, when set, names the elements of m to write; all otherwise.
	only *kindIDs
	// prev, when set, kept its positions and encodes a map from which m
	// differs under the IDs in changed, by kind, and nowhere else.
	prev    *Encoding
	changed [numKinds]map[core.ID]struct{}
	// index, when set, is told where each table lands.
	index *[numKinds]table
}

// writers recycles encode buffers. An encoding of unknown size is built
// in one and handed out as a copy of exactly its size, so that no
// output — many are kept: archived versions, stored tiles — carries
// growth slack.
var writers = sync.Pool{New: func() any { return new(writer) }}

// encode writes the stream and returns it.
func (e *encoder) encode(name string, clock uint64) []byte {
	if e.prev != nil {
		// The size is the previous encoding's, give or take what changed:
		// write straight into the output, with a little room.
		n := len(e.prev.Bytes)
		e.writer = &writer{buf: make([]byte, 0, n+n/64+256)}
	} else {
		e.writer = writers.Get().(*writer)
	}
	e.uvarint(binaryMagic)
	e.uvarint(binaryVersion)
	e.str(name)
	e.uvarint(clock)
	m := e.m
	section(e, kindPoint, m.PointIDs, m.Point, (*writer).point)
	section(e, kindLine, m.LineIDs, m.Line, (*writer).line)
	section(e, kindArea, m.AreaIDs, m.Area, (*writer).area)
	section(e, kindLanelet, m.LaneletIDs, m.Lanelet, (*writer).lanelet)
	section(e, kindBundle, m.BundleIDs, m.Bundle, (*writer).bundle)
	section(e, kindReg, m.RegulatoryIDs, m.Regulatory, (*writer).regulatory)
	if e.prev != nil {
		return e.buf
	}
	out := bytes.Clone(e.buf)
	e.buf = e.buf[:0]
	writers.Put(e.writer)
	return out
}

// section writes one element table: its count, then a record per
// element in ascending ID order — copied from the previous encoding
// where there is one and the element did not change.
func section[T any](e *encoder, k int, all func() []core.ID, get func(core.ID) (*T, error), put func(*writer, *T)) {
	var old *table
	if e.prev != nil {
		old = &e.prev.tables[k]
	}
	untouched := old != nil && len(e.changed[k]) == 0
	var ids []core.ID
	switch {
	case e.only != nil:
		ids = e.only[k]
	case untouched:
		ids = old.ids // no ID came or went
	default:
		ids = all()
	}
	e.uvarint(uint64(len(ids)))
	start := len(e.buf)
	var ends []uint32
	if untouched {
		ends = old.ends
		if n := len(ends); n > 0 {
			e.buf = append(e.buf, e.prev.Bytes[old.start:old.start+int(ends[n-1])]...)
		}
	} else {
		if e.index != nil {
			ends = make([]uint32, len(ids))
		}
		j := 0
		for i, id := range ids {
			for old != nil && j < len(old.ids) && old.ids[j] < id {
				j++
			}
			_, dirty := e.changed[k][id]
			if old != nil && !dirty && j < len(old.ids) && old.ids[j] == id {
				e.buf = append(e.buf, old.record(e.prev.Bytes, j)...)
			} else {
				el, _ := get(id)
				put(e.writer, el)
			}
			if ends != nil {
				ends[i] = uint32(len(e.buf) - start)
			}
		}
	}
	if e.index != nil {
		e.index[k] = table{ids: ids, start: start, ends: ends}
	}
}

// EncodeBinary serialises a map to the compact vector format.
func EncodeBinary(m *core.Map) []byte {
	e := encoder{m: m}
	return e.encode(m.Name, m.Clock)
}

// EncodeFrom is EncodeBinary(m), byte for byte, as an Encoding, made
// from prev where it can be: prev must encode a map from which m
// differs by ch (m.ChangedFrom of that map), and the records of the
// elements ch does not name are copied out of it. A nil prev, or one
// that kept no positions, encodes m in full.
func EncodeFrom(prev *Encoding, m *core.Map, ch core.Changes) *Encoding {
	e := encoder{m: m, index: new([numKinds]table)}
	if prev != nil && prev.tables != nil {
		e.prev, e.changed = prev, changesByKind(ch)
	}
	out := &Encoding{Bytes: e.encode(m.Name, m.Clock), tables: e.index}
	if len(out.Bytes) > math.MaxUint32 {
		out.tables = nil // positions are kept in 32 bits
	}
	return out
}

// encodeSubset is EncodeBinary of the map named name, with that clock,
// that holds the elements of m that ids lists and nothing else.
func encodeSubset(m *core.Map, name string, clock uint64, ids *kindIDs) []byte {
	e := encoder{m: m, only: ids}
	return e.encode(name, clock)
}

// The decoder carves every polyline and ID list out of arenas — chunks
// shared by the lists of one payload — instead of allocating each. One
// rule sizes a chunk: never less than the list that asked for it, and
// beyond that no more than the rest of the input could still fill (a
// vertex takes at least 2 bytes; ID lists are sparse, so theirs counts
// on one ID per 8 bytes), up to a cap small enough that a 2 KB tile does
// not pay for a city tile's chunk and that one surviving list never pins
// much more than itself. A forged count is refused before it gets here.
const (
	// arenaChunk caps a vertex chunk (32 KiB of Vec2).
	arenaChunk = 2048
	// idChunk caps an ID chunk (512 bytes).
	idChunk = 64
)

// reader is a cursor over an encoded payload: buf is the whole input and
// off how much of it was read, an integer so that no field read stores a
// pointer. The first failure is sticky: it is recorded in err and off
// moves to the end, so every later read fails fast and returns zero —
// callers decode a whole element and check err once.
type reader struct {
	buf []byte
	off int
	err error
	// verts and ids are the unused tails of the current arena chunks.
	verts []geo.Vec2
	ids   []core.ID
	// strs interns the few short strings (attr keys, Meta.Source) that
	// repeat on every element of a tile.
	strs map[string]string
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
	}
	r.off = len(r.buf)
}

// rest is how many bytes are still unread.
func (r *reader) rest() int { return len(r.buf) - r.off }

// uvarintFast reads a one- or two-byte uvarint at buf[off:] — nearly
// every field of a tile — and returns it with the offset after it. Any
// other, and one that ends the input, it leaves to uvarintSlow, and
// returns off. It is small enough to be inlined.
func uvarintFast(buf []byte, off int) (uint64, int) {
	if off+1 < len(buf) {
		b0, b1 := buf[off], buf[off+1]
		if b0 < 0x80 {
			return uint64(b0), off + 1
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, off + 2
		}
	}
	return 0, off
}

// uvarintSlow reads any uvarint at buf[off:]; the offset it returns is
// negative when the varint is truncated or overlong.
func uvarintSlow(buf []byte, off int) (uint64, int) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, -1
	}
	return v, off + n
}

// unzigzag is the signed value binary.Varint makes of a uvarint.
func unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) uvarint() uint64 {
	v, next := uvarintFast(r.buf, r.off)
	if next == r.off {
		if v, next = uvarintSlow(r.buf, r.off); next < 0 {
			r.fail("truncated or overlong varint")
			return 0
		}
	}
	r.off = next
	return v
}

func (r *reader) varint() int64 { return unzigzag(r.uvarint()) }

// count reads an element count and rejects one the rest of the input
// cannot hold at minBytes per element, so a forged count never sizes an
// allocation.
func (r *reader) count(what string, minBytes int) int {
	n := r.uvarint()
	if n > uint64(r.rest()/minBytes) {
		r.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed field as a slice of the input.
func (r *reader) bytes() []byte {
	n := r.count("string byte", 1)
	b := r.buf[r.off : r.off+n]
	r.off += n
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
	if r.rest() < 8 {
		r.fail("unexpected end of input")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// carve takes n elements off the front of an arena, first replacing an
// arena too short for them with a new chunk: room for what the rest of
// the input could still fill at bytesPer bytes an element, up to limit.
// The slice is capacity-capped, so appending to it reallocates it
// instead of writing into its neighbour.
func carve[T any](arena *[]T, n, rest, bytesPer, limit int) []T {
	if n > len(*arena) {
		*arena = make([]T, max(n, min(limit, rest/bytesPer)))
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return out
}

// polyline carves the vertices out of the decode's vertex arena.
func (r *reader) polyline() geo.Polyline {
	// Each vertex is two varints of >= 1 byte each.
	n := r.count("polyline vertex", 2)
	if n == 0 {
		return geo.Polyline{}
	}
	out := carve(&r.verts, n, r.rest(), 2, arenaChunk)
	// The cursor stays in locals for the length of the loop.
	buf, off := r.buf, r.off
	var px, py int64
	for i := range out {
		dx, mid := uvarintFast(buf, off)
		if mid == off {
			if dx, mid = uvarintSlow(buf, off); mid < 0 {
				off = mid
				break
			}
		}
		dy, end := uvarintFast(buf, mid)
		if end == mid {
			if dy, end = uvarintSlow(buf, mid); end < 0 {
				off = end
				break
			}
		}
		off = end
		px += unzigzag(dx)
		py += unzigzag(dy)
		out[i] = geo.V2(float64(px)*coordUnit, float64(py)*coordUnit)
	}
	if off < 0 {
		r.fail("truncated or overlong varint")
		return nil
	}
	r.off = off
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

// idList carves an ID list out of the decode's ID arena.
func (r *reader) idList() []core.ID {
	n := r.count("id", 1)
	if n == 0 {
		return nil
	}
	out := carve(&r.ids, n, r.rest(), 8, idChunk)
	for i := range out {
		out[i] = core.ID(r.uvarint())
	}
	return out
}
