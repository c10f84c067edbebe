package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
)

// ErrNoTile is returned when a requested tile or layer does not exist.
var ErrNoTile = errors.New("storage: tile not found")

// TileKey addresses one tile of one named layer. Layers decouple
// independently-updatable map content (base geometry vs crowdsourced
// feature layers, Kim et al. [31]): updating one layer never rewrites the
// others.
type TileKey struct {
	Layer string
	// TX, TY are tile grid coordinates.
	TX, TY int32
}

// Morton returns the interleaved-bits Z-order index of the tile, the
// on-disk ordering that keeps spatially adjacent tiles adjacent in
// storage.
func (k TileKey) Morton() uint64 {
	return interleave(uint32(k.TX)) | interleave(uint32(k.TY))<<1
}

func interleave(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// ErrBadLayer is returned for a layer name ValidLayer refuses.
var ErrBadLayer = errors.New("storage: bad layer name")

// ValidLayer reports whether name can name a layer: not empty, not "."
// or "..", and free of '/', '\' and NUL — so that it is one path
// element wherever a store keeps a layer as a directory.
func ValidLayer(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, "/\\\x00")
}

// ParseTileKey builds a key from the three elements a tile route
// carries, refusing a layer that is not ValidLayer and coordinates that
// are not 32-bit decimals.
func ParseTileKey(layer, txs, tys string) (TileKey, error) {
	if !ValidLayer(layer) {
		return TileKey{}, fmt.Errorf("%w %q", ErrBadLayer, layer)
	}
	tx, err := strconv.ParseInt(txs, 10, 32)
	if err != nil {
		return TileKey{}, fmt.Errorf("bad tx: %w", err)
	}
	ty, err := strconv.ParseInt(tys, 10, 32)
	if err != nil {
		return TileKey{}, fmt.Errorf("bad ty: %w", err)
	}
	return TileKey{Layer: layer, TX: int32(tx), TY: int32(ty)}, nil
}

// TileStore persists map tiles by layer. Implementations must be safe
// for concurrent readers with a single writer per tile.
type TileStore interface {
	// Put stores a tile's encoded bytes.
	Put(key TileKey, data []byte) error
	// Get retrieves a tile; it returns ErrNoTile when absent.
	Get(key TileKey) ([]byte, error)
	// Keys lists all stored tiles of a layer in Morton order. The slice
	// is the caller's to keep and to write.
	Keys(layer string) ([]TileKey, error)
	// ListLayers names every layer with at least one tile, sorted.
	ListLayers() ([]string, error)
	// Delete removes a tile; deleting a missing tile is not an error.
	Delete(key TileKey) error
}

// layerKeys is the keys of one layer in Morton order, no key twice: what
// Keys returns, kept in memory so that a listing reads no directory and
// sorts nothing.
type layerKeys []TileKey

// find is where key is in ks, or where it would be inserted.
func (ks layerKeys) find(key TileKey) (int, bool) {
	m := key.Morton()
	i := sort.Search(len(ks), func(i int) bool { return ks[i].Morton() >= m })
	return i, i < len(ks) && ks[i].TX == key.TX && ks[i].TY == key.TY
}

func (ks layerKeys) with(key TileKey) layerKeys {
	i, ok := ks.find(key)
	if ok {
		return ks
	}
	return slices.Insert(ks, i, key)
}

// forget takes key out of its layer's keys in index, and the layer out
// of index with its last key: an index holds no empty layer.
func forget(index map[string]layerKeys, key TileKey) {
	ks, listed := index[key.Layer]
	if !listed {
		return
	}
	if i, ok := ks.find(key); ok {
		ks = slices.Delete(ks, i, i+1)
	}
	if len(ks) > 0 {
		index[key.Layer] = ks
	} else {
		delete(index, key.Layer)
	}
}

// MemStore is an in-memory TileStore.
type MemStore struct {
	mu    sync.RWMutex
	tiles map[TileKey][]byte
	// keys lists the tiles by layer; a layer without tiles has no entry.
	keys map[string]layerKeys
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{tiles: make(map[TileKey][]byte), keys: make(map[string]layerKeys)}
}

// Put implements TileStore.
func (s *MemStore) Put(key TileKey, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	if _, ok := s.tiles[key]; !ok {
		s.keys[key.Layer] = s.keys[key.Layer].with(key)
	}
	s.tiles[key] = cp
	return nil
}

// Get implements TileStore.
func (s *MemStore) Get(key TileKey) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.tiles[key]
	if !ok {
		return nil, fmt.Errorf("%v: %w", key, ErrNoTile)
	}
	cp := make([]byte, len(d))
	copy(cp, d)
	return cp, nil
}

// Keys implements TileStore. The result is the caller's own copy.
func (s *MemStore) Keys(layer string) ([]TileKey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.keys[layer]), nil
}

// ListLayers implements TileStore.
func (s *MemStore) ListLayers() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.keys))
	for l := range s.keys {
		out = append(out, l)
	}
	sortStrings(out)
	return out, nil
}

// Delete implements TileStore.
func (s *MemStore) Delete(key TileKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tiles[key]; !ok {
		return nil
	}
	delete(s.tiles, key)
	forget(s.keys, key)
	return nil
}

// DirStore is a directory-backed TileStore: one file per tile,
// layer/morton.tile. While it is open the store owns its directory: a
// tile file another process drops in is served by Get at once but listed
// only after the store is opened again.
type DirStore struct {
	root string

	// mu orders every change of a layer directory's tile set (the rename
	// that lands a Put, the remove of a Delete) with the listing that
	// reads it, so that layers never misses a tile or keeps a removed one.
	mu sync.Mutex
	// layers holds the keys of each layer listed so far that had a tile —
	// read off the directory once, then kept by Put and Delete. A layer
	// that is absent or empty has no entry, whoever asks for it.
	layers map[string]layerKeys
}

// NewDirStore creates (if needed) and opens a directory store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open dir store: %w", err)
	}
	return &DirStore{root: root}, nil
}

// tileFile is the name of a tile's file in its layer's directory: the
// Morton code in 16 hex digits first, so that names sort in Morton
// order.
func tileFile(key TileKey) string {
	return fmt.Sprintf("%016x_%d_%d.tile", key.Morton(), key.TX, key.TY)
}

// parseTileFile is the inverse of tileFile, and strict: ok only for
// exactly the name tileFile gives some tile, so that whatever else is in
// the directory — a torn write's .tmp, a file under the wrong Morton
// code — is never listed as a tile Get could not find, or twice.
func parseTileFile(name string) (tx, ty int32, ok bool) {
	rest, ok := strings.CutSuffix(name, ".tile")
	if !ok || len(rest) < 17 || rest[16] != '_' {
		return 0, 0, false
	}
	var morton uint64
	for _, c := range []byte(rest[:16]) {
		switch {
		case c >= '0' && c <= '9':
			morton = morton<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			morton = morton<<4 | uint64(c-'a'+10)
		default:
			return 0, 0, false
		}
	}
	txs, tys, ok := strings.Cut(rest[17:], "_")
	if !ok {
		return 0, 0, false
	}
	tx, okx := canonicalInt32(txs)
	ty, oky := canonicalInt32(tys)
	if !okx || !oky || (TileKey{TX: tx, TY: ty}).Morton() != morton {
		return 0, 0, false
	}
	return tx, ty, true
}

// canonicalInt32 parses s if it is the one way %d prints an int32: no
// plus sign, no leading zeros, no "-0".
func canonicalInt32(s string) (int32, bool) {
	digits := strings.TrimPrefix(s, "-")
	if digits == "" || digits[0] == '+' || (digits[0] == '0' && s != "0") {
		return 0, false
	}
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v), err == nil
}

// dir is the layer's directory. A layer name that is not ValidLayer
// could name a directory outside the store's root, and is refused.
func (s *DirStore) dir(layer string) (string, error) {
	if !ValidLayer(layer) {
		return "", fmt.Errorf("%w %q", ErrBadLayer, layer)
	}
	return filepath.Join(s.root, layer), nil
}

func (s *DirStore) path(key TileKey) (string, error) {
	dir, err := s.dir(key.Layer)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, tileFile(key)), nil
}

// Put implements TileStore. The bytes are written to a temporary file of
// the writer's own and renamed into place, so concurrent Puts of one key
// leave one writer's payload whole. The temporary name never ends in
// ".tile": a torn one is not listed.
func (s *DirStore) Put(key TileKey, data []byte) error {
	path, err := s.path(key)
	if err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	tmp, err := writeTemp(path, data)
	if err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // nothing to do about a leftover; it is never listed
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	if ks, listed := s.layers[key.Layer]; listed {
		s.layers[key.Layer] = ks.with(key)
	}
	return nil
}

// writeTemp writes data to a new file beside path and returns its name.
func writeTemp(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp makes it 0600; a tile is as readable as before
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(f.Name()) // as in Put
		return "", err
	}
	return f.Name(), nil
}

// Get implements TileStore.
func (s *DirStore) Get(key TileKey) ([]byte, error) {
	path, err := s.path(key)
	if err != nil {
		return nil, fmt.Errorf("storage: get %v: %w", key, err)
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%v: %w", key, ErrNoTile)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get %v: %w", key, err)
	}
	return data, nil
}

// Keys implements TileStore. The result is the caller's own copy.
func (s *DirStore) Keys(layer string) ([]TileKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ks, err := s.keysLocked(layer)
	return slices.Clone(ks), err
}

// keysLocked returns the layer's keys as the store keeps them — not to be
// written or kept past mu. A layer not listed before costs one directory
// read: ReadDir returns the names sorted, which for tile files is Morton
// order already.
func (s *DirStore) keysLocked(layer string) (layerKeys, error) {
	if ks, listed := s.layers[layer]; listed {
		return ks, nil
	}
	dir, err := s.dir(layer)
	if err != nil {
		return nil, fmt.Errorf("storage: keys: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: keys %q: %w", layer, err)
	}
	var ks layerKeys
	for _, e := range ents {
		if tx, ty, ok := parseTileFile(e.Name()); ok {
			ks = append(ks, TileKey{Layer: layer, TX: tx, TY: ty})
		}
	}
	if len(ks) > 0 {
		if s.layers == nil {
			s.layers = make(map[string]layerKeys)
		}
		s.layers[layer] = ks
	}
	return ks, nil
}

// ListLayers implements TileStore. A layer is any subdirectory holding
// at least one tile file.
func (s *DirStore) ListLayers() ([]string, error) {
	ents, err := os.ReadDir(s.root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: list layers: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		ks, err := s.keysLocked(e.Name())
		if err == nil && len(ks) > 0 {
			out = append(out, e.Name())
		}
	}
	sortStrings(out)
	return out, nil
}

// Delete implements TileStore.
func (s *DirStore) Delete(key TileKey) error {
	path, err := s.path(key)
	if err != nil {
		return fmt.Errorf("storage: delete %v: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	forget(s.layers, key)
	return nil
}

// Tiler splits maps into fixed-size square tiles and reassembles them.
type Tiler struct {
	// TileSize is the tile edge length in metres (default 500).
	TileSize float64
}

// tileOf returns the tile coordinates containing p.
func (t Tiler) tileOf(p geo.Vec2) (int32, int32) {
	size := t.TileSize
	if size <= 0 {
		size = 500
	}
	return int32(math.Floor(p.X / size)), int32(math.Floor(p.Y / size))
}

// tileName names the sub-map Split makes of m's part in a tile.
func tileName(m *core.Map, key TileKey) string {
	return fmt.Sprintf("%s/%d_%d", m.Name, key.TX, key.TY)
}

// Split partitions a map into per-tile sub-maps by element anchor
// position (centroid). Relational elements follow their centreline
// anchor; references crossing tiles are preserved by ID (tile consumers
// stitch on load).
func (t Tiler) Split(m *core.Map, layer string) map[TileKey]*core.Map {
	out := make(map[TileKey]*core.Map)
	get := func(p geo.Vec2) *core.Map {
		key := t.keyOf(layer, p)
		sm, ok := out[key]
		if !ok {
			sm = core.NewMap(tileName(m, key))
			out[key] = sm
		}
		return sm
	}
	// Each tile's clock is the max stamp of ITS elements, so tiles whose
	// content did not change encode byte-identically across re-splits —
	// the property incremental tile pushes rely on.
	bump := func(sm *core.Map, stamp uint64) {
		if stamp > sm.Clock {
			sm.SetClock(stamp)
		}
	}
	for _, id := range m.PointIDs() {
		p, _ := m.Point(id)
		sm := get(p.Pos.XY())
		_ = sm.RestorePoint(*p)
		bump(sm, p.Meta.Stamp)
	}
	for _, id := range m.LineIDs() {
		l, _ := m.Line(id)
		sm := get(l.Geometry.Centroid())
		_ = sm.RestoreLine(*l)
		bump(sm, l.Meta.Stamp)
	}
	for _, id := range m.AreaIDs() {
		a, _ := m.Area(id)
		sm := get(geo.Polyline(a.Outline).Centroid())
		_ = sm.RestoreArea(*a)
		bump(sm, a.Meta.Stamp)
	}
	for _, id := range m.LaneletIDs() {
		l, _ := m.Lanelet(id)
		sm := get(l.Centerline.Centroid())
		_ = sm.RestoreLanelet(*l)
		bump(sm, l.Meta.Stamp)
	}
	for _, id := range m.BundleIDs() {
		b, _ := m.Bundle(id)
		sm := get(b.RefLine.Centroid())
		_ = sm.RestoreBundle(*b)
		bump(sm, b.Meta.Stamp)
	}
	for _, id := range m.RegulatoryIDs() {
		r, _ := m.Regulatory(id)
		_ = get(regAnchor(m, r)).RestoreRegulatory(*r)
	}
	return out
}

// SaveMap splits a map into tiles and writes them to the store under
// layer.
func (t Tiler) SaveMap(store TileStore, m *core.Map, layer string) (int, error) {
	tiles := t.Split(m, layer)
	for key, sm := range tiles {
		if err := store.Put(key, EncodeBinary(sm)); err != nil {
			return 0, fmt.Errorf("storage: save tile %v: %w", key, err)
		}
	}
	return len(tiles), nil
}

// regAnchorID names the element a regulatory element is homed with: its
// first device, else its first governed lanelet; ok is false when it
// names neither.
func regAnchorID(r *core.RegulatoryElement) (kind int, id core.ID, ok bool) {
	switch {
	case len(r.Devices) > 0:
		return kindPoint, r.Devices[0], true
	case len(r.Lanelets) > 0:
		return kindLanelet, r.Lanelets[0], true
	}
	return 0, 0, false
}

// regAnchor is where a regulatory element sits for tiling: with the
// element regAnchorID names, at the origin when m does not hold it.
func regAnchor(m *core.Map, r *core.RegulatoryElement) geo.Vec2 {
	var at geo.Vec2
	if kind, id, ok := regAnchorID(r); ok {
		at, _ = anchor(m, kind, id)
	}
	return at
}

// anchor is the position that decides which tile m's element id of the
// given kind belongs to — what Split reads of it; ok is false when m
// holds no such element.
func anchor(m *core.Map, kind int, id core.ID) (at geo.Vec2, ok bool) {
	switch kind {
	case kindPoint:
		if p, err := m.Point(id); err == nil {
			return p.Pos.XY(), true
		}
	case kindLine:
		if l, err := m.Line(id); err == nil {
			return l.Geometry.Centroid(), true
		}
	case kindArea:
		if a, err := m.Area(id); err == nil {
			return geo.Polyline(a.Outline).Centroid(), true
		}
	case kindLanelet:
		if l, err := m.Lanelet(id); err == nil {
			return l.Centerline.Centroid(), true
		}
	case kindBundle:
		if b, err := m.Bundle(id); err == nil {
			return b.RefLine.Centroid(), true
		}
	case kindReg:
		if r, err := m.Regulatory(id); err == nil {
			return regAnchor(m, r), true
		}
	}
	return geo.Vec2{}, false
}

// SyncStats counts what one sync did to a layer's tiles.
type SyncStats struct {
	Saved, Unchanged, Deleted int
}

// Publisher keeps one layer of a tile store in step with the successive
// versions of a map, at a cost in proportion to what a version changed.
// It is sound as long as nobody else writes the layer. Not safe for
// concurrent use.
type Publisher struct {
	tiler Tiler
	store TileStore
	layer string

	// sums is the manifest: the CRC32-C of every tile the publisher put
	// in the layer. A tile whose encoding still has that checksum and
	// which the store still lists is left alone.
	sums map[TileKey]uint32
	// last is the version published last and split the IDs of its
	// elements by the tile Split puts them in — IDs, not elements or
	// bytes: a tile is encoded out of the version itself. Both are nil
	// when no publish has succeeded since the last failure.
	last  *core.Map
	split map[TileKey]*kindIDs
}

// NewPublisher returns a publisher that remembers nothing yet: its
// first Sync writes every tile.
func NewPublisher(t Tiler, store TileStore, layer string) *Publisher {
	return &Publisher{tiler: t, store: store, layer: layer, sums: make(map[TileKey]uint32)}
}

// Sync makes the layer's stored tile set exactly Split(m)'s, tile for
// tile the bytes SaveMap writes: it puts the tiles that differ from
// what it put before and deletes stale ones left over from an earlier
// version — an element migrating across a tile boundary (or a rollback
// shrinking the map) would otherwise leave its old tile behind and
// LoadMap would stitch the element twice.
//
// m must never be written again: the next Sync finds what changed by
// comparing its map with m, moves only those elements between tiles and
// encodes only the tiles they touch or leave. A tile the manifest or
// the store's listing does not know is encoded and put whatever
// changed. After an error the split is forgotten — the next Sync splits
// in full and falls back on the checksums — and so is the checksum of
// a tile whose put failed: what the store holds of it is anyone's
// guess.
func (p *Publisher) Sync(m *core.Map) (SyncStats, error) {
	var dirty map[TileKey]bool // nil: every tile may have changed
	if p.last == nil || p.last == m {
		// Nothing to compare with; the same map again cannot say what
		// changed in it.
		p.split = p.tiler.members(m, p.layer)
	} else {
		dirty = p.resplit(m)
	}
	p.last = m
	st, err := p.write(m, dirty)
	if err != nil {
		p.last, p.split = nil, nil
	}
	return st, err
}

// members is Split without the sub-maps: which elements each tile holds.
func (t Tiler) members(m *core.Map, layer string) map[TileKey]*kindIDs {
	out := make(map[TileKey]*kindIDs)
	all := kindIDs{m.PointIDs(), m.LineIDs(), m.AreaIDs(), m.LaneletIDs(), m.BundleIDs(), m.RegulatoryIDs()}
	for kind, ids := range all {
		for _, id := range ids {
			at, _ := anchor(m, kind, id)
			key := t.keyOf(layer, at)
			tile, ok := out[key]
			if !ok {
				tile = new(kindIDs)
				out[key] = tile
			}
			tile[kind] = append(tile[kind], id) // ascending, as ids is
		}
	}
	return out
}

func (t Tiler) keyOf(layer string, at geo.Vec2) TileKey {
	tx, ty := t.tileOf(at)
	return TileKey{Layer: layer, TX: tx, TY: ty}
}

// resplit turns the split of p.last into the split of m by moving the
// elements that differ, and returns the tiles that gained, lost or hold
// one of them: the only tiles whose bytes can differ.
func (p *Publisher) resplit(m *core.Map) map[TileKey]bool {
	changed := changesByKind(m.ChangedFrom(p.last))
	dirty := make(map[TileKey]bool)
	rehome := func(kind int, id core.ID) {
		was, had := anchor(p.last, kind, id)
		is, has := anchor(m, kind, id)
		from, to := p.tiler.keyOf(p.layer, was), p.tiler.keyOf(p.layer, is)
		if had {
			dirty[from] = true
		}
		if has {
			dirty[to] = true
		}
		if had && has && from == to {
			return
		}
		if had {
			tile := p.split[from]
			if i, ok := slices.BinarySearch(tile[kind], id); ok {
				tile[kind] = slices.Delete(tile[kind], i, i+1)
			}
			if tile.empty() {
				delete(p.split, from) // Split would not make it
			}
		}
		if has {
			tile, ok := p.split[to]
			if !ok {
				tile = new(kindIDs)
				p.split[to] = tile
			}
			if i, ok := slices.BinarySearch(tile[kind], id); !ok {
				tile[kind] = slices.Insert(tile[kind], i, id)
			}
		}
	}
	for kind, ids := range changed {
		for id := range ids {
			rehome(kind, id)
		}
	}
	// A regulatory element that did not change still follows the element
	// it is homed with.
	if len(changed[kindPoint])+len(changed[kindLanelet]) > 0 {
		for _, id := range m.RegulatoryIDs() {
			if _, done := changed[kindReg][id]; done {
				continue
			}
			r, _ := m.Regulatory(id)
			if kind, with, ok := regAnchorID(r); ok {
				if _, moved := changed[kind][with]; moved {
					rehome(kindReg, id)
				}
			}
		}
	}
	return dirty
}

// write puts the tiles of p.split that may differ from the store's and
// deletes the stored tiles the split does not have.
func (p *Publisher) write(m *core.Map, dirty map[TileKey]bool) (SyncStats, error) {
	var st SyncStats
	keys, err := p.store.Keys(p.layer)
	if err != nil {
		return st, fmt.Errorf("storage: sync layer %q: %w", p.layer, err)
	}
	stored := make(map[TileKey]bool, len(keys))
	for _, key := range keys {
		stored[key] = true
	}
	for key, ids := range p.split {
		last, known := p.sums[key]
		known = known && stored[key]
		if known && dirty != nil && !dirty[key] {
			st.Unchanged++
			continue
		}
		data := encodeSubset(m, tileName(m, key), tileClock(m, ids), ids)
		sum := crc32.Checksum(data, castagnoli)
		if known && last == sum {
			st.Unchanged++
			continue
		}
		if err := p.store.Put(key, data); err != nil {
			delete(p.sums, key)
			return st, fmt.Errorf("storage: save tile %v: %w", key, err)
		}
		p.sums[key] = sum
		st.Saved++
	}
	for _, key := range keys {
		if _, live := p.split[key]; live {
			continue
		}
		if err := p.store.Delete(key); err != nil {
			return st, fmt.Errorf("storage: drop stale tile %v: %w", key, err)
		}
		delete(p.sums, key)
		st.Deleted++
	}
	return st, nil
}

// tileClock is the clock Split gives the tile holding these elements
// of m: the latest stamp among them, regulatory elements aside.
func tileClock(m *core.Map, ids *kindIDs) uint64 {
	clock := latest(0, ids[kindPoint], m.Point, func(e *core.PointElement) uint64 { return e.Meta.Stamp })
	clock = latest(clock, ids[kindLine], m.Line, func(e *core.LineElement) uint64 { return e.Meta.Stamp })
	clock = latest(clock, ids[kindArea], m.Area, func(e *core.AreaElement) uint64 { return e.Meta.Stamp })
	clock = latest(clock, ids[kindLanelet], m.Lanelet, func(e *core.Lanelet) uint64 { return e.Meta.Stamp })
	return latest(clock, ids[kindBundle], m.Bundle, func(e *core.LaneBundle) uint64 { return e.Meta.Stamp })
}

func latest[T any](clock uint64, ids []core.ID, get func(core.ID) (*T, error), stamp func(*T) uint64) uint64 {
	for _, id := range ids {
		if e, err := get(id); err == nil {
			clock = max(clock, stamp(e))
		}
	}
	return clock
}

// SyncMap makes layer's stored tile set exactly m's in one go: a
// Publisher that remembers nothing, so every tile is written.
func (t Tiler) SyncMap(store TileStore, m *core.Map, layer string) (SyncStats, error) {
	return NewPublisher(t, store, layer).Sync(m)
}

// LoadMap reads all tiles of a layer and lands them in one map.
// Element IDs are preserved (they were globally unique at split time);
// a duplicated element across tiles is an error. The reassembled map's
// logical clock is the maximum element stamp across tiles (per-tile
// clocks are content-derived so unchanged tiles stay byte-identical).
// The map shares backing arrays as DecodeBinary's does.
func (t Tiler) LoadMap(store TileStore, layer, name string) (*core.Map, error) {
	keys, err := store.Keys(layer)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("layer %q: %w", layer, ErrNoTile)
	}
	tiles := make([]*parsedTile, len(keys))
	for i, key := range keys {
		data, err := store.Get(key)
		if err != nil {
			return nil, err
		}
		if tiles[i], err = parseTile(data); err != nil {
			return nil, fmt.Errorf("storage: tile %v: %w", key, err)
		}
	}
	return mapOf(name, tiles...)
}
