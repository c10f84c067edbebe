package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
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

// TileStore persists map tiles by layer. Implementations must be safe
// for concurrent readers with a single writer per tile.
type TileStore interface {
	// Put stores a tile's encoded bytes.
	Put(key TileKey, data []byte) error
	// Get retrieves a tile; it returns ErrNoTile when absent.
	Get(key TileKey) ([]byte, error)
	// Keys lists all stored tiles of a layer in Morton order.
	Keys(layer string) ([]TileKey, error)
	// ListLayers names every layer with at least one tile, sorted.
	ListLayers() ([]string, error)
	// Delete removes a tile; deleting a missing tile is not an error.
	Delete(key TileKey) error
}

// MemStore is an in-memory TileStore.
type MemStore struct {
	mu    sync.RWMutex
	tiles map[TileKey][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{tiles: make(map[TileKey][]byte)}
}

// Put implements TileStore.
func (s *MemStore) Put(key TileKey, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
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

// Keys implements TileStore.
func (s *MemStore) Keys(layer string) ([]TileKey, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []TileKey
	for k := range s.tiles {
		if k.Layer == layer {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Morton() < out[j].Morton() })
	return out, nil
}

// ListLayers implements TileStore.
func (s *MemStore) ListLayers() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	for k := range s.tiles {
		seen[k.Layer] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sortStrings(out)
	return out, nil
}

// Delete implements TileStore.
func (s *MemStore) Delete(key TileKey) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tiles, key)
	return nil
}

// DirStore is a directory-backed TileStore: one file per tile,
// layer/morton.tile.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed) and opens a directory store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open dir store: %w", err)
	}
	return &DirStore{root: root}, nil
}

func (s *DirStore) path(key TileKey) string {
	return filepath.Join(s.root, key.Layer, fmt.Sprintf("%016x_%d_%d.tile", key.Morton(), key.TX, key.TY))
}

// Put implements TileStore.
func (s *DirStore) Put(key TileKey, data []byte) error {
	dir := filepath.Join(s.root, key.Layer)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		return fmt.Errorf("storage: put %v: %w", key, err)
	}
	return nil
}

// Get implements TileStore.
func (s *DirStore) Get(key TileKey) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%v: %w", key, ErrNoTile)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: get %v: %w", key, err)
	}
	return data, nil
}

// Keys implements TileStore.
func (s *DirStore) Keys(layer string) ([]TileKey, error) {
	dir := filepath.Join(s.root, layer)
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: keys %q: %w", layer, err)
	}
	var out []TileKey
	for _, e := range ents {
		var morton uint64
		var tx, ty int32
		if _, err := fmt.Sscanf(e.Name(), "%016x_%d_%d.tile", &morton, &tx, &ty); err != nil {
			continue
		}
		out = append(out, TileKey{Layer: layer, TX: tx, TY: ty})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Morton() < out[j].Morton() })
	return out, nil
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
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		keys, err := s.Keys(e.Name())
		if err == nil && len(keys) > 0 {
			out = append(out, e.Name())
		}
	}
	sortStrings(out)
	return out, nil
}

// Delete implements TileStore.
func (s *DirStore) Delete(key TileKey) error {
	err := os.Remove(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
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

// Split partitions a map into per-tile sub-maps by element anchor
// position (centroid). Relational elements follow their centreline
// anchor; references crossing tiles are preserved by ID (tile consumers
// stitch on load).
func (t Tiler) Split(m *core.Map, layer string) map[TileKey]*core.Map {
	out := make(map[TileKey]*core.Map)
	get := func(p geo.Vec2) *core.Map {
		tx, ty := t.tileOf(p)
		key := TileKey{Layer: layer, TX: tx, TY: ty}
		sm, ok := out[key]
		if !ok {
			sm = core.NewMap(fmt.Sprintf("%s/%d_%d", m.Name, tx, ty))
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
		// Anchor regulatory elements at their first device, else first
		// governed lanelet.
		anchor := geo.Vec2{}
		if len(r.Devices) > 0 {
			if p, err := m.Point(r.Devices[0]); err == nil {
				anchor = p.Pos.XY()
			}
		} else if len(r.Lanelets) > 0 {
			if l, err := m.Lanelet(r.Lanelets[0]); err == nil {
				anchor = l.Centerline.Centroid()
			}
		}
		_ = get(anchor).RestoreRegulatory(*r)
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

// SyncStats counts what one SyncMap did to a layer's tiles.
type SyncStats struct {
	Saved, Unchanged, Deleted int
}

// SyncMap makes layer's stored tile set exactly m's: it writes the
// tiles of the split and deletes stale tiles left over from a previous
// version of the layer. SaveMap alone is not enough when a layer is
// republished — an element migrating across a tile boundary (or a
// rollback shrinking the map) would otherwise leave its old tile behind
// and LoadMap would stitch the element twice.
//
// written is the publisher's memory of the layer: the CRC32-C of every
// tile its earlier calls put there. A tile whose encoding still has
// that checksum and which the store still lists is left alone, which
// is sound as long as nobody else writes the layer. SyncMap keeps
// written in step with what it puts and deletes, also when it fails
// part way; nil remembers nothing and writes every tile.
func (t Tiler) SyncMap(store TileStore, m *core.Map, layer string, written map[TileKey]uint32) (SyncStats, error) {
	var st SyncStats
	tiles := t.Split(m, layer)
	keys, err := store.Keys(layer)
	if err != nil {
		return st, fmt.Errorf("storage: sync layer %q: %w", layer, err)
	}
	stored := make(map[TileKey]bool, len(keys))
	for _, key := range keys {
		stored[key] = true
	}
	for key, sm := range tiles {
		data := EncodeBinary(sm)
		sum := crc32.Checksum(data, castagnoli)
		if last, ok := written[key]; ok && last == sum && stored[key] {
			st.Unchanged++
			continue
		}
		if err := store.Put(key, data); err != nil {
			delete(written, key) // what the store holds now is anyone's guess
			return st, fmt.Errorf("storage: save tile %v: %w", key, err)
		}
		if written != nil {
			written[key] = sum
		}
		st.Saved++
	}
	for _, key := range keys {
		if _, live := tiles[key]; live {
			continue
		}
		if err := store.Delete(key); err != nil {
			return st, fmt.Errorf("storage: drop stale tile %v: %w", key, err)
		}
		delete(written, key)
		st.Deleted++
	}
	return st, nil
}

// LoadMap reads all tiles of a layer and stitches them into one map.
// Element IDs are preserved (they were globally unique at split time);
// a duplicated element across tiles is an error. The reassembled map's
// logical clock is the maximum element stamp across tiles (per-tile
// clocks are content-derived so unchanged tiles stay byte-identical).
func (t Tiler) LoadMap(store TileStore, layer, name string) (*core.Map, error) {
	keys, err := store.Keys(layer)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("layer %q: %w", layer, ErrNoTile)
	}
	tiles := make([]*core.Map, len(keys))
	for i, key := range keys {
		data, err := store.Get(key)
		if err != nil {
			return nil, err
		}
		if tiles[i], err = DecodeBinary(data); err != nil {
			return nil, fmt.Errorf("storage: tile %v: %w", key, err)
		}
	}
	return stitch(name, tiles)
}

// stitch merges decoded tile maps into one map, in the order given.
// The tile maps are consumed: the result owns their elements.
func stitch(name string, tiles []*core.Map) (*core.Map, error) {
	out := core.NewMap(name)
	for _, tm := range tiles {
		if err := out.Absorb(tm); err != nil {
			return nil, err
		}
	}
	return out, nil
}
