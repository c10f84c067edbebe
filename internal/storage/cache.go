package storage

import (
	"container/list"
	"sort"
	"sync"
	"time"
)

// TileCache keeps last-known-good tile payloads on the vehicle so the
// map stack can keep working — explicitly flagged as degraded — when
// the distribution server is unreachable. It is a bounded LRU keyed by
// TileKey and safe for concurrent use.
type TileCache struct {
	mu    sync.Mutex
	max   int
	tiles map[TileKey]*list.Element // of *cacheEntry
	// order holds the entries most recently used first, so the eviction
	// victim is always its back.
	order *list.List
}

type cacheEntry struct {
	key  TileKey
	data []byte
	// state is what the server said of the tile when data was fetched:
	// its clock and the checksum data was verified against. The zero
	// state (absent) is a payload nobody vouched for; it equals no state
	// a manifest lists.
	state    ReplicaState
	storedAt time.Time
}

// NewTileCache creates a cache holding at most max tiles (<=0 means
// 1024).
func NewTileCache(max int) *TileCache {
	if max <= 0 {
		max = 1024
	}
	return &TileCache{max: max, tiles: make(map[TileKey]*list.Element), order: list.New()}
}

// Put stores (a copy of) a tile payload as the last-known-good version
// for its key, evicting the least recently used entry when full.
func (c *TileCache) Put(key TileKey, data []byte) {
	c.put(key, data, ReplicaState{})
}

// put is Put for a payload fetched under state.
func (c *TileCache) put(key TileKey, data []byte, state ReplicaState) {
	e := &cacheEntry{key: key, data: append([]byte(nil), data...), state: state, storedAt: time.Now()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.tiles[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	if len(c.tiles) >= c.max {
		victim := c.order.Back()
		delete(c.tiles, victim.Value.(*cacheEntry).key)
		c.order.Remove(victim)
	}
	c.tiles[key] = c.order.PushFront(e)
}

// Get returns the cached payload, when it was stored, and whether it
// was present. A hit refreshes recency. The slice is the cache's own
// copy, shared with every other reader of the key: it is read-only.
func (c *TileCache) Get(key TileKey) ([]byte, time.Time, bool) {
	e := c.get(key)
	if e == nil {
		return nil, time.Time{}, false
	}
	return e.data, e.storedAt, true
}

// get is Get returning the whole entry, nil on a miss. Entries are never
// written once stored.
func (c *TileCache) get(key TileKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.tiles[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// Keys lists cached tiles of a layer in Morton order — the offline
// fallback for region listing when the server is down.
func (c *TileCache) Keys(layer string) []TileKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []TileKey
	for k := range c.tiles {
		if k.Layer == layer {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Morton() < out[j].Morton() })
	return out
}

// Len reports how many tiles are cached.
func (c *TileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tiles)
}
