package storage

import (
	"bytes"
	"testing"
)

// TestTileCacheEvictionOrder: at capacity the victim is the least
// recently used entry, where both Get and Put count as use, and
// overwriting a present key evicts nothing.
func TestTileCacheEvictionOrder(t *testing.T) {
	key := func(i int32) TileKey { return TileKey{Layer: "base", TX: i} }
	c := NewTileCache(3)
	for i := int32(0); i < 3; i++ {
		c.Put(key(i), []byte{byte(i)})
	}
	if _, _, ok := c.Get(key(0)); !ok { // order, oldest first: 1 2 0
		t.Fatal("tile 0 missing before the cache overflowed")
	}
	c.Put(key(1), []byte{11}) // overwrite: 2 0 1
	if c.Len() != 3 {
		t.Fatalf("overwrite changed the size to %d", c.Len())
	}
	c.Put(key(3), []byte{3}) // evicts 2: 0 1 3
	c.Put(key(4), []byte{4}) // evicts 0: 1 3 4
	for i, want := range []bool{false, true, false, true, true} {
		data, _, ok := c.Get(key(int32(i)))
		if ok != want {
			t.Errorf("tile %d present=%v, want %v", i, ok, want)
		}
		if wantData := []byte{byte(i)}; ok && i != 1 && !bytes.Equal(data, wantData) {
			t.Errorf("tile %d holds %v", i, data)
		}
	}
	if data, _, _ := c.Get(key(1)); !bytes.Equal(data, []byte{11}) {
		t.Errorf("overwritten tile holds %v", data)
	}
	if keys := c.Keys("base"); len(keys) != 3 || c.Len() != 3 {
		t.Errorf("cache lists %d keys, holds %d", len(keys), c.Len())
	}
}

// TestTileCachePutCopies: the cache owns its bytes — a caller reusing
// the buffer it Put does not change what the cache serves.
func TestTileCachePutCopies(t *testing.T) {
	c := NewTileCache(2)
	buf := []byte("payload")
	c.Put(TileKey{Layer: "base"}, buf)
	buf[0] = 'X'
	if data, _, _ := c.Get(TileKey{Layer: "base"}); string(data) != "payload" {
		t.Fatalf("cache serves %q", data)
	}
}

// TestTileCacheHitAllocatesNothing: Get hands out the stored slice.
func TestTileCacheHitAllocatesNothing(t *testing.T) {
	c := NewTileCache(4)
	k := TileKey{Layer: "base", TX: 1, TY: 2}
	c.Put(k, make([]byte, 10<<10))
	c.Put(TileKey{Layer: "base"}, []byte{1})
	allocs := testing.AllocsPerRun(100, func() {
		if data, _, ok := c.Get(k); !ok || len(data) != 10<<10 {
			t.Fatal("miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit allocates %.0f times", allocs)
	}
}
