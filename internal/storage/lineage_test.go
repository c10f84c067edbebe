package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/core/coretest"
)

// fullLayer is the reference a publisher is held against: Split, and
// every tile encoded.
func fullLayer(t Tiler, m *core.Map, layer string) map[TileKey][]byte {
	out := make(map[TileKey][]byte)
	for key, sm := range t.Split(m, layer) {
		out[key] = EncodeBinary(sm)
	}
	return out
}

// lineage walks one version store's worth of state — the frozen
// snapshot, the remembered encoding, a publisher — through edits, the
// way VersionStore.Commit and Service.publishCurrent do, and holds
// every step against the full paths.
type lineage struct {
	tiler  Tiler
	store  *MemStore
	flaky  *putFailer
	pub    *Publisher
	work   *core.Map // what the next edit starts from
	frozen *core.Map
	enc    *Encoding
	was    map[TileKey][]byte // the layer one step back
	// How often the walk met the cases the publisher's rules exist for.
	created, emptied, regFollowed, clockFell int
}

func newLineage(rng *rand.Rand) *lineage {
	l := &lineage{tiler: Tiler{TileSize: 40 + rng.Float64()*160}, store: NewMemStore(), work: coretest.Map(rng)}
	l.flaky = &putFailer{TileStore: l.store}
	l.pub = NewPublisher(l.tiler, l.flaky, "serve")
	l.frozen = l.work.Clone()
	l.frozen.FreezeIndexes()
	l.enc = EncodeFrom(nil, l.frozen, core.Changes{})
	return l
}

// commit makes next the lineage's current version.
func (l *lineage) commit(next *core.Map) {
	ch := next.ChangedFrom(l.frozen)
	l.frozen = l.frozen.Successor(next, ch)
	l.enc = EncodeFrom(l.enc, l.frozen, ch)
	l.work = next
}

// rollback makes an archived encoding the current version, decoded:
// nothing is shared with what came before and nothing remembered.
func (l *lineage) rollback(data []byte) error {
	m, err := DecodeBinary(data)
	if err != nil {
		return err
	}
	m.FreezeIndexes()
	l.frozen, l.enc, l.work = m, nil, m.Clone()
	return nil
}

// homedReg is a regulatory element and the tile a reference layer
// holds it in.
type homedReg struct {
	home TileKey
	reg  *core.RegulatoryElement
}

func regHomes(layer map[TileKey][]byte) map[core.ID]homedReg {
	out := make(map[core.ID]homedReg)
	for key, data := range layer {
		if m, err := DecodeBinary(data); err == nil {
			for _, id := range m.RegulatoryIDs() {
				r, _ := m.Regulatory(id)
				out[id] = homedReg{key, r}
			}
		}
	}
	return out
}

// check publishes the current version and compares archive encoding
// and published layer with the full paths.
func (l *lineage) check() error {
	if l.enc != nil {
		if want := EncodeBinary(l.work); !bytes.Equal(l.enc.Bytes, want) {
			return fmt.Errorf("spliced encoding (%d bytes) differs from EncodeBinary (%d bytes)", len(l.enc.Bytes), len(want))
		}
	}
	if _, err := l.pub.Sync(l.frozen); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	want := fullLayer(l.tiler, l.work, "serve")
	if !reflect.DeepEqual(l.store.tiles, want) {
		for key, data := range want {
			if got, ok := l.store.tiles[key]; !ok || !bytes.Equal(got, data) {
				return fmt.Errorf("published tile %v (stored: %v) differs from Split's", key, ok)
			}
		}
		return fmt.Errorf("published layer holds %d tiles, Split makes %d", len(l.store.tiles), len(want))
	}
	if l.was != nil {
		homes, before := regHomes(want), regHomes(l.was)
		for key, data := range want {
			old, ok := l.was[key]
			if !ok {
				l.created++
				continue
			}
			if a, _ := PeekClock(data); a < mustClock(old) {
				l.clockFell++
			}
		}
		for key := range l.was {
			if _, ok := want[key]; !ok {
				l.emptied++
			}
		}
		for id, now := range homes {
			if prev, ok := before[id]; ok && prev.home != now.home && prev.reg.Equal(now.reg) {
				l.regFollowed++
			}
		}
	}
	l.was = want
	return nil
}

func mustClock(data []byte) uint64 {
	c, _ := PeekClock(data)
	return c
}

// TestLineageMatchesFullPaths: along a thousand seeded chains of edits
// to every kind — elements crossing tile boundaries, tiles emptied and
// created, regulatory elements following the element they are homed
// with, IDs reused across kinds — with rollbacks, forgotten encodings,
// failed puts and tiles deleted behind the publisher thrown in, every
// archived encoding is EncodeBinary's and every published layer is
// Split's, key for key and byte for byte.
func TestLineageMatchesFullPaths(t *testing.T) {
	const chains, steps = 1000, 6
	var created, emptied, regFollowed, clockFell, splices int
	for seed := int64(0); seed < chains; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newLineage(rng)
		archive := [][]byte{l.enc.Bytes}
		for step := 0; step <= steps; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch roll := rng.Intn(20); {
			case step == 0: // the base version, as made
			case roll == 0:
				if err := l.rollback(archive[rng.Intn(len(archive))]); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			default:
				if roll == 1 {
					l.enc = nil // nothing to splice from: encoded in full
				}
				if l.enc != nil {
					splices++
				}
				l.commit(coretest.Edit(l.work, rng))
				archive = append(archive, l.enc.Bytes)
			}
			keys, _ := l.store.Keys("serve")
			if len(keys) > 0 && rng.Intn(10) == 0 {
				if err := l.store.Delete(keys[rng.Intn(len(keys))]); err != nil {
					t.Fatal(err)
				}
			}
			if len(keys) > 0 && rng.Intn(10) == 0 {
				// One tile's put fails. Whether or not this publish wanted
				// to write it, the next one must leave the layer right.
				l.flaky.fail, l.flaky.armed = keys[rng.Intn(len(keys))], true
				_, _ = l.pub.Sync(l.frozen)
				l.flaky.armed = false
			}
			if err := l.check(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		created, emptied = created+l.created, emptied+l.emptied
		regFollowed, clockFell = regFollowed+l.regFollowed, clockFell+l.clockFell
	}
	t.Logf("%d spliced encodings; tiles created %d, emptied %d, clock fell %d; regulatory elements re-homed %d",
		splices, created, emptied, clockFell, regFollowed)
	if created < 100 || emptied < 100 || regFollowed < 100 || clockFell < 100 || splices < chains {
		t.Fatal("fixture: the chains seldom meet the cases they are here for")
	}
}

// script is a rand.Source that plays back fuzz input, zeros once it
// runs out, so that the fuzzer's mutations are mutations of the edits.
type script struct{ data []byte }

func (s *script) Int63() int64 {
	var b [8]byte
	s.data = s.data[copy(b[:], s.data):]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *script) Seed(int64) {}

// FuzzEncodeFrom holds the spliced encoding and the patched split
// against the full paths along an edit chain the input scripts.
func FuzzEncodeFrom(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &script{data: data}
		rng := rand.New(src)
		l := newLineage(rng)
		for step := 0; step < 8 && len(src.data) > 0; step++ {
			l.commit(coretest.Edit(l.work, rng))
			if err := l.check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
