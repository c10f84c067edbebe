package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Cluster-internal layer prefixes. Layers carrying these prefixes are
// machinery, not map data: hint-- layers park hinted-handoff copies on
// fallback nodes, tomb-- layers hold deletion markers shadowing their
// live layer. Both are hidden from client-facing listings; the tile
// server stores hint-layer payloads raw (tile or tombstone bytes) and
// refuses direct writes to tomb-- layers, whose contents only change
// through tombstone writes on the live key.
const (
	HintLayerPrefix = "hint--"
	TombLayerPrefix = "tomb--"
)

// IsInternalLayer reports whether a layer name is cluster machinery
// (handoff or tombstone storage) rather than map data.
func IsInternalLayer(name string) bool {
	return strings.HasPrefix(name, HintLayerPrefix) || strings.HasPrefix(name, TombLayerPrefix)
}

// tombLayer names the shadow layer holding deletion markers for layer.
func tombLayer(layer string) string { return TombLayerPrefix + layer }

// TombstoneHeader marks a 404 tile response as "deleted, not absent":
// its value is the deletion clock and the response body is the marker
// bytes (checksummed via ChecksumHeader as usual), so a cluster router
// can propagate the exact marker to stale replicas.
const TombstoneHeader = "X-Tile-Tombstone"

// ExpectHeader carries a conditional-write precondition on PUT/DELETE:
// the state the caller observed, in ReplicaState.String() form. The shard
// evaluates it atomically with the mutation and answers 412 (with the
// current state in StateHeader) on mismatch — this is what closes the
// read-then-overwrite race in cluster repair.
const ExpectHeader = "X-Tile-Expect"

// StateHeader reports a shard's current per-key state on 409/412
// responses, in ReplicaState.String() form.
const StateHeader = "X-Tile-State"

// ReplicaState is one replica's per-key state as used by conditional
// writes: absent, a live tile (clock + write-time checksum), or a
// tombstone (deletion clock). Found and Tomb are mutually exclusive.
type ReplicaState struct {
	Found bool
	Tomb  bool
	Clock uint64
	Sum   string
}

// String renders the state for ExpectHeader/StateHeader:
// "absent", "live:<clock>:<crc>", or "tomb:<clock>".
func (s ReplicaState) String() string {
	switch {
	case s.Tomb:
		return "tomb:" + strconv.FormatUint(s.Clock, 10)
	case s.Found:
		return "live:" + strconv.FormatUint(s.Clock, 10) + ":" + s.Sum
	default:
		return "absent"
	}
}

// ParseReplicaState parses a ReplicaState.String() value.
func ParseReplicaState(v string) (ReplicaState, error) {
	switch {
	case v == "absent":
		return ReplicaState{}, nil
	case strings.HasPrefix(v, "tomb:"):
		clock, err := strconv.ParseUint(v[len("tomb:"):], 10, 64)
		if err != nil {
			return ReplicaState{}, fmt.Errorf("bad tombstone state %q: %w", v, err)
		}
		return ReplicaState{Tomb: true, Clock: clock}, nil
	case strings.HasPrefix(v, "live:"):
		rest := v[len("live:"):]
		i := strings.IndexByte(rest, ':')
		if i < 0 {
			return ReplicaState{}, fmt.Errorf("bad live state %q", v)
		}
		clock, err := strconv.ParseUint(rest[:i], 10, 64)
		if err != nil {
			return ReplicaState{}, fmt.Errorf("bad live state %q: %w", v, err)
		}
		return ReplicaState{Found: true, Clock: clock, Sum: rest[i+1:]}, nil
	default:
		return ReplicaState{}, errors.New("bad tile state " + strconv.Quote(v))
	}
}

// Present reports whether the replica holds anything for the key — a
// live tile or a deletion marker.
func (s ReplicaState) Present() bool { return s.Found || s.Tomb }

// Compare orders two states as far as FresherState can without the
// payload bytes: present beats absent, then logical clock, then
// tombstone beats live. c is +1 when s is fresher, -1 when o is, 0 when
// the two are identical (same kind, clock and checksum — the trust
// ExpectHeader matching already places in the pair). ordered is false
// when only the bytes can decide: same kind and clock, different
// checksums. The caller must then compare payloads, not guess.
func (s ReplicaState) Compare(o ReplicaState) (c int, ordered bool) {
	switch {
	case s.Present() != o.Present():
		c = -1
		if s.Present() {
			c = 1
		}
	case s.Clock != o.Clock:
		c = -1
		if s.Clock > o.Clock {
			c = 1
		}
	case s.Tomb != o.Tomb:
		c = -1
		if s.Tomb {
			c = 1
		}
	case s.Sum != o.Sum:
		return 0, false
	}
	return c, true
}

// FresherState is the cluster's total order over per-key replica
// states, extended to deletions: logical clock first; on a clock tie a
// tombstone beats a live tile (a delete at clock c cannot be undone by
// a write at the same c); same-kind ties fall to bytes.Compare on the
// payload. The order is deterministic, so every quorum read, repair,
// and anti-entropy sweep picks the same winner and replicas converge
// byte-identical — including agreeing on which keys are deleted.
func FresherState(tombA bool, clockA uint64, dataA []byte, tombB bool, clockB uint64, dataB []byte) bool {
	if clockA != clockB {
		return clockA > clockB
	}
	if tombA != tombB {
		return tombA
	}
	return bytes.Compare(dataA, dataB) > 0
}
