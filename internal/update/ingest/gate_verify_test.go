package ingest

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/obs"
	"hdmaps/internal/worldgen"
)

// TestGateQuarantinesCorruption closes the loop between the worldgen
// adversarial suite and the commit gate: every corruption class,
// applied to a committed city, must be rejected by Commit with a
// mapverify violation and accounted on the per-rule counters — while
// the pristine genesis and a benign follow-up commit sail through.
func TestGateQuarantinesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := worldgen.GenerateGrid(worldgen.GridParams{
		Rows: 4, Cols: 4, Lanes: 2, TrafficLights: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	vs := NewVersionStore(GateConfig{Metrics: reg})
	if _, err := vs.Commit(g.Map, "genesis"); err != nil {
		t.Fatalf("pristine genesis rejected: %v", err)
	}

	mapverifyRejects := func() uint64 {
		var n uint64
		for _, rule := range mapverify.RuleNames() {
			n += reg.CounterVec("ingest.gate.mapverify", mapverify.RuleNames()).With(rule).Value()
		}
		return n
	}

	for _, kind := range worldgen.CorruptionKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m := vs.Current()
			c, ok := worldgen.ApplyCorruption(m, kind, rng)
			if !ok {
				t.Fatalf("no victim for %s", kind)
			}
			before := mapverifyRejects()
			_, err := vs.Commit(m, "corrupted")
			var ge *GateError
			if !errors.As(err, &ge) {
				t.Fatalf("%s on lanelet %d (%s) was committed, want gate rejection",
					kind, c.ID, c.Detail)
			}
			found := false
			for _, v := range ge.Violations {
				if v.Invariant == "mapverify" {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s rejected, but not by the mapverify invariant: %v", kind, ge.Violations)
			}
			// The store checked the candidate starting from its parent's
			// report; the verdict is the full pass's.
			if full := CheckCommit(vs.Frozen(), m, vs.gate); !reflect.DeepEqual(ge.Violations, full) {
				t.Fatalf("%s: store rejected with %v, a full check gives %v", kind, ge.Violations, full)
			}
			if after := mapverifyRejects(); after <= before {
				t.Fatalf("%s: per-rule counters did not move (%d -> %d)", kind, before, after)
			}
		})
	}

	if seq := vs.CurrentSeq(); seq != 1 {
		t.Fatalf("corrupted commits advanced the store to seq %d", seq)
	}

	// A benign maintenance change still commits.
	m := vs.Current()
	site := worldgen.ConstructionSite{
		Center: m.Bounds().Center(), Radius: 60,
		AddCount: 2, MoveProb: 0.3, MoveStd: 0.5,
	}
	worldgen.ApplyConstruction(&worldgen.World{Map: m}, site, rng)
	if _, err := vs.Commit(m, "maintenance"); err != nil {
		t.Fatalf("benign maintenance commit rejected: %v", err)
	}

	// DisableVerify turns the invariant off: the corruption commits.
	loose := NewVersionStore(GateConfig{DisableVerify: true, Metrics: obs.NewRegistry()})
	if _, err := loose.Commit(g.Map, "genesis"); err != nil {
		t.Fatal(err)
	}
	m2 := loose.Current()
	if _, ok := worldgen.ApplyCorruption(m2, worldgen.CorruptSpeedCliff, rng); !ok {
		t.Fatal("no victim")
	}
	if _, err := loose.Commit(m2, "unchecked"); err != nil {
		t.Fatalf("DisableVerify store still rejected: %v", err)
	}
}

// TestGateBlocksWarnFloodedMap: the gate's block decision keys on the
// engine's full Error count and the engine retains Error entries
// preferentially under its violation cap, so a map that floods the
// report with Warn findings before its single Error still cannot
// commit.
func TestGateBlocksWarnFloodedMap(t *testing.T) {
	m := core.NewMap("flood")
	addLane := func(y, speed float64) {
		if _, err := m.AddLaneFromCenterline(core.LaneSpec{
			Centerline: geo.Polyline{geo.V2(0, y), geo.V2(10, y)},
			Width:      3.5, SpeedLimit: speed, Source: "test",
		}); err != nil {
			t.Fatal(err)
		}
	}
	// 12 disconnected lanes emit an orphan Warn each; the last lane's
	// out-of-range speed is the only Error and is recorded after every
	// Warn has already filled the 8-entry cap.
	for i := 0; i < 12; i++ {
		addLane(float64(20*i), 10)
	}
	addLane(400, 200)

	viol := CheckCommit(nil, m, GateConfig{Verify: mapverify.Config{MaxViolations: 8}})
	found := false
	for _, v := range viol {
		if v.Invariant == "mapverify" {
			found = true
		}
	}
	if !found {
		t.Fatalf("warn-flooded map passed the gate: %v", viol)
	}
}
