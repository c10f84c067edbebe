package ingest

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
)

// baseMap builds a rows×cols grid of signs spaced 30 m, confidence 0.9.
func baseMap(rows, cols int) *core.Map {
	m := core.NewMap("base")
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.AddPoint(core.PointElement{
				Class: core.ClassSign,
				Pos:   geo.V3(float64(c)*30, float64(r)*30, 2.2),
				Meta:  core.Meta{Confidence: 0.9, Source: "survey"},
			})
		}
	}
	m.FreezeIndexes()
	return m
}

func TestQuarantineCountsAndRing(t *testing.T) {
	q := NewQuarantine(2)
	for i := 0; i < 5; i++ {
		q.Add(Report{Source: "s", Seq: uint64(i)}, ReasonMalformed, "x")
	}
	q.count(ReasonOverload)
	if got := q.Counts()[ReasonMalformed]; got != 5 {
		t.Errorf("malformed count = %d, want 5", got)
	}
	if got := q.Total(); got != 6 {
		t.Errorf("total = %d, want 6", got)
	}
	ents := q.Entries()
	if len(ents) != 2 {
		t.Fatalf("ring holds %d, want 2", len(ents))
	}
	// Oldest-first, most recent retained.
	if ents[0].Report.Seq != 3 || ents[1].Report.Seq != 4 {
		t.Errorf("ring = %d,%d, want 3,4", ents[0].Report.Seq, ents[1].Report.Seq)
	}
}

func TestValidateReportTaxonomy(t *testing.T) {
	good := Report{Source: "v", Seq: 1, Stamp: 1, Observations: []incremental.Observation{
		{Class: core.ClassSign, P: geo.V2(1, 2), PosVar: 0.1, Stamp: 1},
	}}
	if d := validateReport(good); d != "" {
		t.Errorf("good report rejected: %s", d)
	}
	cases := []Report{
		{Seq: 1, Observations: good.Observations},       // no source
		{Source: "v", Seq: 1},                           // empty
		mutObs(good, func(o *incremental.Observation) { o.P.X = math.NaN() }),
		mutObs(good, func(o *incremental.Observation) { o.PosVar = math.Inf(1) }),
		mutObs(good, func(o *incremental.Observation) { o.Class = core.Class(99) }),
	}
	for i, r := range cases {
		if d := validateReport(r); d == "" {
			t.Errorf("case %d accepted, want rejection", i)
		}
	}
}

func mutObs(r Report, f func(*incremental.Observation)) Report {
	cp := r
	cp.Observations = append([]incremental.Observation(nil), r.Observations...)
	f(&cp.Observations[0])
	return cp
}

func TestReportResidualSeparatesByzantine(t *testing.T) {
	m := baseMap(4, 4)
	clean := []incremental.Observation{
		{Class: core.ClassSign, P: geo.V2(0.3, 0.2), PosVar: 0.1},
		{Class: core.ClassSign, P: geo.V2(30.1, -0.4), PosVar: 0.1},
		{Class: core.ClassSign, P: geo.V2(59.8, 0.1), PosVar: 0.1},
	}
	if res := reportResidual(m, clean, 25); res > 1 {
		t.Errorf("clean residual = %v, want small", res)
	}
	shifted := make([]incremental.Observation, len(clean))
	for i, o := range clean {
		o.P = o.P.Add(geo.V2(500, 500))
		shifted[i] = o
	}
	if res := reportResidual(m, shifted, 25); res < 25 {
		t.Errorf("byzantine residual = %v, want capped at 25", res)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := BreakerConfig{
		FailThreshold: 3, OpenFor: time.Minute, HalfOpenProbes: 2, DecayEvery: 2,
		Now: func() time.Time { return now },
	}
	b := NewBreaker(cfg)
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	// Trip on accumulated failures.
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after %d failures, want open", b.State(), 3)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a report")
	}
	// Half-open after the open period, probes close it.
	now = now.Add(61 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after the period")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.Record(true)
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after probes, want closed", b.State())
	}
	// A failed probe re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	now = now.Add(61 * time.Second)
	if !b.Allow() {
		t.Fatal("no half-open probe")
	}
	b.Record(false)
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// Decay: successes while closed forgive accumulated failures.
	now = now.Add(61 * time.Second)
	b.Allow()
	b.Record(true)
	b.Record(true) // closed again
	b.Record(false)
	b.Record(false) // 2 failures accumulated
	if got := b.Failures(); got != 2 {
		t.Fatalf("failures = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	if got := b.Failures(); got != 0 {
		t.Errorf("failures after decay = %d, want 0", got)
	}
	if b.State() != BreakerClosed {
		t.Errorf("state = %v, want closed", b.State())
	}
}

func TestGateInvariants(t *testing.T) {
	parent := baseMap(5, 4) // 20 elements

	t.Run("validate", func(t *testing.T) {
		bad := parent.Clone()
		bad.AddLine(core.LineElement{Class: core.ClassLaneBoundary}) // <2 vertices
		viol := CheckCommit(parent, bad, GateConfig{})
		if !hasInvariant(viol, "validate") {
			t.Errorf("violations = %v, want validate", viol)
		}
	})
	t.Run("mass-deletion", func(t *testing.T) {
		next := parent.Clone()
		for _, id := range next.PointIDs()[:10] {
			_ = next.RemovePoint(id)
		}
		viol := CheckCommit(parent, next, GateConfig{})
		if !hasInvariant(viol, "mass-deletion") {
			t.Errorf("violations = %v, want mass-deletion", viol)
		}
	})
	t.Run("growth", func(t *testing.T) {
		next := parent.Clone()
		for i := 0; i < 50; i++ {
			next.AddPoint(core.PointElement{
				Class: core.ClassSign, Pos: geo.V3(float64(i), 5, 2),
				Meta: core.Meta{Confidence: 0.5},
			})
		}
		viol := CheckCommit(parent, next, GateConfig{})
		if !hasInvariant(viol, "growth") {
			t.Errorf("violations = %v, want growth", viol)
		}
	})
	t.Run("bounds", func(t *testing.T) {
		next := parent.Clone()
		next.AddPoint(core.PointElement{
			Class: core.ClassSign, Pos: geo.V3(5000, 5000, 2),
			Meta: core.Meta{Confidence: 0.5},
		})
		viol := CheckCommit(parent, next, GateConfig{})
		if !hasInvariant(viol, "bounds") {
			t.Errorf("violations = %v, want bounds", viol)
		}
	})
	t.Run("displacement", func(t *testing.T) {
		next := parent.Clone()
		p, _ := next.Point(next.PointIDs()[0])
		p.Pos = geo.V3(p.Pos.X+3, p.Pos.Y, p.Pos.Z)
		viol := CheckCommit(parent, next, GateConfig{MaxDisplacement: 2})
		if !hasInvariant(viol, "displacement") {
			t.Errorf("violations = %v, want displacement", viol)
		}
	})
	t.Run("clean-delta-passes", func(t *testing.T) {
		next := parent.Clone()
		p, _ := next.Point(next.PointIDs()[0])
		p.Pos = geo.V3(p.Pos.X+0.5, p.Pos.Y, p.Pos.Z) // small refinement
		next.AddPoint(core.PointElement{
			Class: core.ClassSign, Pos: geo.V3(45, 45, 2),
			Meta: core.Meta{Confidence: 0.6},
		})
		if viol := CheckCommit(parent, next, GateConfig{}); len(viol) != 0 {
			t.Errorf("clean delta rejected: %v", viol)
		}
	})
}

func hasInvariant(viol []GateViolation, inv string) bool {
	for _, v := range viol {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestVersionStoreCommitRollback(t *testing.T) {
	vs := NewVersionStore(GateConfig{})
	base := baseMap(4, 4)
	v1, err := vs.Commit(base, "genesis")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Seq != 1 || vs.CurrentSeq() != 1 {
		t.Fatalf("seq = %d/%d, want 1/1", v1.Seq, vs.CurrentSeq())
	}
	b1 := vs.CurrentBytes()

	m2 := vs.Current()
	m2.AddPoint(core.PointElement{
		Class: core.ClassSign, Pos: geo.V3(45, 45, 2), Meta: core.Meta{Confidence: 0.6},
	})
	if _, err := vs.Commit(m2, "add sign"); err != nil {
		t.Fatal(err)
	}
	if vs.CurrentSeq() != 2 {
		t.Fatalf("seq = %d, want 2", vs.CurrentSeq())
	}

	// Rejected commit leaves the store untouched.
	bad := vs.Current()
	for _, id := range bad.PointIDs() {
		_ = bad.RemovePoint(id)
	}
	var gerr *GateError
	if _, err := vs.Commit(bad, "wipe"); !errors.As(err, &gerr) {
		t.Fatalf("mass deletion committed: %v", err)
	}
	if vs.CurrentSeq() != 2 || len(vs.Versions()) != 2 {
		t.Fatal("rejected commit mutated the store")
	}

	// Rollback restores version 1 byte-identically, history retained.
	info, err := vs.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || vs.CurrentSeq() != 1 || len(vs.Versions()) != 2 {
		t.Fatalf("rollback landed at %d (%d archived)", vs.CurrentSeq(), len(vs.Versions()))
	}
	if string(vs.CurrentBytes()) != string(b1) {
		t.Fatal("rollback bytes differ from the archived version")
	}
	// Round-trip identity: re-encoding the restored map reproduces the
	// archived bytes exactly.
	if got := storage.EncodeBinary(vs.Current()); string(got) != string(b1) {
		t.Fatal("restored map does not re-encode byte-identically")
	}

	// Commit after rollback appends (no history rewrite).
	m3 := vs.Current()
	m3.AddPoint(core.PointElement{
		Class: core.ClassSign, Pos: geo.V3(50, 50, 2), Meta: core.Meta{Confidence: 0.6},
	})
	v3, err := vs.Commit(m3, "after rollback")
	if err != nil {
		t.Fatal(err)
	}
	if v3.Seq != 3 {
		t.Fatalf("post-rollback seq = %d, want 3", v3.Seq)
	}

	// Out-of-range rollbacks fail.
	if _, err := vs.Rollback(99); !errors.Is(err, ErrNoVersion) {
		t.Errorf("rollback(99) err = %v", err)
	}
	if _, err := vs.Rollback(0); !errors.Is(err, ErrNoVersion) {
		t.Errorf("rollback(0) err = %v", err)
	}
}

func TestVersionStoreDirPersistence(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenVersionDir(dir, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := baseMap(3, 3)
	if _, err := vs.Commit(base, "genesis"); err != nil {
		t.Fatal(err)
	}
	m2 := vs.Current()
	m2.AddPoint(core.PointElement{
		Class: core.ClassSign, Pos: geo.V3(15, 15, 2), Meta: core.Meta{Confidence: 0.6},
	})
	if _, err := vs.Commit(m2, "second version"); err != nil {
		t.Fatal(err)
	}
	if _, err := vs.Rollback(1); err != nil {
		t.Fatal(err)
	}
	want := vs.CurrentBytes()

	// Reopen: versions, cursor, and bytes survive.
	vs2, err := OpenVersionDir(dir, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if vs2.CurrentSeq() != 1 || len(vs2.Versions()) != 2 {
		t.Fatalf("reopened: seq %d, %d versions", vs2.CurrentSeq(), len(vs2.Versions()))
	}
	if string(vs2.CurrentBytes()) != string(want) {
		t.Fatal("reopened bytes differ")
	}
	if vs2.Versions()[1].Note != "second version" {
		t.Errorf("note lost: %q", vs2.Versions()[1].Note)
	}

	// Silent disk corruption is detected on open, not served.
	path := filepath.Join(dir, "v000001.hdmp")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVersionDir(dir, GateConfig{}); !errors.Is(err, ErrCorruptVersion) {
		t.Errorf("corrupt archive opened: %v", err)
	}
}

// TestVersionStoreRefusesGarbledManifest: a MANIFEST field that is not
// what persist writes — a number that does not parse, is signed or out
// of range, a byte count the version file does not have, a checksum
// that does not match — or a garbled CURRENT refuses the store with
// ErrCorruptVersion instead of loading a zero or a wrong count.
func TestVersionStoreRefusesGarbledManifest(t *testing.T) {
	dir := t.TempDir()
	vs, err := OpenVersionDir(dir, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vs.Commit(baseMap(3, 3), "genesis"); err != nil {
		t.Fatal(err)
	}
	m := vs.Current()
	m.AddPoint(core.PointElement{Class: core.ClassSign, Pos: geo.V3(15, 15, 2), Meta: core.Meta{Confidence: 0.6}})
	if _, err := vs.Commit(m, "second version"); err != nil {
		t.Fatal(err)
	}
	manifestPath, currentPath := filepath.Join(dir, "MANIFEST"), filepath.Join(dir, "CURRENT")
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(currentPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(manifest)), "\n")
	second := strings.Fields(lines[1]) // seq clock elements bytes checksum note...
	bytes, _ := strconv.Atoi(second[3])

	garble := func(field int, to string) string {
		f := append([]string(nil), second...)
		f[field] = to
		return lines[0] + "\n" + strings.Join(f, " ") + "\n"
	}
	for _, tc := range []struct {
		name, manifest, current string
	}{
		{"seq not a number", garble(0, "2x"), ""},
		{"seq signed", garble(0, "+2"), ""},
		{"clock not a number", garble(1, "12abc"), ""},
		{"clock negative", garble(1, "-1"), ""},
		{"clock out of range", garble(1, "18446744073709551616"), ""},
		{"element count not a number", garble(2, "many"), ""},
		{"element count empty", garble(2, ""), ""},
		{"element count negative", garble(2, "-10"), ""},
		{"byte count not a number", garble(3, "0x10"), ""},
		{"byte count short of the file", garble(3, strconv.Itoa(bytes-1)), ""},
		{"byte count beyond the file", garble(3, strconv.Itoa(bytes+1)), ""},
		{"checksum", garble(4, "00000000"), ""},
		{"too few fields", lines[0] + "\n" + strings.Join(second[:4], " ") + "\n", ""},
		{"current not a number", string(manifest), "one"},
		{"current beyond the log", string(manifest), "3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := string(current)
			if tc.current != "" {
				cur = tc.current
			}
			if err := os.WriteFile(manifestPath, []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(currentPath, []byte(cur), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenVersionDir(dir, GateConfig{}); !errors.Is(err, ErrCorruptVersion) {
				t.Errorf("opened with a garbled %s: %v", tc.name, err)
			}
		})
	}

	// The untouched files still open, versions as committed.
	if err := os.WriteFile(manifestPath, manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(currentPath, current, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := OpenVersionDir(dir, GateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Versions(), vs.Versions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened versions %+v, committed %+v", got, want)
	}
}
