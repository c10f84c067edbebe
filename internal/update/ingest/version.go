package ingest

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// gateMetrics is the bounded rejection accounting for the commit gate:
// one counter per invariant family ("which invariant rejects commits")
// and one per mapverify rule ("which constraint the bad maps break").
// Both label domains are fixed at registration, so cardinality stays
// bounded no matter what gets committed.
type gateMetrics struct {
	// checked counts every commit attempt entering the gate; rejected
	// counts the attempts the gate refused. Their ratio is the commit-
	// gate pass rate the slo.ingest.gate_pass objective burns against.
	checked  *obs.Counter
	rejected *obs.Counter

	invariant *obs.CounterVec
	rule      *obs.CounterVec
}

func newGateMetrics(reg *obs.Registry) *gateMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &gateMetrics{
		checked:  reg.Counter("ingest.gate.checked"),
		rejected: reg.Counter("ingest.gate.rejected"),
		invariant: reg.CounterVec("ingest.gate.invariant", []string{
			"validate", "mass_deletion", "growth", "bounds", "displacement", "mapverify",
		}),
		rule: reg.CounterVec("ingest.gate.mapverify", mapverify.RuleNames()),
	}
}

// observe accounts one rejected commit: each violated invariant family
// counts once per rejection, and every reported mapverify violation
// counts against its rule.
func (g *gateMetrics) observe(viol []GateViolation) {
	g.rejected.Inc()
	seen := make(map[string]bool, 4)
	for _, v := range viol {
		inv := v.Invariant
		if inv == "mass-deletion" {
			inv = "mass_deletion" // obs label values are [a-z0-9_]+
		}
		if !seen[inv] {
			seen[inv] = true
			g.invariant.With(inv).Inc()
		}
		if v.Invariant == "mapverify" && v.Rule != "" {
			g.rule.With(v.Rule).Inc()
		}
	}
}

// Version describes one committed map version.
type Version struct {
	// Seq is the 1-based commit sequence number; it never reuses a
	// number, even across rollbacks (the log is append-only).
	Seq int
	// Clock is the map's logical clock at commit time.
	Clock uint64
	// Elements is the total element count.
	Elements int
	// Bytes is the encoded size.
	Bytes int
	// Checksum is the CRC32-C of the encoded bytes.
	Checksum string
	// Note is the commit annotation.
	Note string
}

// Errors of the version store.
var (
	// ErrNoVersion is returned when a requested version does not exist.
	ErrNoVersion = errors.New("ingest: no such version")
	// ErrEmptyStore is returned when an operation needs a committed
	// version and none exists.
	ErrEmptyStore = errors.New("ingest: version store is empty")
	// ErrCorruptVersion is returned when an archived version fails its
	// length or checksum on open, or the manifest or cursor recording
	// the versions does not parse.
	ErrCorruptVersion = errors.New("ingest: archived version corrupt")
)

type archived struct {
	info Version
	data []byte
}

// VersionStore is a versioned map store with gated atomic commits and
// rollback. Commits append to a version log; "current" is a cursor into
// the log that Rollback moves backwards without discarding history.
// With a backing directory every version and the cursor survive
// restarts; archived bytes are checksummed so silent disk corruption is
// detected on open, never served.
type VersionStore struct {
	mu       sync.RWMutex
	dir      string // "" = memory only
	gate     GateConfig
	versions []archived
	current  int       // current seq, 0 = none
	frozen   *core.Map // decoded current, indexes frozen, read-only
	// passed (what the gate found of frozen: its constraint-engine
	// report and its box) and encoded (its archive encoding with the
	// position of every record) are kept from the commit that made
	// frozen so that the next commit can start from them; unset (the
	// zero passed, nil) when frozen was decoded from the archive instead
	// (on open, after Rollback).
	passed
	encoded *storage.Encoding
	metrics *gateMetrics
}

// NewVersionStore creates an in-memory store gated by cfg.
func NewVersionStore(cfg GateConfig) *VersionStore {
	cfg.defaults()
	return &VersionStore{gate: cfg, metrics: newGateMetrics(cfg.Metrics)}
}

// OpenVersionDir opens (creating if needed) a directory-backed store.
// Every archived version is re-verified against its manifest checksum.
func OpenVersionDir(dir string, cfg GateConfig) (*VersionStore, error) {
	cfg.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open version dir: %w", err)
	}
	vs := &VersionStore{dir: dir, gate: cfg, metrics: newGateMetrics(cfg.Metrics)}
	if err := vs.load(); err != nil {
		return nil, err
	}
	return vs, nil
}

func (vs *VersionStore) versionPath(seq int) string {
	return filepath.Join(vs.dir, fmt.Sprintf("v%06d.hdmp", seq))
}

func (vs *VersionStore) load() error {
	manifest, err := os.ReadFile(filepath.Join(vs.dir, "MANIFEST"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingest: read manifest: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		if line == "" {
			continue
		}
		v, err := parseManifestLine(line)
		if err != nil {
			return err
		}
		if v.Seq != len(vs.versions)+1 {
			return fmt.Errorf("ingest: manifest gap at seq %d: %w", v.Seq, ErrCorruptVersion)
		}
		data, err := os.ReadFile(vs.versionPath(v.Seq))
		if err != nil {
			return fmt.Errorf("ingest: read version %d: %w", v.Seq, err)
		}
		if len(data) != v.Bytes {
			return fmt.Errorf("ingest: version %d: %d bytes, manifest says %d: %w",
				v.Seq, len(data), v.Bytes, ErrCorruptVersion)
		}
		if got := storage.Checksum(data); got != v.Checksum {
			return fmt.Errorf("ingest: version %d: checksum %s != manifest %s: %w",
				v.Seq, got, v.Checksum, ErrCorruptVersion)
		}
		vs.versions = append(vs.versions, archived{info: v, data: data})
	}
	curBytes, err := os.ReadFile(filepath.Join(vs.dir, "CURRENT"))
	if errors.Is(err, os.ErrNotExist) {
		vs.current = len(vs.versions)
	} else if err != nil {
		return fmt.Errorf("ingest: read CURRENT: %w", err)
	} else {
		cur, err := strconv.Atoi(strings.TrimSpace(string(curBytes)))
		if err != nil || cur < 0 || cur > len(vs.versions) {
			return fmt.Errorf("ingest: bad CURRENT %q: %w", strings.TrimSpace(string(curBytes)), ErrCorruptVersion)
		}
		vs.current = cur
	}
	if vs.current > 0 {
		m, err := storage.DecodeBinary(vs.versions[vs.current-1].data)
		if err != nil {
			return fmt.Errorf("ingest: decode version %d: %w", vs.current, err)
		}
		m.FreezeIndexes()
		vs.frozen = m
	}
	return nil
}

// parseManifestLine reads one "seq clock elements bytes checksum [note]"
// line as persist writes it: every number decimal digits only, in range,
// or the manifest is ErrCorruptVersion.
func parseManifestLine(line string) (Version, error) {
	parts := strings.SplitN(line, " ", 6)
	if len(parts) < 5 {
		return Version{}, fmt.Errorf("ingest: bad manifest line %q: %w", line, ErrCorruptVersion)
	}
	var nums [4]uint64
	for i, name := range [...]string{"seq", "clock", "element count", "byte count"} {
		n, err := strconv.ParseUint(parts[i], 10, 64)
		if err != nil || (i != 1 && n > math.MaxInt) {
			return Version{}, fmt.Errorf("ingest: manifest line %q: bad %s: %w", line, name, ErrCorruptVersion)
		}
		nums[i] = n
	}
	v := Version{Seq: int(nums[0]), Clock: nums[1], Elements: int(nums[2]), Bytes: int(nums[3]), Checksum: parts[4]}
	if len(parts) == 6 {
		v.Note = parts[5]
	}
	return v, nil
}

// persist writes the manifest, one version file, and the cursor
// atomically enough for a crash to leave either the old or the new
// state (tmp + rename, the DirStore discipline).
func (vs *VersionStore) persist(newSeq int) error {
	if vs.dir == "" {
		return nil
	}
	if newSeq > 0 {
		a := vs.versions[newSeq-1]
		if err := writeFileAtomic(vs.versionPath(newSeq), a.data); err != nil {
			return err
		}
	}
	var b strings.Builder
	for _, a := range vs.versions {
		v := a.info
		fmt.Fprintf(&b, "%d %d %d %d %s", v.Seq, v.Clock, v.Elements, v.Bytes, v.Checksum)
		if v.Note != "" {
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(v.Note, "\n", " "))
		}
		b.WriteByte('\n')
	}
	if err := writeFileAtomic(filepath.Join(vs.dir, "MANIFEST"), []byte(b.String())); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(vs.dir, "CURRENT"), []byte(strconv.Itoa(vs.current)))
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ingest: persist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ingest: persist: %w", err)
	}
	return nil
}

// Commit gates, encodes, and publishes m as the next version. On gate
// failure nothing is stored and the error is a *GateError listing every
// violated invariant. The commit is atomic: a version is either fully
// archived and current, or absent.
//
// What m changed is worked out once, and the gate (its Validate, its
// constraint engine and its bounds check), the next snapshot and the
// archive encoding are each made from the current version's by redoing
// that much; a first commit, or the first after Rollback or a reopen,
// does them in full. Nothing of the new version is kept unless it
// persists.
func (vs *VersionStore) Commit(m *core.Map, note string) (Version, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.metrics.checked.Inc()
	var ch core.Changes
	if vs.frozen != nil {
		ch = m.ChangedFrom(vs.frozen)
	}
	viol, verified := checkCommit(vs.frozen, vs.passed, m, ch, vs.gate)
	if len(viol) > 0 {
		vs.metrics.observe(viol)
		return Version{}, &GateError{Violations: viol}
	}
	var frozen *core.Map
	if vs.frozen != nil {
		frozen = vs.frozen.Successor(m, ch)
	} else {
		frozen = m.Clone()
		frozen.FreezeIndexes()
	}
	next := passed{ok: true, verified: verified, box: nextBox(vs.frozen, vs.passed, frozen, ch)}
	encoded := storage.EncodeFrom(vs.encoded, frozen, ch)
	data := encoded.Bytes
	info := Version{
		Seq:      len(vs.versions) + 1,
		Clock:    m.Clock,
		Elements: m.NumElements(),
		Bytes:    len(data),
		Checksum: storage.Checksum(data),
		Note:     note,
	}
	vs.versions = append(vs.versions, archived{info: info, data: data})
	prevCurrent := vs.current
	vs.current = info.Seq
	if err := vs.persist(info.Seq); err != nil {
		vs.versions = vs.versions[:len(vs.versions)-1]
		vs.current = prevCurrent
		return Version{}, err
	}
	vs.frozen, vs.passed, vs.encoded = frozen, next, encoded
	return info, nil
}

// nextBox returns next.Bounds() for a next that succeeds parent by ch,
// from the parent's box when the gate kept it. That box is the union of
// the unchanged elements' boxes and the old boxes of the changed ones;
// unless one of the latter reaches an edge of it, the unchanged ones
// alone reach every edge, and next's box is the parent's united with
// the changed elements' new boxes — exactly, with no walk over the map.
func nextBox(parent *core.Map, from passed, next *core.Map, ch core.Changes) geo.AABB {
	if !from.ok {
		return next.Bounds()
	}
	box, old := from.box, parent.BoundsOf(ch)
	if old.Min.X == box.Min.X || old.Min.Y == box.Min.Y || old.Max.X == box.Max.X || old.Max.Y == box.Max.Y {
		return next.Bounds()
	}
	return box.Union(next.BoundsOf(ch))
}

// Rollback moves the current cursor n versions back (n ≥ 1) and
// restores that version as current. History is retained: the rolled-
// over versions stay inspectable and the next commit appends after
// them.
func (vs *VersionStore) Rollback(n int) (Version, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if n < 1 {
		return Version{}, fmt.Errorf("ingest: rollback %d: %w", n, ErrNoVersion)
	}
	target := vs.current - n
	if target < 1 {
		return Version{}, fmt.Errorf("ingest: rollback %d from seq %d: %w", n, vs.current, ErrNoVersion)
	}
	a := vs.versions[target-1]
	m, err := storage.DecodeBinary(a.data)
	if err != nil {
		return Version{}, fmt.Errorf("ingest: rollback decode v%d: %w", target, err)
	}
	m.FreezeIndexes()
	prev := vs.current
	vs.current = target
	if err := vs.persist(0); err != nil {
		vs.current = prev
		return Version{}, err
	}
	vs.frozen, vs.passed, vs.encoded = m, passed{}, nil
	return a.info, nil
}

// Current returns a deep, mutable clone of the current version (nil
// when empty). Pipelines take this as their working copy.
func (vs *VersionStore) Current() *core.Map {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	if vs.frozen == nil {
		return nil
	}
	return vs.frozen.Clone()
}

// Frozen returns the shared read-only current snapshot with indexes
// frozen: safe for concurrent spatial queries, never for mutation.
func (vs *VersionStore) Frozen() *core.Map {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.frozen
}

// CurrentBytes returns a copy of the current version's archived
// encoding (nil when empty).
func (vs *VersionStore) CurrentBytes() []byte {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	if vs.current == 0 {
		return nil
	}
	d := vs.versions[vs.current-1].data
	cp := make([]byte, len(d))
	copy(cp, d)
	return cp
}

// CurrentSeq returns the current version's sequence number (0 when
// empty).
func (vs *VersionStore) CurrentSeq() int {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.current
}

// BytesOf returns a copy of an archived version's encoding.
func (vs *VersionStore) BytesOf(seq int) ([]byte, error) {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	if seq < 1 || seq > len(vs.versions) {
		return nil, fmt.Errorf("ingest: version %d: %w", seq, ErrNoVersion)
	}
	d := vs.versions[seq-1].data
	cp := make([]byte, len(d))
	copy(cp, d)
	return cp, nil
}

// Versions lists every archived version in commit order.
func (vs *VersionStore) Versions() []Version {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	out := make([]Version, len(vs.versions))
	for i, a := range vs.versions {
		out[i] = a.info
	}
	return out
}
