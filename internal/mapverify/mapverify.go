// Package mapverify is a reference-free constraint-verification engine
// for HD maps: it checks any core.Map against geometric, topological,
// and semantic consistency rules without needing a ground-truth survey
// (He et al.'s constraint-based verification workflow; see also the
// lane-topology-reasoning survey). The rules are deliberately local
// and cheap — lane-width bounds, centreline self-intersection,
// successor continuity, speed-limit cliffs — because the engine runs
// in three very different places with very different budgets:
//
//   - inside the ingest commit gate, on every candidate version, where
//     Error-severity findings block the commit;
//   - behind `hdmapctl verify-map`, as an operator tool over map files
//     or stitched tile layers;
//   - under fuzzing and the adversarial worldgen corruption suite,
//     where it must never panic and never exceed its violation cap no
//     matter how hostile the input.
//
// Severity is two-level by design: Error means "a planner or localizer
// consuming this element can fail" (blocks the gate); Warn means
// "suspicious but drivable" (counted, surfaced, never blocking).
package mapverify

import (
	"fmt"
	"sort"

	"hdmaps/internal/core"
)

// Severity ranks a violation.
type Severity uint8

// Severities. Error blocks the ingest commit gate; Warn is counted and
// reported but never blocks.
const (
	SevWarn Severity = iota
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Rule names. They double as obs label values (lowercase, underscores)
// for the per-rule gate-rejection counters, so the set must stay
// bounded and enumerable — see RuleNames.
const (
	// Geometric family.
	RuleNonFinite     = "geom_nonfinite"      // NaN/Inf coordinate anywhere (Error)
	RuleDegenerate    = "geom_degenerate"     // too few vertices / zero arc length (Error)
	RuleLaneWidth     = "geom_lane_width"     // sampled width outside [min,max] (Error)
	RuleBoundCross    = "geom_bound_cross"    // left bound intersects right bound (Error)
	RuleBoundSide     = "geom_bound_side"     // a bound sits on the wrong side of the centreline (Error)
	RuleSelfIntersect = "geom_self_intersect" // centreline crosses itself (Error)
	RuleVertexJump    = "geom_vertex_jump"    // consecutive vertices implausibly far apart (Error)
	RuleCurvature     = "geom_curvature"      // curvature beyond drivable bound (Warn)

	// Topological family.
	RuleDanglingRef   = "topo_dangling_ref"  // reference to a missing element (Error)
	RuleDiscontinuity = "topo_discontinuity" // successor does not start where this lanelet ends (Error)
	RuleHeadingFlip   = "topo_heading_flip"  // heading reverses across a successor link (Error)
	RuleOrphan        = "topo_orphan"        // lanelet unreachable from and to everything (Warn)
	RuleArity         = "topo_arity"         // merge/split fan-in/out beyond plausible arity (Warn)

	// Semantic family.
	RuleSpeedRange = "sem_speed_range" // speed limit non-finite, negative, or absurd (Error)
	RuleSpeedCliff = "sem_speed_cliff" // posted limit jumps by more than MaxSpeedRatio across a link (Error)
	RuleRegAssoc   = "sem_reg_assoc"   // regulatory element with no lanelets / far device / odd device class (Warn)
	RuleTaxonomy   = "sem_taxonomy"    // element type outside the known taxonomy (Error)
)

// ruleNames is the canonical sorted rule list.
var ruleNames = []string{
	RuleBoundCross, RuleBoundSide, RuleCurvature, RuleDegenerate,
	RuleLaneWidth, RuleNonFinite, RuleSelfIntersect, RuleVertexJump,
	RuleArity, RuleDanglingRef, RuleDiscontinuity, RuleHeadingFlip,
	RuleOrphan,
	RuleRegAssoc, RuleSpeedCliff, RuleSpeedRange, RuleTaxonomy,
}

// RuleNames returns every rule name, sorted — the bounded label domain
// for per-rule accounting (each name is a valid obs label value).
func RuleNames() []string {
	out := make([]string, len(ruleNames))
	copy(out, ruleNames)
	sort.Strings(out)
	return out
}

// Violation is one rule finding on one element.
type Violation struct {
	Rule      string   `json:"rule"`
	Severity  Severity `json:"-"`
	ElementID core.ID  `json:"element"`
	Detail    string   `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s element %d: %s", v.Severity, v.Rule, v.ElementID, v.Detail)
}

// Report is the result of one Verify run. Errors and Warnings are full
// counts: they keep incrementing after the violation cap truncates the
// Violations slice, so "how broken" is always answered even for
// pathological maps.
type Report struct {
	// Violations is sorted by (ElementID, Rule, Detail) and capped at
	// Config.MaxViolations. When the cap truncates, Error-severity
	// entries are retained in preference to Warns, so Errors > 0
	// guarantees at least one Error appears in the slice (up to the cap).
	Violations []Violation
	Errors     int
	Warnings   int
	// Truncated is set when the cap dropped violations from the slice.
	Truncated bool
	// Checked is the number of map elements examined.
	Checked int
}

// Clean reports whether the map has no Error-severity findings.
func (r *Report) Clean() bool { return r.Errors == 0 }

// CountRule returns how many retained violations carry the given rule.
func (r *Report) CountRule(rule string) int {
	n := 0
	for _, v := range r.Violations {
		if v.Rule == rule {
			n++
		}
	}
	return n
}

// Config tunes the engine. The zero value means "engine defaults"
// everywhere: thresholds default to values every generator, builder,
// and example map in this repo satisfies with margin, so a clean map
// stays clean while each worldgen corruption class is still caught.
type Config struct {
	// MaxViolations caps the retained violation list (default 256).
	MaxViolations int
	// Disable lists rule names (see RuleNames) to skip entirely.
	Disable []string

	// MinLaneWidth / MaxLaneWidth bound the sampled distance between a
	// lanelet's bounds in metres (defaults 1.5 and 10). The minimum is
	// intentionally below any real lane width: it exists to catch
	// pinched or crossed bounds, not to lint road design.
	MinLaneWidth float64
	MaxLaneWidth float64
	// WidthSamples is how many stations along the centreline the width
	// is measured at (default 5).
	WidthSamples int
	// MaxVertexJump is the largest plausible distance between two
	// consecutive centreline vertices in metres (default 500) —
	// teleported vertices are hundreds of metres off.
	MaxVertexJump float64
	// MaxCurvature is the Warn threshold on centreline curvature in
	// 1/m (default 0.5, a 2 m turning radius), sampled with
	// CurvatureWindow (default 2 m).
	MaxCurvature    float64
	CurvatureWindow float64

	// MaxGap is how far a successor may start from this lanelet's end,
	// in metres (default 2).
	MaxGap float64
	// MaxHeadingJump is the largest heading change across a successor
	// link, in radians (default 2.6 ≈ 150° — a reversed lanelet flips
	// by π).
	MaxHeadingJump float64
	// MaxFanout bounds successor fan-out and predecessor fan-in per
	// lanelet (default 8, Warn).
	MaxFanout int

	// MaxSpeed is the largest plausible posted limit in m/s (default
	// 70 ≈ 250 km/h).
	MaxSpeed float64
	// MaxSpeedRatio bounds the posted-limit ratio across a successor
	// link when both sides are posted (default 3).
	MaxSpeedRatio float64
	// MaxDeviceDist is how far a regulatory device may stand from the
	// lanelets it governs, in metres (default 60, Warn).
	MaxDeviceDist float64
}

func (c *Config) defaults() {
	if c.MaxViolations <= 0 {
		c.MaxViolations = 256
	}
	if c.MinLaneWidth <= 0 {
		c.MinLaneWidth = 1.5
	}
	if c.MaxLaneWidth <= 0 {
		c.MaxLaneWidth = 10
	}
	if c.WidthSamples <= 0 {
		c.WidthSamples = 5
	}
	if c.MaxVertexJump <= 0 {
		c.MaxVertexJump = 500
	}
	if c.MaxCurvature <= 0 {
		c.MaxCurvature = 0.5
	}
	if c.CurvatureWindow <= 0 {
		c.CurvatureWindow = 2
	}
	if c.MaxGap <= 0 {
		c.MaxGap = 2
	}
	if c.MaxHeadingJump <= 0 {
		c.MaxHeadingJump = 2.6
	}
	if c.MaxFanout <= 0 {
		c.MaxFanout = 8
	}
	if c.MaxSpeed <= 0 {
		c.MaxSpeed = 70
	}
	if c.MaxSpeedRatio <= 0 {
		c.MaxSpeedRatio = 3
	}
	if c.MaxDeviceDist <= 0 {
		c.MaxDeviceDist = 60
	}
}

// engine carries one Verify run. All iteration is over the Map's
// sorted ID accessors and all thresholds are fixed up front, so two
// runs over the same map produce identical reports.
type engine struct {
	m   *core.Map
	cfg Config
	off map[string]bool
	rep *Report
	// warnsKept counts Warn-severity entries currently retained in the
	// Violations slice, so error-preferential eviction at the cap can
	// bail out in O(1) once only errors remain.
	warnsKept int
	// dirty, when set, limits the run to the elements of a closure (see
	// delta.go); nil checks every element.
	dirty *core.Closure
	// The IDs of each table the run covers, ascending.
	points, lines, areas, lanelets, bundles, regs []core.ID
}

// checks reports whether the run covers the element(s) under id.
func (e *engine) checks(id core.ID) bool {
	return e.dirty == nil || e.dirty.Has(id)
}

// add records one violation, honouring per-rule disables and the cap.
// Severity counts keep incrementing past the cap so the report's
// totals stay truthful. Error-severity violations are retained
// preferentially: once the cap is hit, a new Error evicts the most
// recently retained Warn, so a flood of Warns from early-running rules
// can never push the findings that block a commit out of the report.
func (e *engine) add(rule string, sev Severity, id core.ID, format string, args ...interface{}) {
	if e.off[rule] {
		return
	}
	if sev == SevError {
		e.rep.Errors++
	} else {
		e.rep.Warnings++
	}
	if len(e.rep.Violations) >= e.cfg.MaxViolations {
		e.rep.Truncated = true
		if sev != SevError || e.warnsKept == 0 {
			return
		}
		for i := len(e.rep.Violations) - 1; i >= 0; i-- {
			if e.rep.Violations[i].Severity != SevError {
				e.rep.Violations = append(e.rep.Violations[:i], e.rep.Violations[i+1:]...)
				e.warnsKept--
				break
			}
		}
	}
	if sev != SevError {
		e.warnsKept++
	}
	e.rep.Violations = append(e.rep.Violations, Violation{
		Rule: rule, Severity: sev, ElementID: id, Detail: fmt.Sprintf(format, args...),
	})
}

// Verify runs every enabled rule over the map and returns the report.
// It never mutates the map, never panics on structurally weird (e.g.
// fuzz-decoded) input, and does bounded work per element.
func Verify(m *core.Map, cfg Config) *Report {
	return VerifyFrom(nil, m, nil, cfg)
}

// run applies every enabled rule to the elements of the dirty closure,
// to every element when dirty is nil, and returns the findings unsorted.
func run(m *core.Map, cfg Config, dirty *core.Closure) *Report {
	e := &engine{
		m:     m,
		cfg:   cfg,
		off:   make(map[string]bool, len(cfg.Disable)),
		rep:   &Report{Checked: m.NumElements()},
		dirty: dirty,
	}
	if dirty == nil {
		e.points, e.lines, e.areas = m.PointIDs(), m.LineIDs(), m.AreaIDs()
		e.lanelets, e.bundles, e.regs = m.LaneletIDs(), m.BundleIDs(), m.RegulatoryIDs()
	} else {
		e.points, e.lines, e.areas = dirty.Points, dirty.Lines, dirty.Areas
		e.lanelets, e.bundles, e.regs = dirty.Lanelets, dirty.Bundles, dirty.Regs
	}
	for _, r := range cfg.Disable {
		e.off[r] = true
	}
	e.geometric()
	e.topological()
	e.semantic()
	return e.rep
}

func sortViolations(v []Violation) {
	sort.Slice(v, func(i, j int) bool {
		a, b := v[i], v[j]
		if a.ElementID != b.ElementID {
			return a.ElementID < b.ElementID
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Detail < b.Detail
	})
}
