package ingest

import (
	"fmt"
	"strings"

	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/mapverify"
	"hdmaps/internal/obs"
)

// GateConfig tunes the commit gate: the invariants a candidate map
// version must satisfy relative to its parent before it may be
// published. The gate is reference-free (He et al.): it needs no
// ground-truth survey, only the map's own structural consistency and
// bounded-change constraints.
type GateConfig struct {
	// MaxRemoveFrac caps the fraction of parent elements a single
	// commit may delete (mass-deletion guard, default 0.35; set to 1 to
	// disable).
	MaxRemoveFrac float64
	// MaxAddFrac caps relative growth per commit (default 0.5, with a
	// small absolute headroom so tiny maps can still grow; set to a
	// large value to disable).
	MaxAddFrac float64
	// AddHeadroom is the absolute element count always allowed on top
	// of MaxAddFrac (default 32).
	AddHeadroom int
	// BoundsMargin is how far (metres) beyond the parent's bounding box
	// new geometry may extend (default 250; negative disables).
	BoundsMargin float64
	// MaxDisplacement caps how far a matched element may move in one
	// commit (default 5 m; negative disables). Checked geometrically via
	// core.Diff, and skipped above DisplacementLimit elements.
	MaxDisplacement float64
	// DisplacementLimit is the physical-element count above which the
	// quadratic displacement check is skipped (default 5000).
	DisplacementLimit int
	// Verify tunes the reference-free mapverify constraint engine run
	// against every candidate — the "mapverify" invariant family. The
	// zero value means engine defaults; individual rules can be
	// disabled through Verify.Disable.
	Verify mapverify.Config
	// DisableVerify turns the mapverify invariant off entirely,
	// leaving only the bounded-change checks above.
	DisableVerify bool
	// Metrics is the registry the per-rule gate-rejection counters
	// register in (obs.Default() when nil).
	Metrics *obs.Registry
}

func (c *GateConfig) defaults() {
	if c.MaxRemoveFrac <= 0 {
		c.MaxRemoveFrac = 0.35
	}
	if c.MaxAddFrac <= 0 {
		c.MaxAddFrac = 0.5
	}
	if c.AddHeadroom <= 0 {
		c.AddHeadroom = 32
	}
	if c.BoundsMargin == 0 {
		c.BoundsMargin = 250
	}
	if c.MaxDisplacement == 0 {
		c.MaxDisplacement = 5
	}
	if c.DisplacementLimit <= 0 {
		c.DisplacementLimit = 5000
	}
}

// GateViolation is one failed commit-gate invariant.
type GateViolation struct {
	// Invariant names the violated constraint class: "validate",
	// "mass-deletion", "growth", "bounds", "displacement",
	// "mapverify".
	Invariant string
	// Rule is the mapverify rule name for "mapverify" violations
	// (empty for the legacy invariant families) — the key the
	// per-rule rejection counters are partitioned by.
	Rule   string
	Detail string
}

// String implements fmt.Stringer.
func (v GateViolation) String() string {
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// GateError is the commit-rejected error carrying every violation.
type GateError struct {
	Violations []GateViolation
}

// Error implements error.
func (e *GateError) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("ingest: commit rejected by gate (%d violations): %s",
		len(e.Violations), strings.Join(parts, "; "))
}

// CheckCommit evaluates the gate for a candidate version against its
// parent (nil parent = genesis commit, delta constraints skipped). It
// returns nil when the candidate may be published.
func CheckCommit(parent, next *core.Map, cfg GateConfig) []GateViolation {
	out, _ := checkCommit(parent, passed{}, next, core.Changes{}, cfg)
	return out
}

// passed is what the gate found of a map it let through, kept beside
// it to check the next commit from; the zero value knows nothing. A map
// that passed has no Validate issue.
type passed struct {
	ok bool
	// verified is the constraint engine's report of the map, nil when
	// the engine is disabled.
	verified *mapverify.Report
	// box is the map's Bounds.
	box geo.AABB
}

// checkCommit is CheckCommit for a caller that knows from, what the
// gate found when parent passed it, and ch, next.ChangedFrom(parent):
// then invariants 1 and 4 look only at what the step from parent to
// next can have affected — the closure of ch for Validate and the
// constraint engine, the changed elements for the bounds — and come
// out as CheckCommit's would. With from.ok false everything is checked
// (and ch is not read). It also returns the engine's report of next,
// for the caller to keep in turn; nil when the engine is disabled.
func checkCommit(parent *core.Map, from passed, next *core.Map, ch core.Changes, cfg GateConfig) ([]GateViolation, *mapverify.Report) {
	cfg.defaults()
	var out []GateViolation
	var rep *mapverify.Report
	var dirty *core.Closure // nil: check every element
	if from.ok {
		dirty = next.ClosureFrom(parent, ch)
	}

	// Invariant 1: the candidate is structurally and geometrically
	// consistent on its own.
	issues := next.ValidateOnly(dirty)
	for i, iss := range issues {
		if i >= 8 { // cap the report, keep the count
			out = append(out, GateViolation{
				Invariant: "validate",
				Detail:    fmt.Sprintf("... and %d more issues", len(issues)-i),
			})
			break
		}
		out = append(out, GateViolation{Invariant: "validate", Detail: iss.String()})
	}
	// Invariant 1b: the reference-free constraint engine. Error-severity
	// findings block like any other invariant; Warns never do. The
	// report is capped the same way the validate family is.
	if !cfg.DisableVerify {
		rep = mapverify.VerifyFrom(from.verified, next, dirty, cfg.Verify)
		shown := 0
		for _, v := range rep.Violations {
			if v.Severity != mapverify.SevError {
				continue
			}
			if shown >= 8 {
				break
			}
			out = append(out, GateViolation{
				Invariant: "mapverify", Rule: v.Rule,
				Detail: fmt.Sprintf("%s element %d: %s", v.Rule, v.ElementID, v.Detail),
			})
			shown++
		}
		// The block decision rides on rep.Errors, not on what survived the
		// engine's violation cap: even if every Error entry were evicted
		// from the capped slice, a non-zero error count must still reject
		// the commit.
		if rest := rep.Errors - shown; rest > 0 {
			out = append(out, GateViolation{
				Invariant: "mapverify",
				Detail:    fmt.Sprintf("... and %d more error-severity violations", rest),
			})
		}
	}

	if parent == nil {
		return out, rep
	}

	// Invariant 2/3: bounded churn. A legitimate maintenance batch
	// refines the map; it does not delete a third of it or double it.
	pn, nn := parent.NumElements(), next.NumElements()
	if pn > 0 {
		if removed := pn - nn; removed > 0 && float64(removed) > cfg.MaxRemoveFrac*float64(pn) {
			out = append(out, GateViolation{
				Invariant: "mass-deletion",
				Detail: fmt.Sprintf("%d of %d elements removed (max frac %.2f)",
					removed, pn, cfg.MaxRemoveFrac),
			})
		}
		if added := nn - pn; added > 0 &&
			float64(added) > cfg.MaxAddFrac*float64(pn)+float64(cfg.AddHeadroom) {
			out = append(out, GateViolation{
				Invariant: "growth",
				Detail: fmt.Sprintf("%d elements added to %d (max frac %.2f + %d)",
					added, pn, cfg.MaxAddFrac, cfg.AddHeadroom),
			})
		}
	}

	// Invariant 4: geometry stays inside the parent's service area
	// (plus margin). Mis-georeferenced batches land kilometres away.
	// Starting from a parent that passed, whose elements are all finite
	// and inside its box, only the changed elements can leave the box —
	// and a NaN or infinite coordinate among them decides the test as it
	// would in the whole of next's box (see BoundsOf).
	if cfg.BoundsMargin >= 0 {
		var pb, nb geo.AABB
		if from.ok {
			pb, nb = from.box.Expand(cfg.BoundsMargin), next.BoundsOf(ch)
		} else {
			pb, nb = parent.Bounds().Expand(cfg.BoundsMargin), next.Bounds()
		}
		if !pb.IsEmpty() && !nb.IsEmpty() &&
			(nb.Min.X < pb.Min.X || nb.Min.Y < pb.Min.Y || nb.Max.X > pb.Max.X || nb.Max.Y > pb.Max.Y) {
			nb = next.Bounds()
			out = append(out, GateViolation{
				Invariant: "bounds",
				Detail: fmt.Sprintf("geometry extends to %v..%v, outside parent+%gm",
					nb.Min, nb.Max, cfg.BoundsMargin),
			})
		}
	}

	// Invariant 5: no matched element teleports. Diff matches
	// geometrically, so an element dragged beyond MaxDisplacement in a
	// single commit is flagged even though its ID is unchanged.
	if cfg.MaxDisplacement >= 0 {
		pp, pl, _, _, _, _ := parent.Counts()
		np, nl, _, _, _, _ := next.Counts()
		if pp+pl <= cfg.DisplacementLimit && np+nl <= cfg.DisplacementLimit {
			opt := core.DefaultDiffOptions()
			opt.MatchRadius = 2 * cfg.MaxDisplacement
			opt.MoveTolerance = cfg.MaxDisplacement
			for _, ch := range core.Diff(parent, next, opt) {
				if ch.Kind == core.ChangeMoved && ch.Displacement > cfg.MaxDisplacement {
					out = append(out, GateViolation{
						Invariant: "displacement",
						Detail: fmt.Sprintf("%s %d moved %.1f m (max %g)",
							ch.Class, ch.ID, ch.Displacement, cfg.MaxDisplacement),
					})
				}
			}
		}
	}
	return out, rep
}
