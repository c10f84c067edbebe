package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"hdmaps/internal/chaos"
	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
	"hdmaps/internal/update/ingest"
)

// cmdIngest runs the supervised maintenance service over a version
// store: reports (from a JSON file, or synthesized with optional chaos
// corruption) are validated, quarantined, fused, and committed through
// the gate. The store directory survives runs: re-invoking ingest
// appends versions, and rollback can step back through them.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	in := fs.String("in", "", "base map to seed an empty store (.hdmp or .json)")
	storeDir := fs.String("store", "versions", "version store directory")
	tilesDir := fs.String("tiles", "", "optional tile directory to publish committed versions to")
	layer := fs.String("layer", "serve", "published tile layer")
	reportsPath := fs.String("reports", "", "JSON file with an array of reports (overrides -synth)")
	synth := fs.Int("synth", 200, "synthesize this many fleet reports from the current map")
	seed := fs.Int64("seed", 42, "seed for synthesis and fault injection")
	malform := fs.Float64("malform", 0.08, "probability a synthetic report is malformed")
	byzantine := fs.Float64("byzantine", 0.05, "probability a synthetic report is mis-georeferenced")
	duplicate := fs.Float64("duplicate", 0.05, "probability a synthetic report is replayed")
	stale := fs.Float64("stale", 0.05, "probability a synthetic report is stale")
	commitEvery := fs.Int("commit-every", 16, "accepted reports per committed version")
	if err := fs.Parse(args); err != nil {
		return err
	}

	vs, err := ingest.OpenVersionDir(*storeDir, ingest.GateConfig{})
	if err != nil {
		return err
	}
	if vs.CurrentSeq() == 0 {
		if *in == "" {
			return fmt.Errorf("store %s is empty: seed it with -in <base map>", *storeDir)
		}
		m, err := loadMap(*in)
		if err != nil {
			return err
		}
		v, err := vs.Commit(m, "genesis from "+*in)
		if err != nil {
			return err
		}
		fmt.Printf("seeded %s with v%d (%d elements)\n", *storeDir, v.Seq, v.Elements)
	}

	var reports []ingest.Report
	if *reportsPath != "" {
		data, err := os.ReadFile(*reportsPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reports); err != nil {
			return fmt.Errorf("decode %s: %w", *reportsPath, err)
		}
		fmt.Printf("ingesting %d reports from %s\n", len(reports), *reportsPath)
	} else {
		reports = synthReports(vs.Current(), *synth, *seed, chaos.ReportChaosConfig{
			Seed:          *seed,
			MalformProb:   *malform,
			ByzantineProb: *byzantine,
			DuplicateProb: *duplicate,
			StaleProb:     *stale,
		})
		fmt.Printf("ingesting %d synthetic reports (seed %d)\n", len(reports), *seed)
	}

	cfg := ingest.Config{
		CommitEvery: *commitEvery,
		// A batch run hands the whole set over at once; overload
		// shedding is for live streams, not operator batches.
		QueueDepth: len(reports) + 16,
	}
	if *tilesDir != "" {
		ts, err := storage.NewDirStore(*tilesDir)
		if err != nil {
			return err
		}
		cfg.Publish = &ingest.PublishConfig{Store: ts, Layer: *layer, Tiler: storage.Tiler{}}
	}
	svc, err := ingest.NewService(vs, cfg)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := svc.Submit(r); err != nil {
			return err
		}
	}
	svc.Close()
	if svc.Metrics().Accepted > 0 {
		if err := svc.Commit("ingest flush"); err != nil {
			fmt.Printf("final commit rejected: %v\n", err)
		}
	}

	m := svc.Metrics()
	fmt.Printf("submitted %d, accepted %d, quarantined %d\n", m.Submitted, m.Accepted, m.QuarantineTotal)
	printReasons(m.Quarantined)
	fmt.Printf("commits %d (rejected %d), published %d (errors %d)\n",
		m.Commits, m.CommitsRejected, m.Published, m.PublishErrors)
	if len(m.OpenBreakers) > 0 {
		fmt.Printf("open breakers: %v\n", m.OpenBreakers)
	}
	fmt.Printf("current version: v%d\n", m.CurrentVersion)
	return nil
}

func printReasons(counts map[ingest.Reason]uint64) {
	keys := make([]string, 0, len(counts))
	for k, v := range counts {
		if v > 0 {
			keys = append(keys, string(k))
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-10s %d\n", k, counts[ingest.Reason(k)])
	}
}

// synthReports fabricates fleet reports by re-observing the map's point
// elements with sensor noise, then mangles them through the chaos
// injector so the run exercises quarantine and the gate.
func synthReports(m *core.Map, n int, seed int64, chaosCfg chaos.ReportChaosConfig) []ingest.Report {
	type anchor struct {
		p     geo.Vec2
		class core.Class
	}
	var anchors []anchor
	for _, id := range m.PointIDs() {
		p, _ := m.Point(id)
		anchors = append(anchors, anchor{p: geo.V2(p.Pos.X, p.Pos.Y), class: p.Class})
	}
	if len(anchors) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	inj := chaos.NewReportInjector(chaosCfg)
	var out []ingest.Report
	for i := 0; i < n; i++ {
		center := anchors[rng.Intn(len(anchors))]
		r := ingest.Report{
			Source: fmt.Sprintf("veh-%d", i%4),
			Seq:    uint64(i + 1),
			Stamp:  m.Clock + uint64(i+1),
		}
		for _, a := range anchors {
			if dx, dy := a.p.X-center.p.X, a.p.Y-center.p.Y; dx < -60 || dx > 60 || dy < -60 || dy > 60 {
				continue
			}
			r.Observations = append(r.Observations, incremental.Observation{
				Class:  a.class,
				P:      geo.V2(a.p.X+rng.NormFloat64()*0.3, a.p.Y+rng.NormFloat64()*0.3),
				PosVar: 0.1,
				Stamp:  r.Stamp,
			})
		}
		mangled, _ := inj.Mangle(r)
		out = append(out, mangled...)
	}
	return out
}

// cmdVersions lists a version store's commit log and cursor.
func cmdVersions(args []string) error {
	fs := flag.NewFlagSet("versions", flag.ExitOnError)
	storeDir := fs.String("store", "versions", "version store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vs, err := ingest.OpenVersionDir(*storeDir, ingest.GateConfig{})
	if err != nil {
		return err
	}
	versions := vs.Versions()
	if len(versions) == 0 {
		fmt.Println("store is empty")
		return nil
	}
	cur := vs.CurrentSeq()
	fmt.Printf("%-3s %-6s %-8s %-9s %-10s %s\n", "", "seq", "clock", "elements", "checksum", "note")
	for _, v := range versions {
		marker := ""
		if v.Seq == cur {
			marker = "*"
		}
		fmt.Printf("%-3s v%-5d %-8d %-9d %-10s %s\n", marker, v.Seq, v.Clock, v.Elements, v.Checksum, v.Note)
	}
	return nil
}

// cmdRollback moves a version store's cursor back n versions and, when
// a tile directory is given, republishes the restored version's tiles.
func cmdRollback(args []string) error {
	fs := flag.NewFlagSet("rollback", flag.ExitOnError)
	storeDir := fs.String("store", "versions", "version store directory")
	n := fs.Int("n", 1, "versions to step back")
	tilesDir := fs.String("tiles", "", "optional tile directory to republish")
	layer := fs.String("layer", "serve", "published tile layer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vs, err := ingest.OpenVersionDir(*storeDir, ingest.GateConfig{})
	if err != nil {
		return err
	}
	v, err := vs.Rollback(*n)
	if err != nil {
		return err
	}
	fmt.Printf("rolled back to v%d (%d elements, checksum %s)\n", v.Seq, v.Elements, v.Checksum)
	if *tilesDir != "" {
		ts, err := storage.NewDirStore(*tilesDir)
		if err != nil {
			return err
		}
		// A one-shot republish remembers no earlier publish, so it
		// rewrites every tile.
		st, err := (storage.Tiler{}).SyncMap(ts, vs.Frozen(), *layer)
		if err != nil {
			return err
		}
		fmt.Printf("republished to %s: %d tiles saved, %d unchanged, %d stale dropped\n",
			*tilesDir, st.Saved, st.Unchanged, st.Deleted)
	}
	return nil
}
