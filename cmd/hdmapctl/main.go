// Command hdmapctl is the HD-map toolbox: generate synthetic worlds,
// build maps from simulated sensor drives, inspect/validate/diff maps,
// convert formats, and compute lane-level routes.
//
// Subcommands:
//
//	hdmapctl gen -kind highway -length 2000 -out map.hdmp
//	hdmapctl gen -kind grid -rows 4 -cols 4 -out city.hdmp
//	hdmapctl stats -in map.hdmp
//	hdmapctl validate -in map.hdmp
//	hdmapctl verify-map map.hdmp                                (constraint engine, -json for reports)
//	hdmapctl verify-map -tiles tiles/ -layer base               (verify a stitched tile layer)
//	hdmapctl convert -in map.hdmp -out map.json
//	hdmapctl diff -a old.hdmp -b new.hdmp
//	hdmapctl route -in city.hdmp -from <laneletID> -to <laneletID>
//	hdmapctl drive -kind highway -length 1000 -out built.hdmp   (LiDAR mapping run)
//	hdmapctl serve -dir tiles/ -addr :8080                      (tile distribution server)
//	hdmapctl serve -dir shards/ -cluster 5 -replicas 3          (sharded replicated cluster)
//	hdmapctl cluster -base http://localhost:8080                (cluster status)
//	hdmapctl top -base http://localhost:8080                    (live fleet dashboard)
//	hdmapctl fetch -base http://host:8080 -layer base -out region.hdmp  (vehicle-side pull)
//	hdmapctl loadtest -clients 40 -requests 100                 (overload drill + /statz)
//	hdmapctl ingest -in base.hdmp -store versions/ -synth 200   (supervised maintenance)
//	hdmapctl versions -store versions/
//	hdmapctl rollback -store versions/ -n 1 -tiles tiles/
//
// Long-running commands (serve, fetch) stop cleanly on SIGINT/SIGTERM:
// serve drains in-flight requests through http.Server.Shutdown, fetch
// cancels its context so retries stop immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hdmaps/internal/apps/planning"
	"hdmaps/internal/core"
	"hdmaps/internal/creation/lidarmap"
	"hdmaps/internal/mapeval"
	"hdmaps/internal/sensors"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Root context for every subcommand: first SIGINT/SIGTERM cancels,
	// a second one kills via the restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	case "verify-map":
		err = cmdVerifyMap(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "route":
		err = cmdRoute(os.Args[2:])
	case "drive":
		err = cmdDrive(os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "fetch":
		err = cmdFetch(ctx, os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(ctx, os.Args[2:])
	case "cluster":
		err = cmdCluster(ctx, os.Args[2:])
	case "top":
		err = cmdTop(ctx, os.Args[2:])
	case "incidents":
		err = cmdIncidents(ctx, os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "versions":
		err = cmdVersions(os.Args[2:])
	case "rollback":
		err = cmdRollback(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `hdmapctl — HD map toolbox

subcommands:
  gen       generate a synthetic world map (-kind highway|grid)
  stats     print map statistics
  validate  check structural invariants
  verify-map
            run the reference-free constraint engine (geometric,
            topological, semantic rules) over a map file or a stitched
            tile layer; -json for machine-readable reports, -rules to
            list the rule catalog; exits non-zero iff Error-severity
            violations exist
  convert   convert between binary (.hdmp) and JSON (.json)
  diff      geometric diff of two maps
  route     lane-level route between two lanelets
  drive     run the LiDAR mapping pipeline over a generated world
  serve     serve a tile directory over HTTP with overload protection
            (admission control, per-client rate limits, hot-tile cache,
            request coalescing; graceful drain on SIGINT); exposes
            /statz and /metricz, plus pprof via -pprof and structured
            logs via -log-level. With -cluster N -replicas R it boots N
            sharded nodes behind a consistent-hash router with quorum
            reads, read-repair, and hinted handoff (/clusterz)
  cluster   print a running cluster router's /clusterz status (members,
            quorum shape, repair and handoff accounting)
  top       live terminal dashboard over a router's /fleetz: per-node
            QPS, p99, shed/error rates, hints, tombstones, active SLO
            burn-rate alerts, and the tail of the cluster event journal
            (-once for a single snapshot)
  incidents print a router's /incidentz table: each incident's alert
            arc, the journal events in its causal window, and its
            exemplar trace (-state open|resolved, -json for raw)
  fetch     pull a tile region from a server and stitch it to one map
  loadtest  stampede a tile server with a zipfian closed-loop fleet and
            print its latency histogram and /statz snapshot (self-hosts
            a server when -base is empty)
  ingest    run supervised map maintenance into a version store
  versions  list a version store's commit log
  rollback  restore a previous map version (and republish its tiles)`)
}

func loadMap(path string) (*core.Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		return storage.DecodeJSON(data)
	}
	return storage.DecodeBinary(data)
}

func saveMap(m *core.Map, path string) error {
	var data []byte
	var err error
	if strings.HasSuffix(path, ".json") {
		data, err = storage.EncodeJSON(m)
		if err != nil {
			return err
		}
	} else {
		data = storage.EncodeBinary(m)
	}
	return os.WriteFile(path, data, 0o644)
}

func generate(kind string, length float64, rows, cols, lanes int, seed int64) (*worldgen.World, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "highway":
		hw, err := worldgen.GenerateHighway(worldgen.HighwayParams{
			LengthM: length, Lanes: lanes, SignSpacing: 150,
			CurveAmp: 25, CurvePeriod: 1500, HillAmp: 30,
		}, rng)
		if err != nil {
			return nil, err
		}
		return hw.World, nil
	case "grid":
		g, err := worldgen.GenerateGrid(worldgen.GridParams{
			Rows: rows, Cols: cols, Lanes: lanes, TrafficLights: true,
		}, rng)
		if err != nil {
			return nil, err
		}
		return g.World, nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want highway|grid)", kind)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "highway", "highway|grid")
	length := fs.Float64("length", 2000, "highway length, m")
	rows := fs.Int("rows", 4, "grid rows")
	cols := fs.Int("cols", 4, "grid cols")
	lanes := fs.Int("lanes", 2, "lanes per direction")
	seed := fs.Int64("seed", 42, "seed")
	out := fs.String("out", "map.hdmp", "output path (.hdmp or .json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := generate(*kind, *length, *rows, *cols, *lanes, *seed)
	if err != nil {
		return err
	}
	if err := saveMap(w.Map, *out); err != nil {
		return err
	}
	s := w.Map.ComputeStats()
	fmt.Printf("wrote %s: %d lanelets, %.1f lane-km, %d points, %d lines\n",
		*out, s.Lanelets, s.TotalLaneKm, s.Points, s.Lines)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input map")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadMap(*in)
	if err != nil {
		return err
	}
	s := m.ComputeStats()
	fmt.Printf("name:            %s\n", m.Name)
	fmt.Printf("points:          %d\n", s.Points)
	fmt.Printf("lines:           %d\n", s.Lines)
	fmt.Printf("areas:           %d\n", s.Areas)
	fmt.Printf("lanelets:        %d\n", s.Lanelets)
	fmt.Printf("bundles:         %d\n", s.Bundles)
	fmt.Printf("regulatory:      %d\n", s.Regs)
	fmt.Printf("lane km:         %.2f\n", s.TotalLaneKm)
	fmt.Printf("boundary km:     %.2f\n", s.TotalBoundaryKm)
	fmt.Printf("mean confidence: %.3f\n", s.MeanConfidence)
	fmt.Printf("extent:          %.0fx%.0f m\n",
		s.Extent.Max.X-s.Extent.Min.X, s.Extent.Max.Y-s.Extent.Min.Y)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	in := fs.String("in", "", "input map")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadMap(*in)
	if err != nil {
		return err
	}
	issues := m.Validate()
	if len(issues) == 0 {
		fmt.Println("ok: map is structurally consistent")
		return nil
	}
	for _, iss := range issues {
		fmt.Println(iss)
	}
	return fmt.Errorf("%d issues", len(issues))
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input map")
	out := fs.String("out", "", "output map")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadMap(*in)
	if err != nil {
		return err
	}
	if err := saveMap(m, *out); err != nil {
		return err
	}
	fmt.Printf("converted %s -> %s\n", *in, *out)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	a := fs.String("a", "", "base map")
	b := fs.String("b", "", "other map")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ma, err := loadMap(*a)
	if err != nil {
		return err
	}
	mb, err := loadMap(*b)
	if err != nil {
		return err
	}
	changes := core.Diff(ma, mb, core.DefaultDiffOptions())
	for _, c := range changes {
		fmt.Printf("%-8s %-14s id=%d at %s", c.Kind, c.Class, c.ID, c.Where)
		if c.Kind == core.ChangeMoved {
			fmt.Printf(" (%.2f m)", c.Displacement)
		}
		fmt.Println()
	}
	fmt.Printf("%d changes\n", len(changes))
	return nil
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	in := fs.String("in", "", "input map")
	from := fs.Int64("from", 0, "start lanelet id")
	to := fs.Int64("to", 0, "goal lanelet id")
	algo := fs.String("algo", "bhps", "dijkstra|astar|bfs|bhps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := loadMap(*in)
	if err != nil {
		return err
	}
	g, err := m.BuildRouteGraph()
	if err != nil {
		return err
	}
	var r *planning.Route
	switch *algo {
	case "dijkstra":
		r, err = planning.Dijkstra(g, core.ID(*from), core.ID(*to))
	case "astar":
		r, err = planning.AStar(g, m, core.ID(*from), core.ID(*to))
	case "bfs":
		r, err = planning.BFS(g, core.ID(*from), core.ID(*to))
	default:
		r, err = planning.BHPS(g, core.ID(*from), core.ID(*to))
	}
	if err != nil {
		return err
	}
	fmt.Printf("route: %d lanelets, cost %.1f m-eq, %d lane changes, %d expansions\n",
		len(r.Lanelets), r.Cost, r.LaneChanges(g), r.Expanded)
	for _, id := range r.Lanelets {
		fmt.Printf("  %d\n", id)
	}
	return nil
}

func cmdDrive(args []string) error {
	fs := flag.NewFlagSet("drive", flag.ExitOnError)
	length := fs.Float64("length", 1000, "highway length, m")
	lanes := fs.Int("lanes", 2, "lanes")
	grade := fs.String("gps", "rtk", "gps grade: consumer|dgps|rtk")
	seed := fs.Int64("seed", 42, "seed")
	out := fs.String("out", "built.hdmp", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	hw, err := worldgen.GenerateHighway(worldgen.HighwayParams{
		LengthM: *length, Lanes: *lanes, SignSpacing: 120,
	}, rng)
	if err != nil {
		return err
	}
	route, err := hw.RoutePolyline(hw.LaneChains[0])
	if err != nil {
		return err
	}
	var g sensors.GPSGrade
	switch *grade {
	case "consumer":
		g = sensors.GPSConsumer
	case "dgps":
		g = sensors.GPSDGPS
	default:
		g = sensors.GPSRTK
	}
	res, err := lidarmap.BuildFromRoute(hw.World, route, lidarmap.Config{GPSGrade: g}, rng)
	if err != nil {
		return err
	}
	if err := saveMap(res.Map, *out); err != nil {
		return err
	}
	te := mapeval.EvalTrajectory(res.PoseErrors)
	lr := mapeval.EvalLines(hw.Map, res.Map, core.ClassLaneBoundary, 3)
	fmt.Printf("drove %.0f m, %d scans, %d points\n", route.Length(), res.Scans, res.Points)
	fmt.Printf("pose error: mean %.3f m, p95 %.3f m\n", te.Mean, te.P95)
	fmt.Printf("boundary error vs truth: %.3f m (completeness %.0f%%)\n",
		lr.MeanError, lr.Completeness*100)
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func cmdFetch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	base := fs.String("base", "http://localhost:8080", "tile server URL")
	layer := fs.String("layer", "base", "layer to pull")
	tx0 := fs.Int("tx0", -1000, "min tile x")
	ty0 := fs.Int("ty0", -1000, "min tile y")
	tx1 := fs.Int("tx1", 1000, "max tile x")
	ty1 := fs.Int("ty1", 1000, "max tile y")
	out := fs.String("out", "region.hdmp", "output path (.hdmp or .json)")
	timeout := fs.Duration("timeout", 30*time.Second, "overall fetch deadline")
	attempts := fs.Int("attempts", 4, "per-request attempts (1 disables retries)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	client := &storage.Client{
		Base:  *base,
		Retry: storage.RetryPolicy{MaxAttempts: *attempts},
	}
	m, health, err := client.FetchRegion(ctx, *layer, int32(*tx0), int32(*ty0), int32(*tx1), int32(*ty1), "region")
	if err != nil {
		return err
	}
	if err := saveMap(m, *out); err != nil {
		return err
	}
	status := "fresh"
	if health.Degraded {
		status = "DEGRADED"
	}
	fmt.Printf("fetched %s region [%d,%d]x[%d,%d]: %d tiles (%d fresh, %d revalidated, %d stale, %d missing) — %s\n",
		*layer, *tx0, *ty0, *tx1, *ty1, health.Requested, health.Fresh, health.Revalidated, health.Stale, len(health.Missing), status)
	fmt.Printf("wrote %s (%d elements)\n", *out, m.NumElements())
	return nil
}
