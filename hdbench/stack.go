package hdbench

// opKind is the type of a vehicle operation; per-type latencies are
// pooled separately so a mixed workload can be split.
type opKind int

const (
	kindFetch   opKind = iota // storage.Client.FetchRegion
	kindPut                   // storage.Client.PutTile
	kindPublish               // 16 reports submitted, then the publish awaited
	nKinds
)

var kindNames = [nKinds]string{"fetch_region", "put_tile", "publish"}

// stack is one freshly built system under test together with the seeded
// operation stream that drives it. Building one (and running its warm
// pass) is what setup_s times.
type stack interface {
	// warm runs the fixed warm-up pass that ends a set-up: the first
	// operations of the seeded stream, on one goroutine.
	warm() error
	// prepare draws the next n operations of every vehicle from the
	// stream. It runs outside the timed window.
	prepare(n int)
	// do runs prepared operation i of vehicle v, tagging every request
	// with the trace ID, and reports whether its output checked out.
	do(v, i int, trace string) (opKind, bool)
	// counters reads every cumulative layer counter.
	counters() counters
	// finish runs the end-of-run output checks and returns how many of
	// them failed.
	finish() (failed, checked int)
	// chain lists the stack's layers from the outside in.
	chain() []string
	close()
}

// counter indexes one cumulative count a stack exposes: a byte counter
// of a Wire, a call counter of a wrapper, or a field of a layer's public
// Stats()/Metrics() snapshot.
type counter int

const (
	// cWireBytes is body bytes across the system's outer boundary.
	cWireBytes counter = iota
	cFrontRequests
	cFrontTileRequests
	cFrontListBytes
	cFrontTileBytes
	cClientRetries

	cResSubmitted
	cResCacheHits
	cResCacheMisses
	cResCoalesced
	cResShed
	cResInner

	cServerCalls

	cStoreGets
	cStoreKeys
	cStorePuts
	cStoreDeletes
	cStorePutBytes
	cStorePutsChanged

	cLegRequests
	cLegBytes
	cRepairs
	cHints

	cSubmitNs
	cReportsSubmitted
	cReportsAccepted
	cCommits
	// cStage* are the sums, in seconds, of the ingest service's own
	// stage-duration histograms.
	cStageValidate
	cStageScreen
	cStageFuse
	cStageCommit
	cStagePublish

	nCounters
)

// counters is one reading of every counter. float64 holds the integer
// counts exactly and lets the histogram sums share the array.
type counters [nCounters]float64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}
