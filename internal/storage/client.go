package storage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/core"
	"hdmaps/internal/obs"
	"hdmaps/internal/resilience"
)

// ErrChecksum is returned when a fetched tile's payload does not match
// the server's checksum header — the wire damaged it. It is transient:
// the retry loop treats it like a 5xx and refetches.
var ErrChecksum = errors.New("storage: tile checksum mismatch")

// ErrBudget is returned when a fetch gives up because the retry budget
// for the whole operation is exhausted.
var ErrBudget = errors.New("storage: retry budget exhausted")

// RetryPolicy bounds how hard the client fights a misbehaving network.
// The zero value is usable: it resolves to the defaults documented on
// each field.
type RetryPolicy struct {
	// MaxAttempts is the per-request attempt cap, first try included
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// it doubles per attempt with full jitter applied.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 2s).
	MaxDelay time.Duration
	// Budget caps the total number of retries (attempts beyond the
	// first) spent across one multi-request operation such as
	// FetchRegion (default 64). Individual requests count against it so
	// one flaky region cannot stall a vehicle indefinitely.
	Budget int
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

func (p RetryPolicy) budget() int {
	if p.Budget <= 0 {
		return 64
	}
	return p.Budget
}

// backoff returns the sleep before retry number n (n=1 is the first
// retry), exponential with full jitter.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.base() << uint(n-1)
	if d > p.max() || d <= 0 {
		d = p.max()
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rng.Float64()))
}

// Client pulls tiles from a TileServer — the vehicle-side consumer.
// All fetches take a context; per-attempt timeouts, retries with
// exponential backoff, and checksum verification are built in, because
// over a cellular link to a moving vehicle the failure path is the hot
// path.
type Client struct {
	// Base is the server URL, e.g. "http://maps.internal:8080".
	Base string
	// Endpoints, when non-empty, lists equivalent server (or cluster
	// router) URLs to fail over between, overriding Base. The client
	// sticks to one endpoint until an attempt against it fails with a
	// transient error, then rotates to the next for the following
	// attempt — so a single dead router is a one-attempt hiccup, not a
	// fatal configuration.
	Endpoints []string
	// HTTP is the client to use (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry is the retry policy; its zero value means sane defaults.
	Retry RetryPolicy
	// Timeout bounds each individual attempt (default 10s). The
	// caller's context still bounds the whole operation.
	Timeout time.Duration
	// Cache, when set, keeps last-known-good tiles so FetchRegion can
	// degrade to stale data instead of failing when the server is
	// unreachable — and, while it is reachable, skip the download of
	// every tile the region's manifest lists in the state it was cached
	// under.
	Cache *TileCache
	// ClientID, when set, is sent as X-Client-Id on every request so an
	// overload-protected server can rate-limit per vehicle rather than
	// per source address (fleets often share NAT egress).
	ClientID string
	// Metrics is where the client's counters register (obs.Default()
	// when nil). Tests asserting exact counts inject a fresh registry.
	Metrics *obs.Registry
	// Tracer, when set, wraps each logical operation (get_tile,
	// put_tile, fetch_region) in a span with every HTTP attempt as a
	// child span, tail-sampled like the server side. Each attempt's
	// span ID rides SpanHeader so the server's trace nests under it.
	// Nil disables client-side tracing.
	Tracer *obs.Tracer
	// Log receives structured fetch/retry records; nil discards them.
	Log *slog.Logger

	rngMu sync.Mutex
	rng   *rand.Rand

	// epIdx is the index of the endpoint currently in use; failover
	// advances it by exactly one per observed failure (CAS, so a herd
	// of concurrent fetches hitting the same dead endpoint rotates
	// once, not once per fetch).
	epIdx atomic.Uint32

	metricsOnce sync.Once
	cm          clientMetrics
}

// endpoints resolves the failover list: Endpoints when set, else the
// single Base.
func (c *Client) endpoints() []string {
	if len(c.Endpoints) > 0 {
		return c.Endpoints
	}
	return []string{c.Base}
}

// endpoint returns the endpoint attempts should currently target.
func (c *Client) endpoint() string {
	eps := c.endpoints()
	return eps[int(c.epIdx.Load())%len(eps)]
}

// failover rotates to the next endpoint if the current index is still
// `from` — the attempt that failed names the index it used, so two
// concurrent failures against the same endpoint advance once.
func (c *Client) failover(from uint32) {
	if len(c.endpoints()) < 2 {
		return
	}
	if c.epIdx.CompareAndSwap(from, from+1) {
		c.metrics().failovers.Inc()
	}
}

// clientMetrics are the client's transport-health counters, resolved
// once on first use so a zero-value Client still counts into the
// process default registry.
type clientMetrics struct {
	// attempts counts every HTTP attempt issued (first tries and
	// retries alike); retries counts only the re-tries, so
	// attempts - retries = logical requests that reached the wire.
	attempts *obs.Counter
	retries  *obs.Counter
	// retryAfterWaits counts backoffs that honored a server Retry-After
	// hint instead of the exponential guess.
	retryAfterWaits *obs.Counter
	// integrityFailures counts payloads rejected after arrival:
	// checksum mismatches, structurally invalid tile/JSON bodies, and
	// bodies over maxBodyBytes.
	integrityFailures *obs.Counter
	// failovers counts endpoint rotations after transient failures.
	failovers *obs.Counter
	// revalidated counts region tiles served from the Cache with no
	// request, because the manifest listed the state they were cached
	// under.
	revalidated *obs.Counter
}

func (c *Client) metrics() *clientMetrics {
	c.metricsOnce.Do(func() {
		reg := c.Metrics
		if reg == nil {
			reg = obs.Default()
		}
		c.cm = clientMetrics{
			attempts:          reg.Counter("storage.client.attempts"),
			retries:           reg.Counter("storage.client.retries"),
			retryAfterWaits:   reg.Counter("storage.client.retry_after_waits"),
			integrityFailures: reg.Counter("storage.client.integrity_failures"),
			failovers:         reg.Counter("storage.client.failovers"),
			revalidated:       reg.Counter("storage.client.revalidated"),
		}
	})
	return &c.cm
}

func (c *Client) logger() *slog.Logger { return obs.OrNop(c.Log) }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 10 * time.Second
	}
	return c.Timeout
}

// newRequest builds one attempt's request, stamping the client
// identity when configured and propagating the operation's trace ID so
// the server logs the same ID the client does.
func (c *Client) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if c.ClientID != "" {
		req.Header.Set(resilience.ClientIDHeader, c.ClientID)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		req.Header.Set(obs.SpanHeader, sp.IDHex())
	}
	return req, nil
}

// sleepBackoff waits before retry number `retry`. When the failed
// attempt carried a server Retry-After hint, that wins over the
// exponential guess — capped by the per-attempt timeout, so a hostile
// or confused server advertising "Retry-After: 3600" cannot park the
// vehicle for an hour. Otherwise: exponential backoff with full
// jitter; the rng is lazily seeded and mutex-held so concurrent
// fetches stay race-free.
func (c *Client) sleepBackoff(ctx context.Context, retry int, hint time.Duration) error {
	var d time.Duration
	if hint > 0 {
		c.metrics().retryAfterWaits.Inc()
		d = hint
		if max := c.timeout(); d > max {
			d = max
		}
	} else {
		c.rngMu.Lock()
		if c.rng == nil {
			c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		d = c.Retry.backoff(retry, c.rng)
		c.rngMu.Unlock()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transientError marks an error worth retrying. retryAfter, when
// positive, is the server's own backoff hint (a 429/503 Retry-After
// header): an overloaded server knows better than our exponential
// guess when it will have capacity again.
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(err error) error { return &transientError{err: err} }

func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// retryAfterOf extracts the server's retry hint from a transient
// error (zero when none was given).
func retryAfterOf(err error) time.Duration {
	var te *transientError
	if errors.As(err, &te) {
		return te.retryAfter
	}
	return 0
}

// parseRetryAfter reads a Retry-After header: delta-seconds or an
// HTTP date. Zero for absent/unparseable/past values.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// doRetry runs one logical request under the retry policy. budget may
// be nil (per-request budget only). fn performs a single attempt
// against the endpoint URL it is handed; it classifies its own
// failures by wrapping retryable ones via transient(). Each attempt is
// a child span of the operation's span, so a sampled trace shows
// exactly which attempt succeeded, which endpoint it used, and how the
// backoffs spread out. A transient failure rotates to the next
// configured endpoint before the retry, so a dead router costs one
// attempt, not the whole operation.
func (c *Client) doRetry(ctx context.Context, budget *int, op string, fn func(ctx context.Context, base string) error) error {
	attempts := c.Retry.attempts()
	m := c.metrics()
	eps := c.endpoints()
	var lastErr error
	for attempt := 1; ; attempt++ {
		m.attempts.Inc()
		if attempt > 1 {
			m.retries.Inc()
		}
		epFrom := c.epIdx.Load()
		base := eps[int(epFrom)%len(eps)]
		actx, cancel := context.WithTimeout(ctx, c.timeout())
		actx, asp := c.Tracer.StartSpan(actx, "client.attempt")
		asp.SetAttr("op", op)
		asp.SetAttrInt("attempt", int64(attempt))
		if len(eps) > 1 {
			asp.SetAttr("endpoint", base)
		}
		err := fn(actx, base)
		if err != nil {
			asp.Fail(err.Error())
		}
		asp.End()
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		c.logger().LogAttrs(ctx, slog.LevelDebug, "attempt failed",
			slog.Int("attempt", attempt), slog.String("error", err.Error()))
		// The caller's deadline expiring is final; a per-attempt
		// timeout (actx expired, ctx still live) is transient.
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last attempt: %v)", ctx.Err(), err)
		}
		if !isTransient(err) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		c.failover(epFrom)
		if attempt >= attempts {
			return lastErr
		}
		if budget != nil {
			if *budget <= 0 {
				return fmt.Errorf("%w: %v", ErrBudget, lastErr)
			}
			*budget--
		}
		if err := c.sleepBackoff(ctx, attempt, retryAfterOf(lastErr)); err != nil {
			return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
		}
	}
}

// classifyStatus converts a non-2xx response into an error, marking
// 5xx (and 429) transient. An overloaded server's 429/503 Retry-After
// hint rides along so the retry loop can honor it.
func classifyStatus(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	err := fmt.Errorf("storage client: %s: %s: %s", op, resp.Status, strings.TrimSpace(string(body)))
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests ||
		resp.Header.Get(TransientHeader) != "" {
		return &transientError{err: err, retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	return err
}

// maxBodyBytes is the most the client reads of one response body: the
// tile server's own default upload ceiling.
const maxBodyBytes = 16 << 20

// readBody reads a response body up to maxBodyBytes (ReadBody). A read
// failure is transient; an over-limit body is an integrity failure and
// is not.
func (c *Client) readBody(resp *http.Response) ([]byte, error) {
	data, err := ReadBody(resp.Body, resp.ContentLength, maxBodyBytes)
	if errors.Is(err, ErrBodyTooLarge) {
		c.metrics().integrityFailures.Inc()
		return nil, err
	}
	if err != nil {
		return nil, transient(err)
	}
	return data, nil
}

// getJSON fetches a server path and decodes its JSON body with
// retries (and endpoint failover — the path is joined to the current
// endpoint per attempt).
func (c *Client) getJSON(ctx context.Context, budget *int, op, path string, out interface{}) error {
	ctx, osp := c.Tracer.StartSpan(ctx, "client.get_json")
	osp.SetAttr("op", op)
	err := c.doRetry(ctx, budget, op, func(ctx context.Context, base string) error {
		req, err := c.newRequest(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return transient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return classifyStatus(op, resp)
		}
		data, err := c.readBody(resp)
		if err != nil {
			return fmt.Errorf("storage client: %s: %w", op, err)
		}
		// Metadata is integrity-checked like tiles: a bit flip in the
		// tile list could silently shrink the vehicle's map.
		if want := resp.Header.Get(ChecksumHeader); want != "" && !ChecksumMatches(want, data) {
			c.metrics().integrityFailures.Inc()
			return transient(fmt.Errorf("storage client: %s: %w", op, ErrChecksum))
		}
		// A corrupted JSON body is indistinguishable from truncation;
		// both are wire damage, so retry.
		if err := json.Unmarshal(data, out); err != nil {
			c.metrics().integrityFailures.Inc()
			return transient(fmt.Errorf("storage client: %s: %w", op, err))
		}
		return nil
	})
	if err != nil {
		osp.Fail(err.Error())
	}
	osp.End()
	return err
}

// Layers lists the server's layers.
func (c *Client) Layers(ctx context.Context) ([]string, error) {
	ctx, _ = obs.EnsureTraceID(ctx)
	var out []string
	if err := c.getJSON(ctx, nil, "layers", "/v1/layers", &out); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Client) tilePath(key TileKey) string {
	return fmt.Sprintf("/v1/tiles/%s/%d/%d", key.Layer, key.TX, key.TY)
}

// GetTile fetches one tile's bytes with retries and checksum
// verification; ErrNoTile when absent. Successful fetches refresh the
// client's Cache when one is configured.
func (c *Client) GetTile(ctx context.Context, key TileKey) ([]byte, error) {
	data, _, err := c.getTile(ctx, nil, key)
	return data, err
}

// getTile returns the tile's bytes and what its validation parsed of
// them, so a caller that wants the elements does not parse again.
func (c *Client) getTile(ctx context.Context, budget *int, key TileKey) ([]byte, *parsedTile, error) {
	// Every tile fetch is one traced operation: the ID minted (or
	// inherited) here rides the TraceHeader of every attempt, so client
	// and server logs join on it.
	ctx, _ = obs.EnsureTraceID(ctx)
	ctx, osp := c.Tracer.StartSpan(ctx, "client.get_tile")
	osp.SetAttr("layer", key.Layer)
	osp.SetAttrInt("tx", int64(key.TX))
	osp.SetAttrInt("ty", int64(key.TY))
	start := time.Now()
	var data []byte
	var tile *parsedTile
	var sum string // the checksum header data was verified against
	err := c.doRetry(ctx, budget, "get tile", func(ctx context.Context, base string) error {
		req, err := c.newRequest(ctx, http.MethodGet, base+c.tilePath(key), nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return transient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return fmt.Errorf("%v: %w", key, ErrNoTile)
		}
		if resp.StatusCode != http.StatusOK {
			return classifyStatus("get tile", resp)
		}
		body, err := c.readBody(resp)
		if err != nil {
			return fmt.Errorf("%v: %w", key, err)
		}
		// Verify payload integrity against the server's checksum; a
		// mismatch is wire corruption, so retry rather than hand a
		// silently wrong map to the planner.
		if want := resp.Header.Get(ChecksumHeader); want != "" && !ChecksumMatches(want, body) {
			c.metrics().integrityFailures.Inc()
			return transient(fmt.Errorf("%v: %w", key, ErrChecksum))
		}
		// The checksum covers the wire, not the server's disk: a tile
		// corrupted at rest checksums "correctly", so also require a
		// structurally valid map before accepting the payload.
		parsed, perr := parseTile(body)
		if perr != nil {
			c.metrics().integrityFailures.Inc()
			return transient(fmt.Errorf("%v: invalid tile payload: %w", key, perr))
		}
		data, tile, sum = body, parsed, resp.Header.Get(ChecksumHeader)
		return nil
	})
	if err != nil {
		c.logger().LogAttrs(ctx, slog.LevelWarn, "tile fetch failed",
			slog.String("layer", key.Layer), slog.Int("tx", int(key.TX)), slog.Int("ty", int(key.TY)),
			slog.Duration("dur", time.Since(start)), slog.String("error", err.Error()))
		osp.Fail(err.Error())
		osp.End()
		return nil, nil, err
	}
	c.logger().LogAttrs(ctx, slog.LevelInfo, "tile fetched",
		slog.String("layer", key.Layer), slog.Int("tx", int(key.TX)), slog.Int("ty", int(key.TY)),
		slog.Int("bytes", len(data)), slog.Duration("dur", time.Since(start)))
	osp.End()
	if c.Cache != nil {
		var served ReplicaState // absent: a server that sent no checksum vouched for nothing
		if sum != "" {
			served = ReplicaState{Found: true, Clock: tile.clock, Sum: sum}
		}
		c.Cache.put(key, data, served)
	}
	return data, tile, nil
}

// PutTile uploads one tile with retries; the payload checksum travels
// in the request header so the server can reject in-transit damage.
func (c *Client) PutTile(ctx context.Context, key TileKey, data []byte) error {
	ctx, _ = obs.EnsureTraceID(ctx)
	ctx, osp := c.Tracer.StartSpan(ctx, "client.put_tile")
	osp.SetAttr("layer", key.Layer)
	sum := Checksum(data)
	err := c.doRetry(ctx, nil, "put tile", func(ctx context.Context, base string) error {
		req, err := c.newRequest(ctx, http.MethodPut, base+c.tilePath(key), strings.NewReader(string(data)))
		if err != nil {
			return err
		}
		req.Header.Set(ChecksumHeader, sum)
		resp, err := c.http().Do(req)
		if err != nil {
			return transient(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return classifyStatus("put tile", resp)
		}
		return nil
	})
	if err != nil {
		osp.Fail(err.Error())
	}
	osp.End()
	return err
}

// TileState classifies how one tile of a region was obtained.
type TileState int

const (
	// TileFresh means the tile came from the server this fetch.
	TileFresh TileState = iota
	// TileStale means the server failed and the cache served a
	// last-known-good copy.
	TileStale
	// TileMissing means neither server nor cache could provide it.
	TileMissing
)

// RegionHealth reports how a FetchRegion call actually went — the
// vehicle's map-health signal for downstream consumers (a planner may
// slow down on a stale map and refuse to act on a missing one).
type RegionHealth struct {
	// Requested counts tiles that should make up the region.
	Requested int
	// Fresh, Stale count tiles by provenance.
	Fresh, Stale int
	// Revalidated counts the Fresh tiles that were not downloaded: the
	// server's manifest listed them in the very state (clock and
	// write-time checksum) the Cache holds them in.
	Revalidated int
	// Missing lists tiles neither the server nor the cache had.
	Missing []TileKey
	// Degraded is true when anything other than a fully fresh region
	// was returned: stale tiles, missing tiles, or a cache-derived
	// tile list because the server was unreachable.
	Degraded bool
	// Errors carries one representative fetch error per degraded tile
	// (bounded; diagnostic only).
	Errors []error
}

func (h *RegionHealth) addError(err error) {
	if len(h.Errors) < 8 {
		h.Errors = append(h.Errors, err)
	}
}

// FetchRegion downloads all tiles of a layer whose coordinates fall in
// [tx0,tx1]×[ty0,ty1] and lands them in one map — the vehicle's
// map-region pull. The health report says whether the result is fully
// fresh or degraded; with a Cache configured, server failures degrade
// to last-known-good tiles instead of failing the whole pull. An
// error is returned only when no usable region can be assembled at
// all. The map shares backing arrays as DecodeBinary's does.
func (c *Client) FetchRegion(ctx context.Context, layer string, tx0, ty0, tx1, ty1 int32, name string) (*core.Map, *RegionHealth, error) {
	// One region pull is one trace; the per-tile getTile calls inherit
	// the ID rather than minting their own, and their spans nest under
	// this region span (failed tiles mark the trace errored, so a
	// degraded pull is always in the flight recorder).
	ctx, _ = obs.EnsureTraceID(ctx)
	ctx, rsp := c.Tracer.StartSpan(ctx, "client.fetch_region")
	rsp.SetAttr("layer", layer)
	defer rsp.End()
	health := &RegionHealth{}
	budget := c.Retry.budget()

	// The server is asked for the window only; the filter below stays,
	// so a server that ignores bbox (an older build) still yields the
	// right region. Only a client with a Cache asks for states: it is the
	// only one that can use them.
	win := TileWindow{TX0: tx0, TY0: ty0, TX1: tx1, TY1: ty1}
	path := "/v1/tiles/" + layer + "?bbox=" + win.String()
	if c.Cache != nil {
		path += "&state=1"
	}
	var listed []ManifestEntry
	err := c.getJSON(ctx, &budget, "list tiles", path, &listed)
	if err != nil {
		if ctx.Err() != nil || c.Cache == nil {
			return nil, nil, err
		}
		// Server unreachable: degrade to the cache's view of the region.
		health.Degraded = true
		health.addError(err)
		listed = listed[:0]
		for _, k := range c.Cache.Keys(layer) {
			if win.Contains(k.TX, k.TY) {
				listed = append(listed, ManifestEntry{TX: k.TX, TY: k.TY})
			}
		}
	}

	tiles := make([]*parsedTile, 0, len(listed))
	for _, e := range listed {
		st, _ := e.ReplicaState() // absent when the entry carries none
		if !win.Contains(e.TX, e.TY) || st.Tomb {
			continue // a marker is a deleted tile, not one to fetch
		}
		health.Requested++
		key := TileKey{Layer: layer, TX: e.TX, TY: e.TY}
		if tile := c.revalidated(key, st); tile != nil {
			health.Fresh++
			health.Revalidated++
			tiles = append(tiles, tile)
			continue
		}
		_, tile, err := c.getTile(ctx, &budget, key)
		switch {
		case err == nil:
			health.Fresh++
		case ctx.Err() != nil:
			return nil, nil, err
		case errors.Is(err, ErrNoTile):
			// Listed but deleted between list and get: skip, not degraded.
			health.Requested--
			continue
		default:
			health.Degraded = true
			health.addError(err)
			if tile = c.staleTile(key, health); tile == nil {
				health.Missing = append(health.Missing, key)
				continue
			}
			health.Stale++
		}
		tiles = append(tiles, tile)
	}
	c.metrics().revalidated.Add(uint64(health.Revalidated))
	rsp.SetAttrInt("revalidated", int64(health.Revalidated))
	if health.Fresh+health.Stale == 0 {
		if len(health.Errors) > 0 {
			return nil, nil, fmt.Errorf("region unavailable (%d tiles failed): %w", len(health.Missing), health.Errors[0])
		}
		return nil, nil, fmt.Errorf("region empty: %w", ErrNoTile)
	}
	m, err := mapOf(name, tiles...)
	if err != nil {
		return nil, nil, err
	}
	return m, health, nil
}

// revalidated parses the Cache's copy of a tile the manifest lists in
// the state that copy was fetched under — same clock, same write-time
// checksum, and the copy was verified against that checksum and parsed
// when it was stored — so the server would send these bytes again. Nil
// when the manifest gave no state, or another, when nothing is cached,
// and when the cached bytes no longer parse: the tile is then fetched.
func (c *Client) revalidated(key TileKey, listed ReplicaState) *parsedTile {
	if c.Cache == nil || !listed.Found {
		return nil
	}
	cached := c.Cache.get(key)
	if cached == nil || cached.state != listed {
		return nil
	}
	tile, err := parseTile(cached.data)
	if err != nil {
		return nil
	}
	return tile
}

// staleTile parses the cache's last-known-good copy of a tile the
// server failed to provide; nil when there is none. A cached payload
// that no longer parses costs the region that one tile (and an entry
// in health.Errors), not the rest.
func (c *Client) staleTile(key TileKey, health *RegionHealth) *parsedTile {
	if c.Cache == nil {
		return nil
	}
	cached, _, ok := c.Cache.Get(key)
	if !ok {
		return nil
	}
	tile, err := parseTile(cached)
	if err != nil {
		health.addError(fmt.Errorf("%v: cached tile: %w", key, err))
		return nil
	}
	return tile
}
