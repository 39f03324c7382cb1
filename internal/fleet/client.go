package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// errBadDelta wraps every 200 pack response whose body failed to decode
// or validate (truncated frame, wrong encoding, garbage from an
// intermediary, a delta answering another cursor). Owners count it and
// treat it as a retryable round trip; the cursor never moves on one.
var errBadDelta = errors.New("decoding delta")

// syncClient is the package's one /v1/packs client. Agent, Relay and
// the scale harness's hosts each embed one; it owns the request (base
// URL, since/wait query, If-None-Match and Accept), one round trip
// with 200/304/error classification, decoding by the declared
// Content-Type, validation against the requested cursor, the cursor
// advance, and the jittered retry backoff. What a delta means —
// install it, mirror it, or just count it — is the owner's business.
//
// A syncClient is driven from one goroutine at a time: fetch reads the
// cursor unlocked, so an owner that publishes the cursor to other
// goroutines (Relay.Version) must call advance under its own lock.
type syncClient struct {
	client  *http.Client
	baseURL string        // server root, trailing slash trimmed
	wait    time.Duration // long-poll park per fetch (0 = plain poll)
	// binary negotiates the binary delta codec; binaryOnly also refuses
	// any other encoding (a relay cannot mirror a JSON delta: it carries
	// no per-vaccine version line).
	binary, binaryOnly bool
	who                string // error prefix, e.g. "agent WIN-01"

	maxRetries              int
	baseBackoff, maxBackoff time.Duration
	// rng is owned by this client exclusively (never shared, never a
	// package-level source): it feeds retry backoff and the owner's
	// poll jitter from the driving goroutine.
	rng *rand.Rand

	// version and etag are the cursor: the last delta advanced to.
	version uint64
	etag    string
}

// newSyncClient fills c's unset knobs with the package defaults and
// seeds its private rng.
func newSyncClient(c syncClient, seed int64) syncClient {
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.maxRetries <= 0 {
		c.maxRetries = DefaultMaxRetries
	}
	if c.baseBackoff <= 0 {
		c.baseBackoff = DefaultBaseBackoff
	}
	if c.maxBackoff <= 0 {
		c.maxBackoff = DefaultMaxBackoff
	}
	c.baseURL = strings.TrimRight(c.baseURL, "/")
	c.rng = rand.New(rand.NewSource(seed))
	return c
}

// fetch performs one GET /v1/packs round trip from the cursor. A nil
// delta with nil error means 304 Not Modified (for a long poll: the
// wait expired with nothing published). The cursor does not move; the
// owner applies the delta, then calls advance.
func (c *syncClient) fetch(ctx context.Context) (*DeltaResponse, error) {
	url := fmt.Sprintf("%s%s?since=%d", c.baseURL, PathPacks, c.version)
	if c.wait > 0 {
		url += "&wait=" + c.wait.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.etag != "" {
		req.Header.Set("If-None-Match", c.etag)
	}
	if c.binary {
		req.Header.Set("Accept", ContentTypeDelta)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
	default:
		// Carry the first line of the error body: "500" alone cannot
		// distinguish an origin encode failure from an injected fault or
		// a relay refusing an upstream.
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 120))
		return nil, fmt.Errorf("fleet: %s: packs: %s (%s)",
			c.who, resp.Status, strings.TrimSpace(string(snippet)))
	}
	ct := resp.Header.Get("Content-Type")
	if c.binaryOnly && !isBinaryDelta(ct) {
		return nil, fmt.Errorf("fleet: %s: upstream %s does not speak the binary delta codec (got %s)", c.who, c.baseURL, ct)
	}
	delta, err := c.decode(resp.Body, isBinaryDelta(ct))
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w: %w", c.who, errBadDelta, err)
	}
	return delta, nil
}

// decode reads one 200 pack body under the encoding the server
// declared, then checks the frame answers the request: a content
// digest is present, and the delta starts at our cursor (a cache or
// relay serving someone else's response does not). Reset deltas are
// exempt from the cursor check — they rebase the client by design.
func (c *syncClient) decode(r io.Reader, binary bool) (*DeltaResponse, error) {
	body, err := io.ReadAll(io.LimitReader(r, maxDeltaPayload))
	if err != nil {
		return nil, err
	}
	var d *DeltaResponse
	if binary {
		d, err = DecodeDeltaBinary(body)
	} else {
		d = new(DeltaResponse)
		err = json.Unmarshal(body, d)
	}
	switch {
	case err != nil:
		return nil, err
	case d.ETag == "":
		return nil, errors.New("delta missing ETag")
	case !d.Reset && d.Since != c.version:
		return nil, fmt.Errorf("delta for since=%d, requested %d", d.Since, c.version)
	}
	return d, nil
}

// advance moves the cursor past d: the next fetch asks for what
// follows d.Version and revalidates against d's digest.
func (c *syncClient) advance(d *DeltaResponse) {
	c.version = d.Version
	c.etag = `"` + d.ETag + `"`
}

// minJitterInterval is the floor every jittered delay is clamped to:
// below it rng.Int63n would be fed a non-positive bound (a panic for
// interval <= 0) and the poll loop would spin hot.
const minJitterInterval = time.Millisecond

// jitteredInterval returns d with ±50% jitter (uniform in [d/2, 3d/2)),
// clamping d to minJitterInterval first. It is the one shared jitter
// helper: retry backoff and the poll loop both draw through it, so
// neither can panic on a degenerate duration.
func jitteredInterval(rng *rand.Rand, d time.Duration) time.Duration {
	if d < minJitterInterval {
		d = minJitterInterval
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// backoffDelay computes the sleep before retry attempt n (0-based):
// exponential growth with ±50% jitter, clamped to maxBackoff. The
// clamp applies to the jittered value, not just the exponential base —
// otherwise an attempt at the cap could draw up to 1.5×maxBackoff.
func (c *syncClient) backoffDelay(n int) time.Duration {
	d := c.baseBackoff << uint(n)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	d = jitteredInterval(c.rng, d)
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	return d
}

// backoff sleeps before retry attempt n (0-based), returning the
// context's error if it is cancelled first.
func (c *syncClient) backoff(ctx context.Context, n int) error {
	return sleepCtx(ctx, c.backoffDelay(n))
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
