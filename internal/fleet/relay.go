package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Relay is a read-through edge node of the distribution tree: it
// long-polls one upstream server (the origin, or another relay) for
// binary deltas, mirrors the origin's exact version line into its own
// in-memory Registry, and serves the full /v1/packs surface — ETags,
// 304s, long-poll parking, Reset resync, the encode cache — to the
// agents behind it through an ordinary Server. Agents cannot tell a
// relay from the origin; the origin sees one long-poll client per
// relay instead of one per agent, which is what lets the control plane
// fan out to ~10^6 agents without the origin's request rate scaling
// past the relay count.
//
// Version mirroring is exact, not re-issued: the binary delta codec
// carries each vaccine's origin publish version (DeltaResponse.Versions)
// and the relay applies them verbatim via the WAL replay path
// (applyRecord), then moves its visible fence to the upstream fence
// once per delta. A
// cursor an agent obtained from one relay therefore means the same
// thing at every other relay and at the origin. The binary codec is
// required upstream for this reason — JSON deltas do not carry the
// version line — so a relay pointed at a pre-codec server fails fast
// rather than mirroring wrongly.
//
// Reset propagation: when the upstream's version line restarts below
// the relay's cursor (origin restarted without its WAL), the upstream
// answers with a Reset delta; the relay wipes its mirror, re-applies
// the upstream content, and its own downstream agents — now ahead of
// the rewound mirror — hit the since-ahead-of-registry path on their
// next poll and receive Reset deltas in turn. The rebase cascades down
// the tree with no side channel.
//
// Upstream deltas are validated like an agent's: one cut after a cursor
// the relay never sent (an intermediary answering someone else's
// request) is a retryable error that leaves the mirror untouched,
// never a mirror that silently skips the records in between.
type Relay struct {
	// syncClient long-polls the upstream and holds the mirrored cursor.
	// SyncOnce and Run drive it from one goroutine at a time; the cursor
	// only moves under mu.
	syncClient
	reg *Registry
	srv *Server

	// mu guards the cursor's writes and the stats: Stats and Version
	// may be read from anywhere.
	mu    sync.Mutex
	stats RelayStats
}

// RelayConfig configures one relay node.
type RelayConfig struct {
	// Upstream is the upstream server's base URL, e.g.
	// "http://origin:8377". Required.
	Upstream string
	// Client is the HTTP client for upstream fetches (default
	// http.DefaultClient).
	Client *http.Client
	// LongPoll is how long each upstream fetch parks (&wait=); default
	// MaxLongPollWait. The upstream caps it at its own MaxLongPollWait.
	LongPoll time.Duration
	// Shards is the mirror registry's shard count (0 = DefaultShards).
	Shards int
	// MaxRetries, BaseBackoff, and MaxBackoff shape the jittered
	// exponential backoff after a failed upstream round trip, with the
	// same defaults as AgentConfig.
	MaxRetries  int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed feeds the backoff jitter.
	Seed uint64
}

// RelayStats counts one relay's upstream sync activity.
type RelayStats struct {
	// Syncs counts completed upstream round trips (deltas and 304s).
	Syncs int
	// Deltas counts 200 upstream responses applied to the mirror;
	// NotModified counts 304s (long-poll waits that expired quietly).
	Deltas      int
	NotModified int
	// Resyncs counts upstream Reset rebases (mirror wiped and rebuilt).
	Resyncs int
	// Errors counts failed upstream round trips (after retries) that
	// Run absorbed and retried.
	Errors int
}

// NewRelay creates a relay mirroring the given upstream. Call Run to
// start the sync loop and serve Handler to downstream agents.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("fleet: relay: empty upstream URL")
	}
	if cfg.LongPoll <= 0 {
		cfg.LongPoll = MaxLongPollWait
	}
	upstream := strings.TrimRight(cfg.Upstream, "/")
	reg := NewRegistry(cfg.Shards)
	return &Relay{
		syncClient: newSyncClient(syncClient{
			client:      cfg.Client,
			baseURL:     upstream,
			wait:        cfg.LongPoll,
			binary:      true,
			binaryOnly:  true,
			who:         "relay",
			maxRetries:  cfg.MaxRetries,
			baseBackoff: cfg.BaseBackoff,
			maxBackoff:  cfg.MaxBackoff,
		}, int64(cfg.Seed)^int64(fnv32a(upstream))),
		reg: reg,
		srv: NewServer(reg),
	}, nil
}

// Handler returns the relay's downstream HTTP handler — the full sync
// protocol served from the mirror.
func (rl *Relay) Handler() http.Handler { return rl.srv.Handler() }

// Server returns the relay's downstream server (for metrics).
func (rl *Relay) Server() *Server { return rl.srv }

// Registry returns the relay's mirror registry.
func (rl *Relay) Registry() *Registry { return rl.reg }

// Version returns the latest upstream version the relay has mirrored.
func (rl *Relay) Version() uint64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.version
}

// Stats returns the relay's upstream sync counters.
func (rl *Relay) Stats() RelayStats {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.stats
}

// SyncOnce performs one upstream round trip: long-poll the upstream
// for a binary delta past the mirrored cursor and apply it. It returns
// the number of vaccines applied (0 for a 304).
func (rl *Relay) SyncOnce(ctx context.Context) (int, error) {
	d, err := rl.fetch(ctx)
	if err != nil {
		return 0, err
	}
	if d == nil {
		rl.mu.Lock()
		rl.stats.Syncs++
		rl.stats.NotModified++
		rl.mu.Unlock()
		return 0, nil
	}
	return rl.applyDelta(d)
}

// applyDelta mirrors one upstream delta into the local registry and
// wakes the downstream long-pollers parked on it.
func (rl *Relay) applyDelta(d *DeltaResponse) (int, error) {
	if len(d.Versions) != len(d.Vaccines) {
		return 0, fmt.Errorf("fleet: relay: delta carries %d versions for %d vaccines", len(d.Versions), len(d.Vaccines))
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if d.Reset || d.Version < rl.version {
		// Upstream's version line restarted below ours: rebase the
		// mirror. Downstream agents, now ahead of it, get Reset deltas
		// from our own server on their next poll.
		rl.reg.resetMirror()
		rl.stats.Resyncs++
	}
	// Records and the generator land first; the visible fence then
	// moves once for the whole delta, so downstream readers never see
	// part of one.
	recs := make([]walRecord, len(d.Vaccines))
	for i := range d.Vaccines {
		recs[i] = walRecord{Version: d.Versions[i], Vaccine: d.Vaccines[i]}
		rl.reg.applyRecord(recs[i])
	}
	rl.reg.SetGenerator(d.Generator)
	rl.reg.ratchetVersion(d.Version)
	rl.reg.settle(recs)
	rl.advance(d)
	rl.stats.Syncs++
	rl.stats.Deltas++
	// Wake downstream parked long-pollers: the mirror moved.
	rl.reg.notify.wake()
	return len(d.Vaccines), nil
}

// Run long-polls the upstream until the context is cancelled. Upstream
// failures are counted and retried with the sync client's jittered
// exponential backoff; success resets the backoff and re-polls
// immediately (the park happens server-side).
func (rl *Relay) Run(ctx context.Context) error {
	fails := 0
	for ctx.Err() == nil {
		if _, err := rl.SyncOnce(ctx); err == nil {
			fails = 0
			continue
		}
		if ctx.Err() != nil {
			return nil
		}
		rl.mu.Lock()
		rl.stats.Errors++
		rl.mu.Unlock()
		if rl.backoff(ctx, fails) != nil {
			return nil
		}
		if fails < rl.maxRetries {
			fails++
		}
	}
	return nil
}
