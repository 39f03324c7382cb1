package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"autovac/internal/deploy"
	"autovac/internal/winenv"
)

// Agent defaults. The retry budget is deliberately deeper than any
// periodic fault a lossy path is likely to inject: with the server's
// encode cache answering a woken herd in near-lockstep, a budget equal
// to a fault period can resonate with it (every attempt of one agent
// landing on the faulting slot) and burn out on a fault rate the
// backoff would otherwise absorb.
const (
	DefaultMaxRetries  = 6
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// AgentConfig configures one host agent.
type AgentConfig struct {
	// BaseURL is the vacserver root, e.g. "http://10.0.0.1:8377".
	BaseURL string
	// Host is this host's identifier in check-ins; defaults to the
	// environment's computer name.
	Host string
	// Env is the host environment vaccines are installed into.
	Env *winenv.Env
	// Seed feeds slice replay (deploy.ResolveIdentifier) and the
	// backoff jitter.
	Seed uint64
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Binary, when set, negotiates the binary delta codec (Accept:
	// application/x-autovac-delta). The server's Content-Type decides
	// the decode on each response, so a JSON-only server (or a JSON
	// intermediary cache) degrades transparently to the JSON protocol.
	Binary bool
	// MaxRetries bounds the retries of one failed sync round trip.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the jittered exponential
	// backoff between retries.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// LongPoll, when > 0, switches pack fetches to streaming mode: the
	// request parks on the server (&wait=) for up to this long and
	// returns the instant a publish lands, so deltas arrive at publish
	// latency instead of poll latency. Run then re-polls immediately
	// after each cycle; the poll interval only paces plain polling.
	LongPoll time.Duration
}

// AgentStats counts one agent's sync activity. Read it from the
// agent's own goroutine (Agent is not safe for concurrent use).
type AgentStats struct {
	// Syncs counts completed SyncOnce calls.
	Syncs int
	// Deltas counts 200 pack responses; NotModified counts 304s.
	Deltas      int
	NotModified int
	// Retries counts failed round trips that were retried.
	Retries int
	// DecodeErrors counts 200 pack responses whose body failed to
	// decode or validate (truncated frame, wrong encoding, garbage from
	// an intermediary). Each is a retryable sync error: the agent backs
	// off and re-fetches rather than poisoning its cursor.
	DecodeErrors int
	// Applied, Skipped, and Failed total the daemon install results.
	Applied int
	Skipped int
	Failed  int
	// Resyncs counts Reset deltas adopted (the server's version line
	// restarted below ours).
	Resyncs int
	// Checkins counts delivered heartbeats.
	Checkins int
}

// Agent is a host-side fleet client: it polls the server for vaccine
// deltas with jittered exponential backoff, installs them through the
// host's deploy daemon (which resolves identifiers per host, replaying
// slices for algorithm-deterministic vaccines), and heartbeats the
// applied version back. An Agent is single-goroutine; run many agents
// for many hosts.
//
// Concurrency contract: every mutable field — the sync cursor, stats,
// and in particular the sync client's rng — is owned by the goroutine
// driving SyncOnce or Run. The retry backoff (after a failed fetch or
// checkin) and the poll-loop jitter both draw from rng, but always
// from that one goroutine: checkins are performed inline in SyncOnce,
// never from a separate goroutine, so the rng is never reached
// concurrently. TestAgentRNGOwnership pins this under -race.
type Agent struct {
	// syncClient fetches deltas and holds the applied cursor; it is
	// configured from cfg once, in NewAgent.
	syncClient
	cfg    AgentConfig
	daemon *deploy.Daemon
	stats  AgentStats
}

// NewAgent creates an agent bound to a host environment.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Host == "" && cfg.Env != nil {
		cfg.Host = cfg.Env.Identity().ComputerName
	}
	return &Agent{
		syncClient: newSyncClient(syncClient{
			client:      cfg.Client,
			baseURL:     cfg.BaseURL,
			wait:        cfg.LongPoll,
			binary:      cfg.Binary,
			who:         "agent " + cfg.Host,
			maxRetries:  cfg.MaxRetries,
			baseBackoff: cfg.BaseBackoff,
			maxBackoff:  cfg.MaxBackoff,
		}, int64(cfg.Seed)^int64(fnv32a(cfg.Host))),
		cfg:    cfg,
		daemon: deploy.NewDaemon(cfg.Env, cfg.Seed),
	}
}

// Version returns the latest registry version the agent has applied.
func (a *Agent) Version() uint64 { return a.version }

// Stats returns the agent's sync counters.
func (a *Agent) Stats() AgentStats { return a.stats }

// Daemon returns the host's vaccine daemon.
func (a *Agent) Daemon() *deploy.Daemon { return a.daemon }

// Env returns the host environment.
func (a *Agent) Env() *winenv.Env { return a.cfg.Env }

// Host returns the agent's check-in identifier.
func (a *Agent) Host() string { return a.cfg.Host }

// retry runs op with bounded, jittered-exponential-backoff retries.
func (a *Agent) retry(ctx context.Context, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= a.maxRetries {
			return err
		}
		a.stats.Retries++
		if berr := a.backoff(ctx, attempt); berr != nil {
			return berr
		}
	}
}

// checkin delivers one heartbeat.
func (a *Agent) checkin(ctx context.Context) error {
	inspected, intercepted := a.daemon.Stats()
	body, err := json.Marshal(CheckinRequest{
		Host:        a.cfg.Host,
		Version:     a.version,
		Installed:   a.daemon.VaccineCount(),
		Inspected:   inspected,
		Intercepted: intercepted,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.baseURL+PathCheckin, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: agent %s: checkin: %s", a.cfg.Host, resp.Status)
	}
	a.stats.Checkins++
	return nil
}

// SyncOnce performs one sync cycle: fetch the delta since the applied
// version (with retries), install any new vaccines through the host
// daemon, and heartbeat the result. It returns the number of vaccines
// newly installed.
func (a *Agent) SyncOnce(ctx context.Context) (int, error) {
	var delta *DeltaResponse
	err := a.retry(ctx, func() error {
		d, err := a.fetch(ctx)
		if errors.Is(err, errBadDelta) {
			a.stats.DecodeErrors++
		}
		if err != nil {
			return err
		}
		delta = d
		return nil
	})
	if err != nil {
		return 0, err
	}
	applied := 0
	if delta == nil {
		a.stats.NotModified++
	} else {
		a.stats.Deltas++
		if delta.Reset || delta.Version < a.version {
			// The server's version line restarted below ours: rebase on
			// it. Installed vaccines stay installed (immunization is
			// additive); only the sync cursor moves back.
			a.stats.Resyncs++
		}
		installed, skipped, failed := a.daemon.InstallPack(delta.Vaccines)
		a.stats.Applied += installed
		a.stats.Skipped += skipped
		a.stats.Failed += failed
		applied = installed
		a.advance(delta)
	}
	a.stats.Syncs++
	if err := a.retry(ctx, func() error { return a.checkin(ctx) }); err != nil {
		return applied, err
	}
	return applied, nil
}

// Run polls until the context is cancelled, sleeping interval (with
// ±50% jitter, floored at minJitterInterval so a zero or negative
// interval cannot panic the jitter draw) between sync cycles. With
// LongPoll configured the park happens server-side inside SyncOnce, so
// only a token jittered delay separates cycles — deltas then arrive at
// publish latency. Sync errors are counted and the loop continues; the
// only exit is context cancellation, whose cause is returned as nil
// for a clean ctx.Done.
func (a *Agent) Run(ctx context.Context, interval time.Duration) error {
	for {
		if _, err := a.SyncOnce(ctx); err != nil && ctx.Err() != nil {
			return nil
		}
		if a.wait > 0 {
			interval = minJitterInterval
		}
		if sleepCtx(ctx, jitteredInterval(a.rng, interval)) != nil {
			return nil
		}
	}
}
