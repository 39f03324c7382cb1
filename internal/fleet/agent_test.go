package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autovac/internal/core"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// analyzedPack runs the real pipeline over specs covering all three
// deployable identifier classes, so agent tests exercise the same
// deploy machinery (slice replay, pattern interception) a fleet would.
func analyzedPack(t *testing.T) []vaccine.Vaccine {
	t.Helper()
	pipeline := core.New(core.Config{Seed: 42})
	var vs []vaccine.Vaccine
	for _, spec := range []*malware.Spec{
		{Name: "flt-static", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehMarkerMutex, ID: "FLT.STATIC.1"},
			{Kind: malware.BehNetworkCC, ID: "a.example", Aux: "445", Count: 1},
		}},
		{Name: "flt-algo", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehAlgoMutex, ID: `Global\%s-77`},
			{Kind: malware.BehNetworkCC, ID: "b.example", Aux: "445", Count: 1},
		}},
		{Name: "flt-partial", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehPartialMutex, ID: "FLTPART"},
			{Kind: malware.BehNetworkCC, ID: "c.example", Aux: "445", Count: 1},
		}},
	} {
		sample := &malware.Sample{Spec: spec, Program: malware.MustEmit(spec)}
		res, err := pipeline.Analyze(sample)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, res.Vaccines...)
	}
	if len(vs) < 3 {
		t.Fatalf("only %d vaccines generated", len(vs))
	}
	return vs
}

// eventFront serves next and broadcasts after every request it has
// finished, so tests wait on protocol events instead of sleeping or
// polling a deadline. arrive, when set before the first request, sees
// each request as it arrives — before a long poll parks.
type eventFront struct {
	next   http.Handler
	served *notifier
	arrive func(*http.Request)
}

func newEventFront(next http.Handler) *eventFront {
	return &eventFront{next: next, served: newNotifier()}
}

func (f *eventFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.arrive != nil {
		f.arrive(r)
	}
	f.next.ServeHTTP(w, r)
	f.served.wake()
}

// await blocks until cond holds, re-checking it after every request the
// front finishes, and reports false if timeout passes first.
func (f *eventFront) await(timeout time.Duration, cond func() bool) bool {
	expired := time.After(timeout)
	for {
		served := f.served.wait() // grab before checking: no missed wake
		if cond() {
			return true
		}
		select {
		case <-served:
		case <-expired:
			return false
		}
	}
}

// newEventServer is newTestServer behind an eventFront.
func newEventServer(t *testing.T) (*Server, *eventFront, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewRegistry(0))
	front := newEventFront(srv.Handler())
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)
	return srv, front, ts
}

// checkinCounter counts the heartbeats that have reached a front; the
// front's served broadcast follows each one.
func checkinCounter(f *eventFront) *atomic.Int64 {
	n := new(atomic.Int64)
	f.arrive = func(r *http.Request) {
		if r.URL.Path == PathCheckin {
			n.Add(1)
		}
	}
	return n
}

func newTestAgent(ts *httptest.Server, name string) *Agent {
	id := winenv.DefaultIdentity()
	id.ComputerName = name
	return NewAgent(AgentConfig{
		BaseURL:     ts.URL,
		Env:         winenv.New(id),
		Seed:        42,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
}

func TestAgentSyncApplyCheckin(t *testing.T) {
	srv, ts := newTestServer(t)
	pack := analyzedPack(t)
	srv.Registry().Publish(pack...)

	a := newTestAgent(ts, "AGENT-PC-01")
	applied, err := a.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 || a.Version() != srv.Registry().Latest() {
		t.Fatalf("applied %d, version %d (latest %d)", applied, a.Version(), srv.Registry().Latest())
	}
	if a.Daemon().VaccineCount() != len(pack) {
		t.Fatalf("daemon holds %d vaccines, want %d", a.Daemon().VaccineCount(), len(pack))
	}
	// The static mutex vaccine materialised on the host.
	if !a.Env().Exists(winenv.KindMutex, "FLT.STATIC.1") {
		t.Fatal("static vaccine resource not injected")
	}
	// The heartbeat landed.
	st := srv.Registry().Fleet(time.Minute, time.Now())
	if st.ActiveHosts != 1 || st.Converged != 1 || st.Installed != len(pack) {
		t.Fatalf("fleet status after checkin %+v", st)
	}

	// Steady state: next sync is a 304, nothing reinstalled.
	if _, err := a.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := a.Stats()
	if stats.NotModified != 1 || stats.Deltas != 1 || stats.Checkins != 2 {
		t.Fatalf("agent stats %+v", stats)
	}
}

func TestAgentDeltaSyncInstallsOnlyNew(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("d1", 3)...)
	a := newTestAgent(ts, "AGENT-PC-02")
	ctx := context.Background()
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Registry().Publish(testVaccines("d2", 2)...)
	applied, err := a.SyncOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("second sync applied %d, want 2 (delta only)", applied)
	}
	stats := a.Stats()
	if stats.Applied != 5 || stats.Skipped != 0 || stats.Deltas != 2 {
		t.Fatalf("agent stats %+v", stats)
	}
	if a.Version() != 5 {
		t.Fatalf("agent version %d, want 5", a.Version())
	}
}

// flakyFront fails the first n requests with 500, then delegates.
type flakyFront struct {
	next  http.Handler
	fails atomic.Int64
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.fails.Add(-1) >= 0 {
		http.Error(w, "transient", http.StatusInternalServerError)
		return
	}
	f.next.ServeHTTP(w, r)
}

func TestAgentRetriesTransientFailures(t *testing.T) {
	srv := NewServer(NewRegistry(0))
	srv.Registry().Publish(testVaccines("r", 4)...)
	front := &flakyFront{next: srv.Handler()}
	front.fails.Store(2)
	ts := httptest.NewServer(front)
	defer ts.Close()

	a := newTestAgent(ts, "AGENT-PC-03")
	applied, err := a.SyncOnce(context.Background())
	if err != nil {
		t.Fatalf("sync should survive 2 transient failures: %v", err)
	}
	if applied != 4 {
		t.Fatalf("applied %d, want 4", applied)
	}
	if st := a.Stats(); st.Retries != 2 {
		t.Fatalf("retries %d, want 2", st.Retries)
	}
}

func TestAgentBoundedRetriesGiveUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	a := newTestAgent(ts, "AGENT-PC-04")
	if _, err := a.SyncOnce(context.Background()); err == nil {
		t.Fatal("sync against a dead server should fail")
	}
	if st := a.Stats(); st.Retries != DefaultMaxRetries {
		t.Fatalf("retries %d, want %d", st.Retries, DefaultMaxRetries)
	}
}

// TestAgentRNGOwnership pins the Agent concurrency contract documented
// on the type: each agent owns a private rng (never package-level,
// never shared between agents), and every draw — retry backoff and
// poll jitter — happens on the agent's own goroutine. Many agents
// retrying concurrently against a failing server is exactly the
// scenario that would trip -race if the rng were ever shared or
// reached from a second goroutine (e.g. a background checkin).
func TestAgentRNGOwnership(t *testing.T) {
	// Distinct agents hold distinct rng instances, even with identical
	// seeds: sharing one *rand.Rand across hosts would race.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	a, b := newTestAgent(ts, "RNG-PC-01"), newTestAgent(ts, "RNG-PC-02")
	if a.rng == b.rng {
		t.Fatal("two agents share one rng instance")
	}

	// Concurrent retry storm: every sync fails, so every agent draws
	// backoff jitter from its rng on its own goroutine, repeatedly and
	// simultaneously. Run under -race this proves no rng is shared.
	const hosts = 16
	var wg sync.WaitGroup
	for i := 0; i < hosts; i++ {
		ag := newTestAgent(ts, fmt.Sprintf("RNG-PC-%02d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 3; n++ {
				if _, err := ag.SyncOnce(context.Background()); err == nil {
					t.Error("sync against a dead server succeeded")
					return
				}
			}
			if st := ag.Stats(); st.Retries != 3*DefaultMaxRetries {
				t.Errorf("retries %d, want %d (every retry draws from the rng)",
					st.Retries, 3*DefaultMaxRetries)
			}
		}()
	}
	wg.Wait()
}

func TestAgentRunStopsOnCancel(t *testing.T) {
	srv, front, ts := newEventServer(t)
	srv.Registry().Publish(testVaccines("run", 2)...)
	checkins := checkinCounter(front)
	a := newTestAgent(ts, "AGENT-PC-05")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx, 2*time.Millisecond) }()
	// A sync counts itself before it heartbeats: a second heartbeat
	// means two completed syncs.
	front.await(5*time.Second, func() bool { return checkins.Load() >= 2 })
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on clean cancel", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not stop on cancel")
	}
	if st := a.Stats(); st.Syncs < 2 {
		t.Fatalf("run completed only %d syncs", st.Syncs)
	}
}

// TestAgentRunZeroIntervalNoPanic pins the jitter-floor fix: Run with
// a zero (or negative) interval used to feed rng.Int63n a non-positive
// bound and panic; now the draw is floored at minJitterInterval.
func TestAgentRunZeroIntervalNoPanic(t *testing.T) {
	srv, front, ts := newEventServer(t)
	srv.Registry().Publish(testVaccines("z", 1)...)
	checkins := checkinCounter(front)
	for _, interval := range []time.Duration{0, -time.Second} {
		a := newTestAgent(ts, "AGENT-PC-Z")
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		seen := checkins.Load()
		go func() { done <- a.Run(ctx, interval) }()
		front.await(5*time.Second, func() bool { return checkins.Load() > seen })
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("interval %v: run returned %v", interval, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("interval %v: run did not stop on cancel", interval)
		}
		if st := a.Stats(); st.Syncs < 1 {
			t.Fatalf("interval %v: no syncs completed", interval)
		}
	}
}

// TestJitteredIntervalBounds pins the shared jitter helper's envelope,
// including the degenerate durations that used to panic.
func TestJitteredIntervalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []time.Duration{-time.Second, 0, 1, minJitterInterval, 10 * time.Millisecond} {
		eff := d
		if eff < minJitterInterval {
			eff = minJitterInterval
		}
		for i := 0; i < 100; i++ {
			got := jitteredInterval(rng, d)
			if got < eff/2 || got >= eff/2+eff {
				t.Fatalf("jitteredInterval(%v) = %v outside [%v, %v)", d, got, eff/2, eff/2+eff)
			}
		}
	}
}

// TestAgentResyncAfterRegistryRestart plays the agent that outlived a
// registry restarted without its WAL: its cursor is ahead of the
// server, and the Reset delta must rebase it instead of 304ing forever.
func TestAgentResyncAfterRegistryRestart(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("rb", 2)...)
	a := newTestAgent(ts, "AGENT-PC-RB")
	a.version = 99 // cursor from the previous registry incarnation

	applied, err := a.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || a.Version() != 2 {
		t.Fatalf("resync applied %d at version %d, want 2 at 2", applied, a.Version())
	}
	if st := a.Stats(); st.Resyncs != 1 {
		t.Fatalf("resyncs %d, want 1", st.Resyncs)
	}
	// Rebased: steady state is a plain 304 again.
	if _, err := a.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.NotModified != 1 {
		t.Fatalf("post-rebase stats %+v", st)
	}
}

// TestAgentLongPollWakesOnPublish runs a streaming agent against a
// quiet server and publishes mid-park: the agent must apply and
// heartbeat the new version at publish latency, far sooner than its
// (deliberately huge) poll interval.
func TestAgentLongPollWakesOnPublish(t *testing.T) {
	srv, front, ts := newEventServer(t)
	srv.Registry().Publish(testVaccines("st", 1)...)
	parking := make(chan struct{}, 1)
	front.arrive = func(r *http.Request) {
		if r.URL.Path == PathPacks && r.URL.Query().Get("since") == "1" {
			select {
			case parking <- struct{}{}:
			default:
			}
		}
	}
	id := winenv.DefaultIdentity()
	id.ComputerName = "AGENT-PC-ST"
	a := NewAgent(AgentConfig{
		BaseURL:  ts.URL,
		Env:      winenv.New(id),
		Seed:     42,
		LongPoll: 10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx, time.Hour) }()

	// Let the agent take the initial delta and come back to park, then
	// publish.
	select {
	case <-parking:
	case <-time.After(5 * time.Second):
		t.Fatal("streaming agent never came back to park")
	}
	srv.Registry().Publish(testVaccines("st2", 1)...)
	var st FleetStatus
	if !front.await(5*time.Second, func() bool {
		st = srv.Registry().Fleet(time.Minute, time.Now())
		return st.ActiveHosts == 1 && st.MinVersion == 2
	}) {
		t.Fatalf("streaming agent never heartbeat version 2: fleet %+v", st)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("streaming agent did not stop on cancel")
	}
}

// TestAgentBackoffBounded pins the backoff envelope: every retry delay
// stays within [BaseBackoff/2, MaxBackoff], including attempts whose
// exponential base has already saturated at the cap. Before the
// post-jitter clamp, a saturated attempt could draw MaxBackoff/2 +
// jitter(MaxBackoff) — up to 1.5× the configured ceiling.
func TestAgentBackoffBounded(t *testing.T) {
	cases := []struct {
		name string
		base time.Duration
		max  time.Duration
	}{
		{"defaults", DefaultBaseBackoff, DefaultMaxBackoff},
		{"tight-cap", 25 * time.Millisecond, 40 * time.Millisecond},
		{"cap-equals-base", 10 * time.Millisecond, 10 * time.Millisecond},
		{"wide", time.Millisecond, time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAgent(AgentConfig{
				Host:        "BACKOFF-PC",
				Seed:        99,
				BaseBackoff: tc.base,
				MaxBackoff:  tc.max,
			})
			// Attempt numbers past saturation and past shift overflow.
			for _, n := range []int{0, 1, 2, 3, 8, 16, 40, 63} {
				for draw := 0; draw < 200; draw++ {
					d := a.backoffDelay(n)
					if d > tc.max {
						t.Fatalf("attempt %d: delay %v exceeds MaxBackoff %v", n, d, tc.max)
					}
					if d < tc.base/2 {
						t.Fatalf("attempt %d: delay %v below BaseBackoff/2 %v", n, d, tc.base/2)
					}
				}
			}
		})
	}
}

// garbageFront answers every pack GET with 200 and an undecodable
// body, under whichever Content-Type the request negotiated.
type garbageFront struct{ binary bool }

func (g *garbageFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.binary {
		w.Header().Set("Content-Type", ContentTypeDelta)
		w.Write([]byte("AVD1\x00\x01")) // truncated frame
		return
	}
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.Write([]byte(`{"Version": 99, "Vacc`)) // torn JSON body
}

// TestAgentMalformedDeltaIsRetryable pins the decode-hardening
// contract for both encodings: a 200 with a malformed body must behave
// like a failed round trip — counted in DecodeErrors, retried with
// backoff, cursor untouched — never as a cursor advance. (A torn JSON
// body carrying a parsed-before-the-tear Version used to be the risk.)
func TestAgentMalformedDeltaIsRetryable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		binary bool
	}{{"json", false}, {"binary", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(&garbageFront{binary: tc.binary})
			defer ts.Close()
			a := newTestAgent(ts, "AGENT-PC-GB")
			a.cfg.Binary = tc.binary
			if _, err := a.SyncOnce(context.Background()); err == nil {
				t.Fatal("sync succeeded on a malformed body")
			}
			st := a.Stats()
			if st.DecodeErrors != DefaultMaxRetries+1 {
				t.Fatalf("DecodeErrors %d, want %d (initial + each retry)",
					st.DecodeErrors, DefaultMaxRetries+1)
			}
			if st.Retries != DefaultMaxRetries {
				t.Fatalf("retries %d, want %d", st.Retries, DefaultMaxRetries)
			}
			if a.Version() != 0 || st.Deltas != 0 {
				t.Fatalf("malformed body moved the cursor: version %d, stats %+v", a.Version(), st)
			}
		})
	}
}

// wrongCursorFront serves a real delta but for a cursor nobody asked
// about — the shape of a misbehaving cache or relay.
type wrongCursorFront struct{ srv *Server }

func (f *wrongCursorFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == PathPacks {
		q := r.URL.Query()
		q.Set("since", "7")
		r.URL.RawQuery = q.Encode()
	}
	f.srv.Handler().ServeHTTP(w, r)
}

func TestAgentRejectsDeltaForWrongCursor(t *testing.T) {
	srv := NewServer(NewRegistry(0))
	srv.Registry().Publish(testVaccines("wc", 9)...)
	ts := httptest.NewServer(&wrongCursorFront{srv: srv})
	defer ts.Close()
	a := newTestAgent(ts, "AGENT-PC-WC")
	if _, err := a.SyncOnce(context.Background()); err == nil {
		t.Fatal("agent accepted a delta answering a different cursor")
	}
	if st := a.Stats(); st.DecodeErrors == 0 || a.Version() != 0 {
		t.Fatalf("wrong-cursor delta not rejected: version %d, stats %+v", a.Version(), st)
	}
}

// TestAgentBinarySyncEndToEnd runs the full agent loop — fetch,
// install through the deploy daemon, heartbeat — over the binary
// codec against a real server, including the incremental delta and the
// 304 steady state.
func TestAgentBinarySyncEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(analyzedPack(t)...)
	id := winenv.DefaultIdentity()
	id.ComputerName = "AGENT-PC-BIN"
	a := NewAgent(AgentConfig{
		BaseURL: ts.URL,
		Env:     winenv.New(id),
		Seed:    42,
		Binary:  true,
	})
	ctx := context.Background()
	applied, err := a.SyncOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 || a.Version() != srv.Registry().Latest() {
		t.Fatalf("binary sync applied %d at version %d (latest %d)",
			applied, a.Version(), srv.Registry().Latest())
	}
	srv.Registry().Publish(testVaccines("bin2", 3)...)
	if applied, err = a.SyncOnce(ctx); err != nil || applied != 3 {
		t.Fatalf("binary incremental sync applied %d, %v", applied, err)
	}
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Deltas != 2 || st.NotModified != 1 || st.DecodeErrors != 0 {
		t.Fatalf("binary agent stats %+v", st)
	}
	if snap := srv.MetricsSnapshot(); snap.BinaryDeltas != 2 {
		t.Fatalf("server BinaryDeltas %d, want 2", snap.BinaryDeltas)
	}
}
