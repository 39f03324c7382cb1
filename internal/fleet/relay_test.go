package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autovac/internal/winenv"
)

// relayHarness is one origin + one relay over real loopback HTTP.
type relayHarness struct {
	origin *Server
	relay  *Relay
	// originTS serves whatever handler swapOrigin last installed —
	// restart tests swap in a fresh origin under the same URL, exactly
	// like a process restart behind a stable address.
	originTS *httptest.Server
	relayTS  *httptest.Server
	// relayFront broadcasts every request the relay serves downstream.
	relayFront *eventFront
	handler    atomic.Pointer[http.Handler]
}

func newRelayHarness(t *testing.T) *relayHarness {
	t.Helper()
	h := &relayHarness{origin: NewServer(NewRegistry(0))}
	h.origin.Registry().SetGenerator("relay-test")
	hl := h.origin.Handler()
	h.handler.Store(&hl)
	h.originTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(h.originTS.Close)
	rl, err := NewRelay(RelayConfig{
		Upstream:    h.originTS.URL,
		LongPoll:    time.Second,
		Seed:        7,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.relay = rl
	h.relayFront = newEventFront(rl.Handler())
	h.relayTS = httptest.NewServer(h.relayFront)
	t.Cleanup(h.relayTS.Close)
	return h
}

// swapOrigin replaces the origin with a fresh server under the same
// URL — the restart-without-WAL scenario.
func (h *relayHarness) swapOrigin(srv *Server) {
	h.origin = srv
	hl := srv.Handler()
	h.handler.Store(&hl)
}

// assertMirrored fails unless the relay's full pack set is
// digest-identical to the origin's, versions included.
func assertMirrored(t *testing.T, origin *Registry, relay *Relay) {
	t.Helper()
	od, rd := origin.Delta(0), relay.Registry().Delta(0)
	if od.ETag != rd.ETag {
		t.Fatalf("relay pack digest %s != origin %s (%d vs %d vaccines)",
			rd.ETag, od.ETag, len(rd.Vaccines), len(od.Vaccines))
	}
	if od.Version != rd.Version || relay.Version() != od.Version {
		t.Fatalf("relay version %d/%d != origin %d", rd.Version, relay.Version(), od.Version)
	}
	for i := range od.Versions {
		if od.Versions[i] != rd.Versions[i] {
			t.Fatalf("version line diverged at %d: relay %d != origin %d",
				i, rd.Versions[i], od.Versions[i])
		}
	}
}

// TestRelayMirrorsOriginExactly drives the mirror through mid-flight
// publishes and checks digest identity at every hop: origin registry,
// relay mirror, and an agent synced through the relay.
func TestRelayMirrorsOriginExactly(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()

	h.origin.Registry().Publish(testVaccines("m1", 8)...)
	if n, err := h.relay.SyncOnce(ctx); err != nil || n != 8 {
		t.Fatalf("first sync: %d vaccines, %v", n, err)
	}
	assertMirrored(t, h.origin.Registry(), h.relay)

	// Publishes land between relay syncs; the incremental delta must
	// keep the mirror exact (same content AND same version numbers).
	h.origin.Registry().Publish(testVaccines("m2", 5)...)
	h.origin.Registry().Publish(testVaccines("m3", 3)...)
	if n, err := h.relay.SyncOnce(ctx); err != nil || n != 8 {
		t.Fatalf("incremental sync: %d vaccines, %v", n, err)
	}
	assertMirrored(t, h.origin.Registry(), h.relay)

	// An agent syncing off the relay converges to the origin's version
	// and holds the same pack content.
	a := newTestAgent(h.relayTS, "RELAY-AGENT-01")
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != h.origin.Registry().Latest() {
		t.Fatalf("agent at %d, origin at %d", a.Version(), h.origin.Registry().Latest())
	}
	if a.Daemon().VaccineCount() != h.origin.Registry().Count() {
		t.Fatalf("agent holds %d vaccines, origin %d",
			a.Daemon().VaccineCount(), h.origin.Registry().Count())
	}
	if st := h.relay.Stats(); st.Deltas != 2 || st.Resyncs != 0 {
		t.Fatalf("relay stats %+v", st)
	}
}

// TestRelayPushPropagation runs the relay's long-poll loop for real: a
// downstream agent parks on the relay, the relay parks on the origin,
// and a publish at the origin must reach the agent at publish latency
// through both parked hops.
func TestRelayPushPropagation(t *testing.T) {
	h := newRelayHarness(t)
	h.origin.Registry().Publish(testVaccines("p0", 1)...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); h.relay.Run(ctx) }()

	id := winenv.DefaultIdentity()
	id.ComputerName = "RELAY-PUSH-PC"
	a := NewAgent(AgentConfig{
		BaseURL:  h.relayTS.URL,
		Env:      winenv.New(id),
		Seed:     3,
		LongPoll: 5 * time.Second,
	})
	wg.Add(1)
	go func() { defer wg.Done(); a.Run(ctx, time.Hour) }()

	// Wait for the first delta to land, then publish mid-park. Both
	// conditions settle on a request the relay serves: the agent's
	// heartbeat follows the delta the relay handed it.
	timeout := 5 * time.Second
	if !h.relayFront.await(timeout, func() bool {
		return h.relay.Version() == 1 && h.relay.Registry().Fleet(time.Minute, time.Now()).ActiveHosts == 1
	}) {
		t.Fatalf("relay/agent never reached steady state: relay at %d", h.relay.Version())
	}
	h.origin.Registry().Publish(testVaccines("p1", 2)...)
	target := h.origin.Registry().Latest()
	var st FleetStatus
	if !h.relayFront.await(timeout, func() bool {
		st = h.relay.Registry().Fleet(time.Minute, time.Now())
		return st.ActiveHosts == 1 && st.MinVersion == target
	}) {
		t.Fatalf("publish never pushed through the tier: fleet %+v, relay at %d",
			st, h.relay.Version())
	}
	cancel()
	wg.Wait()
	assertMirrored(t, h.origin.Registry(), h.relay)
}

// TestRelayResetPropagation restarts the origin without its version
// history: the relay must rebase its mirror on the rewound version
// line, and an agent that synced through the relay before the restart
// must be rebased in turn by the relay's own Reset path.
func TestRelayResetPropagation(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()
	h.origin.Registry().Publish(testVaccines("old", 6)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	a := newTestAgent(h.relayTS, "RELAY-RESET-PC")
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != 6 {
		t.Fatalf("agent at %d before restart, want 6", a.Version())
	}

	// Origin restarts empty and republishes a smaller pack: its version
	// line is now BELOW the relay's cursor.
	fresh := NewServer(NewRegistry(0))
	fresh.Registry().SetGenerator("relay-test")
	fresh.Registry().Publish(testVaccines("new", 2)...)
	h.swapOrigin(fresh)

	// The relay's next poll (since=6 against a version-2 origin) gets a
	// Reset delta and rebases the mirror.
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.relay.Stats(); st.Resyncs != 1 {
		t.Fatalf("relay resyncs %d, want 1", st.Resyncs)
	}
	assertMirrored(t, fresh.Registry(), h.relay)

	// The agent (cursor 6, ahead of the relay's rewound line) is rebased
	// by the relay's own since-ahead path.
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != 2 {
		t.Fatalf("agent at %d after reset, want 2", a.Version())
	}
	if st := a.Stats(); st.Resyncs != 1 {
		t.Fatalf("agent resyncs %d, want 1", st.Resyncs)
	}
}

// TestRelayCacheInvalidationOnVersionBump pins the relay's encode
// cache across upstream version bumps: repeated downstream fetches at
// one cursor are cache hits, and a mirrored publish must invalidate
// them — the next fetch serves the new pack set, not the cached body.
func TestRelayCacheInvalidationOnVersionBump(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()
	h.origin.Registry().Publish(testVaccines("c1", 4)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	fetch := func() (string, int) {
		t.Helper()
		resp, err := http.Get(h.relayTS.URL + PathPacks + "?since=0")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("ETag"), len(body)
	}

	etag1, size1 := fetch()
	etag2, _ := fetch()
	if etag1 != etag2 {
		t.Fatal("cached fetches disagree")
	}
	if hits := h.relay.Server().MetricsSnapshot().EncodeCacheHits; hits != 1 {
		t.Fatalf("EncodeCacheHits = %d, want 1", hits)
	}

	// Version bump at the origin, mirrored into the relay: the cached
	// since=0 body is for a version that no longer exists.
	h.origin.Registry().Publish(testVaccines("c2", 4)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	etag3, size3 := fetch()
	if etag3 == etag1 || size3 <= size1 {
		t.Fatalf("stale cache served after version bump: etag %s size %d (was %s/%d)",
			etag3, size3, etag1, size1)
	}
	od := h.origin.Registry().Delta(0)
	if etag3 != `"`+od.ETag+`"` {
		t.Fatalf("post-bump ETag %s != origin digest %q", etag3, od.ETag)
	}
}

// TestRelayRefusesJSONUpstream pins the fail-fast: a relay pointed at
// an upstream that cannot speak the binary codec must error rather
// than mirror a version-less delta.
func TestRelayRefusesJSONUpstream(t *testing.T) {
	srv := NewServer(NewRegistry(0))
	srv.Registry().Publish(testVaccines("j", 2)...)
	// A pre-codec origin: honours the protocol but ignores Accept.
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		srv.Handler().ServeHTTP(w, r)
	}))
	defer legacy.Close()
	rl, err := NewRelay(RelayConfig{Upstream: legacy.URL, LongPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rl.SyncOnce(context.Background()); err == nil {
		t.Fatal("relay accepted a JSON upstream")
	}
	if rl.Version() != 0 || rl.Registry().Count() != 0 {
		t.Fatal("refused delta still mutated the mirror")
	}
}

// TestRelayRejectsDeltaForWrongCursor serves the relay a genuine binary
// delta cut after a cursor ahead of its own — an intermediary answering
// someone else's request. Mirroring it would skip the records in
// between for every downstream agent; the relay must instead fail the
// round trip and leave the mirror exactly where it was.
func TestRelayRejectsDeltaForWrongCursor(t *testing.T) {
	srv := NewServer(NewRegistry(0))
	srv.Registry().Publish(testVaccines("wc1", 3)...)
	var ahead atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ahead.Load() {
			q := r.URL.Query()
			q.Set("since", "5")
			r.URL.RawQuery = q.Encode()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	rl, err := NewRelay(RelayConfig{Upstream: front.URL, LongPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rl.SyncOnce(ctx); err != nil || rl.Version() != 3 {
		t.Fatalf("first sync: version %d, %v", rl.Version(), err)
	}

	srv.Registry().Publish(testVaccines("wc2", 4)...) // versions 4..7
	ahead.Store(true)
	if _, err := rl.SyncOnce(ctx); err == nil {
		t.Fatal("relay mirrored a delta answering a cursor it never sent")
	}
	if rl.Version() != 3 || rl.Registry().Latest() != 3 || rl.Registry().Count() != 3 {
		t.Fatalf("rejected delta moved the mirror: cursor %d, registry v%d with %d vaccines",
			rl.Version(), rl.Registry().Latest(), rl.Registry().Count())
	}

	// The cursor is intact, so an honest upstream heals the mirror.
	ahead.Store(false)
	if n, err := rl.SyncOnce(ctx); err != nil || n != 4 {
		t.Fatalf("recovery sync: %d vaccines, %v", n, err)
	}
	assertMirrored(t, srv.Registry(), rl)
}

// TestRelayUpstreamErrorCarriesBody pins the error text of a failed
// upstream round trip: the status alone cannot tell an origin encode
// failure from a fault injected on the path, so the body snippet rides
// along.
func TestRelayUpstreamErrorCarriesBody(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "encode failed: disk full", http.StatusInternalServerError)
	}))
	defer up.Close()
	rl, err := NewRelay(RelayConfig{Upstream: up.URL, LongPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rl.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "encode failed: disk full") {
		t.Fatalf("upstream error %v does not carry the body", err)
	}
}
