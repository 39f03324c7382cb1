package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/fleet"
	"autovac/internal/winenv"
)

// longPollWait is how long an agent's or a relay's pack request parks
// on the server. It is far longer than any wave, so a parked request
// only ever returns because something was published.
const longPollWait = 30 * time.Second

// wireCounts totals the traffic one server tier answered.
type wireCounts struct {
	requests    atomic.Uint64
	packs       atomic.Uint64
	notModified atomic.Uint64
	bytes       atomic.Uint64
}

// reset zeroes the counters at the start of a timed phase.
func (c *wireCounts) reset() {
	c.requests.Store(0)
	c.packs.Store(0)
	c.notModified.Store(0)
	c.bytes.Store(0)
}

// memTransport is an http.RoundTripper that invokes a fleet handler in
// the caller's goroutine, with no sockets: a parked long-poll parks the
// calling goroutine inside the handler, as a parked connection would.
// Each client owns one memTransport, so parent (the caller's current
// span) is only touched from that client's goroutine.
type memTransport struct {
	h      http.Handler
	reg    *fleet.Registry // the registry behind h, for classifying requests
	tier   string          // "origin" or "relay": span name prefix
	rec    *recorder
	counts *wireCounts
	parent spanID
}

// RoundTrip runs the handler. When traced, it records one span per
// call named by tier, route and outcome: an immediate delta, a woken
// long-poll, a 304, or a checkin. A cancelled request still reaches the
// handler, as one already on the wire would: a parked long-poll answers
// 304 at once, and the agent's closing checkin succeeds, so stopping
// the fleet adds no retries to the agents' counters. Exchanges that end
// because the fleet is stopping are left out of the counts and spans.
func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var since uint64
	parked := false
	isPacks := req.URL.Path == fleet.PathPacks
	if t.rec != nil && isPacks {
		q := req.URL.Query()
		since, _ = strconv.ParseUint(q.Get("since"), 10, 64)
		parked = q.Get("wait") != "" && since == t.reg.Latest()
	}
	start := t.rec.now()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	if req.Context().Err() != nil {
		return resp, nil
	}
	t.counts.requests.Add(1)
	if isPacks {
		t.counts.packs.Add(1)
		if resp.StatusCode == http.StatusNotModified {
			t.counts.notModified.Add(1)
		}
	}
	if t.rec == nil {
		return resp, nil
	}
	end := t.rec.now()
	t.counts.bytes.Add(wireBytes(req, resp, rec.Body.Len()))
	outcome := "checkin"
	switch {
	case !isPacks:
	case resp.StatusCode == http.StatusNotModified:
		outcome = "packs.304"
	case parked:
		outcome = "packs.woken"
	default:
		outcome = "packs.delta"
	}
	t.rec.add("fleet."+t.tier+"."+outcome, since, t.parent, start, end)
	return resp, nil
}

// wireBytes estimates what one exchange would put on an HTTP/1.1 wire:
// request line, headers and body, status line, headers and body. The
// in-process handler never frames anything, so the framing is rebuilt
// from the request and response objects.
func wireBytes(req *http.Request, resp *http.Response, body int) uint64 {
	n := len(req.Method) + len(req.URL.RequestURI()) + len(" HTTP/1.1\r\n") + 1 + 2
	for k, vs := range req.Header {
		for _, v := range vs {
			n += len(k) + len(v) + 4
		}
	}
	if req.ContentLength > 0 {
		n += int(req.ContentLength)
	}
	n += len("HTTP/1.1 200 OK\r\n") + 2
	for k, vs := range resp.Header {
		for _, v := range vs {
			n += len(k) + len(v) + 4
		}
	}
	return uint64(n + body)
}

// hostIdentity gives host i its own name, serial and address, so
// algorithm-deterministic vaccines resolve per host as on a real fleet.
func hostIdentity(i int) winenv.HostIdentity {
	id := winenv.DefaultIdentity()
	id.ComputerName = fmt.Sprintf("WIN-BENCH%03d", i)
	id.VolumeSerial ^= uint32(i) * 0x9E3779B1
	id.IPAddress = fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
	return id
}

// host is one simulated end host: an agent with its own environment
// and deploy daemon, talking to one server through its own transport.
type host struct {
	agent *fleet.Agent
	tr    *memTransport
	// version is the agent's applied version after its latest completed
	// sync, for the convergence waiter.
	version atomic.Uint64
	// log and errs are owned by the host's goroutine; read them only
	// after it has stopped.
	log  []versionAt
	errs int
}

// versionAt records when a host finished a sync at a version.
type versionAt struct {
	at      time.Time
	version uint64
}

// hostSpec says where a host syncs from and how.
type hostSpec struct {
	handler  http.Handler
	reg      *fleet.Registry
	tier     string
	counts   *wireCounts
	binary   bool
	longPoll time.Duration
}

func newHost(i int, seed uint64, spec hostSpec, rec *recorder) *host {
	tr := &memTransport{h: spec.handler, reg: spec.reg, tier: spec.tier, rec: rec, counts: spec.counts, parent: noSpan}
	return &host{
		tr: tr,
		agent: fleet.NewAgent(fleet.AgentConfig{
			BaseURL:  "http://" + spec.tier + ".bench",
			Host:     hostIdentity(i).ComputerName,
			Env:      winenv.New(hostIdentity(i)),
			Seed:     seed,
			Client:   &http.Client{Transport: tr},
			Binary:   spec.binary,
			LongPoll: spec.longPoll,
		}),
	}
}

// syncOnce runs one traced Agent.SyncOnce and logs the version reached.
// A host's first sync, from version 0, is a cold full sync and gets its
// own span name.
func (h *host) syncOnce(ctx context.Context, rec *recorder) error {
	name := "fleet.agent.sync"
	if h.agent.Version() == 0 {
		name = "fleet.agent.cold_sync"
	}
	sid := rec.begin(name, h.agent.Version(), noSpan)
	h.tr.parent = sid
	_, err := h.agent.SyncOnce(ctx)
	if ctx.Err() != nil {
		rec.discard(sid) // ended by the fleet stopping, not by a publish
		return ctx.Err()
	}
	rec.end(sid)
	if err != nil {
		h.errs++
		return err
	}
	v := h.agent.Version()
	h.log = append(h.log, versionAt{time.Now(), v})
	h.version.Store(v)
	return nil
}

// fleetLoop runs long-polling hosts and relays until stopped, and lets
// the harness wait for every host to reach a version.
type fleetLoop struct {
	hosts  []*host
	kick   chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// relayNode is a fleet.Relay driven by the harness loop instead of
// Relay.Run, so each upstream round trip is one traced SyncOnce.
type relayNode struct {
	relay *fleet.Relay
	tr    *memTransport
	// errs is owned by the relay's goroutine.
	errs int
}

// startFleet launches one goroutine per relay and per host.
func startFleet(hosts []*host, relays []*relayNode, rec *recorder) *fleetLoop {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleetLoop{hosts: hosts, kick: make(chan struct{}, 1), cancel: cancel}
	for _, rn := range relays {
		f.wg.Add(1)
		go func(rn *relayNode) {
			defer f.wg.Done()
			for ctx.Err() == nil {
				sid := rec.begin("fleet.relay.sync", rn.relay.Version(), noSpan)
				rn.tr.parent = sid
				_, err := rn.relay.SyncOnce(ctx)
				if ctx.Err() != nil {
					rec.discard(sid)
					return
				}
				rec.end(sid)
				if err != nil {
					rn.errs++
					pause(ctx, 10*time.Millisecond)
				}
			}
		}(rn)
	}
	for _, h := range hosts {
		f.wg.Add(1)
		go func(h *host) {
			defer f.wg.Done()
			for ctx.Err() == nil {
				if err := h.syncOnce(ctx, rec); err != nil {
					continue
				}
				select {
				case f.kick <- struct{}{}:
				default:
				}
			}
		}(h)
	}
	return f
}

// pause sleeps for d or until ctx is done.
func pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// waitAll blocks until every host has applied version target or the
// deadline passes, and returns how many hosts had not.
func (f *fleetLoop) waitAll(target uint64, deadline time.Time) int {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		behind := 0
		for _, h := range f.hosts {
			if h.version.Load() < target {
				behind++
			}
		}
		if behind == 0 {
			return 0
		}
		select {
		case <-f.kick:
		case <-timer.C:
			return behind
		}
	}
}

// stop cancels every goroutine and waits until each has returned.
func (f *fleetLoop) stop() {
	f.cancel()
	f.wg.Wait()
}

// newRelayNode creates a relay mirroring the origin handler.
func newRelayNode(i int, seed uint64, origin http.Handler, originReg *fleet.Registry, originCounts *wireCounts, rec *recorder) (*relayNode, error) {
	tr := &memTransport{h: origin, reg: originReg, tier: "origin", rec: rec, counts: originCounts, parent: noSpan}
	rl, err := fleet.NewRelay(fleet.RelayConfig{
		Upstream: "http://origin.bench",
		Client:   &http.Client{Transport: tr},
		LongPoll: longPollWait,
		Seed:     seed + uint64(i),
	})
	if err != nil {
		return nil, err
	}
	return &relayNode{relay: rl, tr: tr}, nil
}
