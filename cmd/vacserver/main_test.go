package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"autovac/internal/determinism"
	"autovac/internal/fleet"
	"autovac/internal/impact"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// writePack writes a small static-vaccine pack and returns its path.
func writePack(t *testing.T, n int) string {
	t.Helper()
	p := vaccine.Pack{Generator: "test"}
	for i := 0; i < n; i++ {
		p.Vaccines = append(p.Vaccines, vaccine.Vaccine{
			ID: fmt.Sprintf("srv/mutex/%d", i), Sample: "srv",
			Resource: winenv.KindMutex, Identifier: fmt.Sprintf("SRV-MARKER-%d", i),
			Class: determinism.Static, Op: "create", API: "CreateMutexA",
			Effect: impact.Full, Polarity: vaccine.SimulatePresence,
			Delivery: vaccine.DirectInjection,
		})
	}
	path := filepath.Join(t.TempDir(), "pack.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// lockedBuffer keeps run's writes race-free against test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeSyncShutdown boots the server on an ephemeral port, syncs
// against it like an agent would, then cancels the context and checks
// the graceful-shutdown stats line.
func TestServeSyncShutdown(t *testing.T) {
	pack := writePack(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &lockedBuffer{}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pack", pack}, out,
			func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + fleet.PathPacks + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var delta fleet.DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&delta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(delta.Vaccines) != 5 || delta.Version != 5 {
		t.Fatalf("delta %+v", delta)
	}

	resp, err = http.Post(base+fleet.PathCheckin, "application/json",
		strings.NewReader(`{"Host":"T1","Version":5,"Installed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + fleet.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap fleet.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Vaccines != 5 || snap.Checkins != 1 || snap.ActiveHosts != 1 {
		t.Fatalf("metrics %+v", snap)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	got := out.String()
	for _, want := range []string{"listening on", "final stats", "checkins=1", "deltas=1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// bootServer runs the server with args until ready, returning its base
// URL and a shutdown func that waits for the drain to finish.
func bootServer(t *testing.T, out *lockedBuffer, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, out, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("server never became ready")
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// TestStateDirSurvivesRestart boots the server with -state-dir and a
// pack, shuts it down, and boots it again WITHOUT the pack: the WAL
// replay must restore the same content at the same version, and a
// client whose cursor matches must get a 304 — not a resync.
func TestStateDirSurvivesRestart(t *testing.T) {
	pack := writePack(t, 5)
	stateDir := filepath.Join(t.TempDir(), "state")

	out1 := &lockedBuffer{}
	base, shutdown := bootServer(t, out1, "-addr", "127.0.0.1:0", "-pack", pack, "-state-dir", stateDir)
	resp, err := http.Get(base + fleet.PathPacks + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var first fleet.DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	shutdown()

	// Reboot from the state dir alone.
	out2 := &lockedBuffer{}
	base, shutdown = bootServer(t, out2, "-addr", "127.0.0.1:0", "-state-dir", stateDir)
	defer shutdown()
	if !strings.Contains(out2.String(), "recovered state") {
		t.Fatalf("no recovery line in output:\n%s", out2.String())
	}
	resp, err = http.Get(base + fleet.PathPacks + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var second fleet.DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if second.Version != first.Version || second.ETag != first.ETag {
		t.Fatalf("reboot state: version %d etag %s, want %d / %s",
			second.Version, second.ETag, first.Version, first.ETag)
	}
	// An agent current as of the previous incarnation stays current.
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s%s?since=%d", base, fleet.PathPacks, first.Version), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("up-to-date agent after reboot got %d, want 304", resp.StatusCode)
	}
}

// TestRelayModeServesUpstream chains a relay vacserver behind an
// origin vacserver and checks the downstream surface is the origin's:
// same delta content, working 304s, and a relay final-stats line.
func TestRelayModeServesUpstream(t *testing.T) {
	pack := writePack(t, 5)
	originOut := &lockedBuffer{}
	originBase, originShutdown := bootServer(t, originOut,
		"-addr", "127.0.0.1:0", "-pack", pack)
	defer originShutdown()

	relayOut := &lockedBuffer{}
	relayBase, relayShutdown := bootServer(t, relayOut,
		"-addr", "127.0.0.1:0", "-upstream", originBase)

	// The relay mirrors asynchronously; poll until its delta matches
	// the origin's.
	var originDelta, relayDelta fleet.DeltaResponse
	resp, err := http.Get(originBase + fleet.PathPacks + "?since=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&originDelta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(relayBase + fleet.PathPacks + "?since=0")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&relayDelta)
		resp.Body.Close()
		if err == nil && relayDelta.ETag == originDelta.ETag && relayDelta.Version == originDelta.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay never mirrored origin: relay %+v vs origin etag=%s v=%d",
				relayDelta, originDelta.ETag, originDelta.Version)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(relayDelta.Vaccines) != 5 {
		t.Fatalf("relay served %d vaccines, want 5", len(relayDelta.Vaccines))
	}

	// A converged client gets the 304 fast path off the relay.
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s%s?since=%d", relayBase, fleet.PathPacks, relayDelta.Version), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("converged client got %d off the relay, want 304", resp.StatusCode)
	}

	relayShutdown()
	got := relayOut.String()
	for _, want := range []string{"relaying " + originBase, "relay final stats", "mirrored_version=5"} {
		if !strings.Contains(got, want) {
			t.Fatalf("relay output missing %q:\n%s", want, got)
		}
	}
}

// TestDrainForceClosesSilentConnection pins the drain on a connection
// that was dialed but never sent a request (a load balancer's TCP
// probe, a relay's spare pre-dialed upstream connection). Shutdown
// cannot close it before net/http's five-second rule for new
// connections, which outlasts the grace; the drain must then close it
// forcibly, return nil and report the cut in the final stats line.
func TestDrainForceClosesSilentConnection(t *testing.T) {
	defer func(g time.Duration) { shutdownGrace = g }(shutdownGrace)
	shutdownGrace = 100 * time.Millisecond

	pack := writePack(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &lockedBuffer{}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pack", pack}, out,
			func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in order, so once a later connection has been
	// answered the silent one has been accepted too.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + fleet.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v with a silent connection open", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	got := out.String()
	forced := -1
	if i := strings.LastIndex(got, "forced_closes="); i >= 0 {
		fmt.Sscanf(got[i:], "forced_closes=%d", &forced)
	}
	if forced < 1 {
		t.Fatalf("final stats report %d forced closes, want at least 1:\n%s", forced, got)
	}
}

func TestRelayModeRejectsOriginFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-upstream", "http://127.0.0.1:1", "-pack", "x.json"},
		{"-upstream", "http://127.0.0.1:1", "-state-dir", "/tmp/x"},
	} {
		err := run(context.Background(), args, &bytes.Buffer{}, nil)
		if err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("args %v: err %v, want incompatibility error", args, err)
		}
	}
}

func TestRunRejectsMissingPack(t *testing.T) {
	err := run(context.Background(), []string{"-pack", "/nonexistent/pack.json"}, &bytes.Buffer{}, nil)
	if err == nil {
		t.Fatal("missing pack file accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a.json , ,b.json,")
	if len(got) != 2 || got[0] != "a.json" || got[1] != "b.json" {
		t.Fatalf("splitList %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty list should be nil")
	}
}
