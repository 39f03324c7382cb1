package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autovac/internal/core"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// mixedPack writes a pack containing static, algorithm-deterministic,
// and partial-static vaccines.
func mixedPack(t *testing.T) string {
	t.Helper()
	pipeline := core.New(core.Config{Seed: 42})
	var vs []vaccine.Vaccine
	for _, spec := range []*malware.Spec{
		{Name: "dmn-static", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehMarkerMutex, ID: "DMN.STATIC.1"},
			{Kind: malware.BehNetworkCC, ID: "a.example", Aux: "445", Count: 1},
		}},
		{Name: "dmn-algo", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehAlgoMutex, ID: `Global\%s-44`},
			{Kind: malware.BehNetworkCC, ID: "b.example", Aux: "445", Count: 1},
		}},
		{Name: "dmn-partial", Category: malware.Worm, Behaviors: []malware.Behavior{
			{Kind: malware.BehPartialMutex, ID: "DMNPART"},
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
	path := filepath.Join(t.TempDir(), "mixed.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := (&vaccine.Pack{Generator: "test", Vaccines: vs}).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDaemonServesPack(t *testing.T) {
	pack := mixedPack(t)
	if err := run(context.Background(), []string{"-pack", pack, "-attacks", "50", "-seed", "42"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{}, io.Discard); err == nil {
		t.Error("missing -pack accepted")
	}
	if err := run(ctx, []string{"-pack", "/no/such.json"}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}

// TestAgentModeSyncsAndShutsDown points vacdaemon at a fleet server,
// lets it sync and probe, then cancels the context and checks the
// graceful final stats line.
func TestAgentModeSyncsAndShutsDown(t *testing.T) {
	packPath := mixedPack(t)
	f, err := os.Open(packPath)
	if err != nil {
		t.Fatal(err)
	}
	pack, err := vaccine.ReadPack(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	reg := fleet.NewRegistry(0)
	if _, _, err := reg.Publish(pack.Vaccines...); err != nil {
		t.Fatal(err)
	}
	// served holds a token once a request has been answered, so the
	// wait below re-checks the fleet view on server events, not on a
	// timer.
	served := make(chan struct{}, 1)
	h := fleet.NewServer(reg).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		select {
		case served <- struct{}{}:
		default:
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-server", ts.URL, "-host", "AGENT-01", "-interval", "5ms"}, &buf)
	}()
	// Stop the agent once it has checked in converged and a later
	// heartbeat has reported its probes.
	deadline := time.After(5 * time.Second)
	for st := reg.Fleet(time.Minute, time.Now()); st.Converged == 0 || st.Inspected == 0; st = reg.Fleet(time.Minute, time.Now()) {
		select {
		case <-deadline:
			t.Fatalf("agent never checked in converged with probes: %+v", st)
		case err := <-done:
			t.Fatalf("agent exited early: %v", err)
		case <-served:
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent mode returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not shut down")
	}
	out := buf.String()
	for _, want := range []string{"applied", "final stats", "version="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	st := reg.Fleet(time.Minute, time.Now())
	if st.ActiveHosts != 1 || st.Converged != 1 {
		t.Fatalf("server fleet view %+v", st)
	}
	// The probe loop exercised the daemon's interception path.
	if st.Inspected == 0 {
		t.Fatal("no probes inspected")
	}
}

func TestProbeName(t *testing.T) {
	got := probeName("WORM-*", 3)
	if len(got) <= len("WORM-") || got[:5] != "WORM-" {
		t.Errorf("probeName = %q", got)
	}
	if probeName("exact", 1) != "exact" {
		t.Error("literal pattern changed")
	}
}
