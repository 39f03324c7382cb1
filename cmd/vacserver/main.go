// Command vacserver is the fleet vaccine distribution server: it loads
// vaccine packs produced by cmd/autovac into the sharded registry and
// serves the HTTP sync protocol host agents poll (see internal/fleet).
//
// Usage:
//
//	autovac -corpus 60 -out pack.json
//	vacserver -addr 127.0.0.1:8377 -pack pack.json
//	vacserver -addr 127.0.0.1:8377 -state-dir /var/lib/vacserver
//	vacserver -addr 127.0.0.1:8378 -upstream http://127.0.0.1:8377
//	vacdaemon -server http://127.0.0.1:8377
//
// Endpoints: GET /v1/packs?since=<version> (delta sync, ETag/304;
// &wait=<dur> long-polls until the next publish), POST /v1/checkin
// (host heartbeats), GET /v1/metrics (counters). With -state-dir the
// registry is durable: publishes are fsynced to a write-ahead log,
// snapshots compact it, and a restart replays the state so agents
// resume from their cursors. SIGINT/SIGTERM drain in-flight requests
// and print a final stats line before exit.
//
// With -upstream the server runs as an edge relay instead of an
// origin: it long-polls the upstream vacserver for binary deltas,
// mirrors the origin's version line exactly, and serves the identical
// /v1/packs surface downstream — agents point at the relay and cannot
// tell the difference. Relay mode is incompatible with -pack and
// -state-dir (the mirror is rebuilt from upstream on start).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"autovac/internal/fleet"
	"autovac/internal/vaccine"
)

// shutdownGrace bounds how long shutdown waits for in-flight requests
// (a variable so tests can shorten it). Connections still open when it
// expires — a parked long poll, a dialed connection that never sent a
// request — are closed forcibly and counted in the final stats line.
var shutdownGrace = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "vacserver:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until the context is cancelled,
// then drains and prints the final stats line. onReady, when non-nil,
// receives the bound address once the listener is up (used by tests
// to learn the port behind ":0").
func run(ctx context.Context, args []string, out io.Writer, onReady func(addr string)) error {
	fs := newFlagSet(out)
	var (
		addr      = fs.String("addr", "127.0.0.1:8377", "listen address")
		packs     = fs.String("pack", "", "comma-separated vaccine pack files (JSON) to publish")
		shards    = fs.Int("shards", fleet.DefaultShards, "registry shard count")
		generator = fs.String("generator", "autovac", "generator label echoed in sync responses")
		stateDir  = fs.String("state-dir", "", "durable state directory (WAL + snapshots); empty = in-memory only")
		upstream  = fs.String("upstream", "", "run as an edge relay of this upstream vacserver URL")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *upstream != "" {
		if *packs != "" || *stateDir != "" {
			return errors.New("-upstream (relay mode) is incompatible with -pack and -state-dir")
		}
		return runRelay(ctx, *addr, *upstream, *shards, out, onReady)
	}

	var reg *fleet.Registry
	if *stateDir != "" {
		r, err := fleet.OpenRegistry(*stateDir, *shards)
		if err != nil {
			return fmt.Errorf("opening state dir %s: %w", *stateDir, err)
		}
		reg = r
		defer reg.Close()
		rec := reg.Recovery()
		fmt.Fprintf(out, "vacserver: recovered state from %s: snapshot v%d + %d WAL records over %d segments (version %d, %d truncated bytes)\n",
			*stateDir, rec.SnapshotVersion, rec.Records, rec.Segments, reg.Latest(), rec.TruncatedBytes)
	} else {
		reg = fleet.NewRegistry(*shards)
	}
	reg.SetGenerator(*generator)
	for _, path := range splitList(*packs) {
		n, err := publishPack(reg, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "published %s: %d vaccines (version %d)\n", path, n, reg.Latest())
	}
	if st, ok := reg.Analysis(); ok {
		fmt.Fprintf(out, "pack analysis health: %d analysed, %d failed (%d panicked), %d skipped\n",
			st.Analyzed, st.Failed, st.Panicked, st.Skipped)
	}

	srv := fleet.NewServer(reg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vacserver: listening on http://%s serving %d vaccines (version %d)\n",
		ln.Addr(), reg.Count(), reg.Latest())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	var conns atomic.Int64
	hs := &http.Server{Handler: srv.Handler(), ConnState: countConns(&conns)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	forced, err := drain(hs, &conns, serveErr)
	if err != nil {
		return err
	}
	snap := srv.MetricsSnapshot()
	fmt.Fprintf(out,
		"vacserver: final stats: requests=%d deltas=%d not_modified=%d checkins=%d errors=%d bytes=%d active_hosts=%d converged=%d p50=%dµs p99=%dµs forced_closes=%d\n",
		snap.Requests, snap.DeltasServed, snap.NotModified, snap.Checkins,
		snap.Errors, snap.BytesServed, snap.ActiveHosts, snap.Converged,
		snap.P50Micros, snap.P99Micros, forced)
	return nil
}

// runRelay serves the relay mode: mirror the upstream, serve the sync
// protocol downstream, drain on cancellation.
func runRelay(ctx context.Context, addr, upstream string, shards int, out io.Writer, onReady func(addr string)) error {
	// The relay's own transport: its idle upstream connections are
	// closed on exit instead of lingering in a process-wide pool, where
	// the upstream's drain would have to wait them out.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	rl, err := fleet.NewRelay(fleet.RelayConfig{
		Upstream: upstream,
		Shards:   shards,
		Client:   &http.Client{Transport: tr},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vacserver: relaying %s on http://%s\n", upstream, ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	syncDone := make(chan struct{})
	go func() { defer close(syncDone); rl.Run(runCtx) }()

	var conns atomic.Int64
	hs := &http.Server{Handler: rl.Handler(), ConnState: countConns(&conns)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		cancel()
		<-syncDone
		return err
	case <-ctx.Done():
	}
	cancel()
	<-syncDone
	forced, err := drain(hs, &conns, serveErr)
	if err != nil {
		return err
	}
	st := rl.Stats()
	snap := rl.Server().MetricsSnapshot()
	fmt.Fprintf(out,
		"vacserver: relay final stats: mirrored_version=%d upstream_syncs=%d upstream_deltas=%d upstream_errors=%d resyncs=%d served_requests=%d served_deltas=%d cache_hits=%d forced_closes=%d\n",
		rl.Version(), st.Syncs, st.Deltas, st.Errors, st.Resyncs,
		snap.Requests, snap.DeltasServed, snap.EncodeCacheHits, forced)
	return nil
}

// countConns returns a ConnState hook keeping n equal to the server's
// open connections.
func countConns(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			n.Add(1)
		case http.StateClosed, http.StateHijacked:
			n.Add(-1)
		}
	}
}

// drain stops hs gracefully: stop accepting, let in-flight requests
// finish within shutdownGrace, then close whatever is still open. It
// returns how many connections that last step cut. A connection that
// never sends a request keeps Shutdown waiting on net/http's own
// five-second rule for new connections; without the forced close it
// would turn every drain with one open into a failed exit.
func drain(hs *http.Server, conns *atomic.Int64, serveErr <-chan error) (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	var forced int64
	if err := hs.Shutdown(ctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return 0, err
		}
		forced = conns.Load()
		hs.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return forced, err
	}
	return forced, nil
}

// newFlagSet builds the flag set with output wired to out.
func newFlagSet(out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("vacserver", flag.ContinueOnError)
	fs.SetOutput(out)
	return fs
}

// publishPack loads one pack file into the registry, recording the
// pack's corpus-analysis statistics (when present) for /v1/metrics.
func publishPack(reg *fleet.Registry, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	pack, err := vaccine.ReadPack(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	_, stored, err := reg.Publish(pack.Vaccines...)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if pack.Analysis != nil {
		reg.RecordAnalysis(*pack.Analysis)
	}
	return stored, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
