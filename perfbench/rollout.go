package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// Rollout workload: closed loop over publish waves. Set-up analyses a
// corpus (AnalyzeCorpus, two workers, static passes on, clinic off);
// each wave then publishes one sample's vaccines to the WAL registry
// from a single publisher. Sixty-four hosts install it: half long-poll
// the origin over JSON, half sit behind two relays over the binary
// codec. The next wave starts once every host has installed.
//
// The fleet — WAL registry, relays and hosts — is provisioned afresh,
// outside the timed intervals, for every cycle of rolloutCycle waves,
// and the cycle republishes the same waves. Every cycle therefore does
// the same work on a registry of the same size, and memory stays
// bounded however long the run: 64 hosts holding every vaccine of a
// long run would otherwise make peak_rss_mb and the garbage collector's
// share grow with throughput.
const (
	rolloutHosts        = 64
	rolloutRelays       = 2
	rolloutCycle        = 512 // waves per fleet cycle
	rolloutWarmWaves    = 16  // untimed waves at the start of each cycle
	rolloutProbeSamples = 100
	// rolloutChunk bounds the samples analysed at once in set-up, so
	// their traces are dropped before the next chunk and do not inflate
	// peak_rss_mb.
	rolloutChunk = 256
	// rolloutWindow is the waves per throughput window; it divides the
	// timed waves of a cycle.
	rolloutWindow = 62
)

type rolloutEnv struct {
	cfg   runConfig
	path  analysisPath
	waves [][]vaccine.Vaccine
	probe probeReport
	// origin and relayWire total the traffic of every cycle since they
	// were last reset.
	origin, relayWire *wireCounts
	cycle             *fleetCycle
}

// fleetCycle is one provisioned fleet.
type fleetCycle struct {
	walDir    string
	reg       *fleet.Registry
	hosts     []*host
	relays    []*relayNode
	fleet     *fleetLoop
	published []vaccine.Vaccine
	pubs      pubCycle
}

func setupRollout(cfg runConfig, rec *recorder, ck *checks) (*rolloutEnv, error) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, err
	}
	ix, err := exclusive.BuildIndex(benign, uint64(cfg.seed))
	if err != nil {
		return nil, err
	}
	e := &rolloutEnv{
		cfg:       cfg,
		path:      analysisPath{p: core.New(core.Config{Seed: uint64(cfg.seed), Index: ix}), benign: benign, static: true},
		origin:    &wireCounts{},
		relayWire: &wireCounts{},
	}
	// The waves come from analysing a corpus, chunk by chunk until there
	// are enough; about nine samples in ten yield at least one vaccine.
	samples, err := malware.NewGenerator(cfg.seed).Corpus(rolloutCycle + rolloutCycle/2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	for lo := 0; lo < len(samples) && len(e.waves) < rolloutCycle; lo += rolloutChunk {
		chunk := samples[lo:min(lo+rolloutChunk, len(samples))]
		results, st, err := e.path.p.AnalyzeCorpus(context.Background(), chunk, e.path.corpusOptions(2))
		ck.expect(err == nil && st.Failed == 0, "rollout: set-up analysis: %d failed: %v", st.Failed, err)
		for _, r := range results {
			if r != nil && len(r.Vaccines) > 0 {
				e.waves = append(e.waves, r.Vaccines)
			}
		}
	}
	if len(e.waves) < rolloutCycle {
		return nil, fmt.Errorf("rollout: %d waves from %d samples, need %d", len(e.waves), len(samples), rolloutCycle)
	}
	e.waves = e.waves[:rolloutCycle]
	if e.probe, err = e.path.probe(rec, nil, samples[:rolloutProbeSamples], ck); err != nil {
		return nil, err
	}
	if err := e.provision(rec); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// provision replaces the fleet with a fresh one and runs its warm-up
// waves.
func (e *rolloutEnv) provision(rec *recorder) error {
	e.close()
	c := &fleetCycle{pubs: pubCycle{start: rec.now()}}
	e.cycle = c
	var err error
	if c.walDir, err = os.MkdirTemp(workDir, "wal-rollout-"); err != nil {
		return err
	}
	if c.reg, err = fleet.OpenRegistry(c.walDir, 0); err != nil {
		return err
	}
	c.reg.SetGenerator(packGenerator)
	srv := fleet.NewServer(c.reg)
	for i := 0; i < rolloutRelays; i++ {
		rn, err := newRelayNode(i, uint64(e.cfg.seed), srv.Handler(), c.reg, e.origin, rec)
		if err != nil {
			return err
		}
		c.relays = append(c.relays, rn)
	}
	for i := 0; i < rolloutHosts; i++ {
		spec := hostSpec{handler: srv.Handler(), reg: c.reg, tier: "origin", counts: e.origin, longPoll: longPollWait}
		if i%2 == 1 {
			rl := c.relays[(i/2)%rolloutRelays].relay
			spec = hostSpec{handler: rl.Handler(), reg: rl.Registry(), tier: "relay", counts: e.relayWire, binary: true, longPoll: longPollWait}
		}
		c.hosts = append(c.hosts, newHost(i, uint64(e.cfg.seed), spec, rec))
	}
	c.fleet = startFleet(c.hosts, c.relays, rec)
	for w := 0; w < rolloutWarmWaves; w++ {
		if nc, err := e.wave(w, rec); err != nil || nc > 0 {
			return fmt.Errorf("rollout: warm-up wave %d: %d hosts behind: %v", w, nc, err)
		}
	}
	return nil
}

// close stops the current fleet and removes its WAL.
func (e *rolloutEnv) close() {
	c := e.cycle
	if c == nil {
		return
	}
	if c.fleet != nil {
		c.fleet.stop()
	}
	if c.reg != nil {
		c.reg.Close()
	}
	os.RemoveAll(c.walDir)
	e.cycle = nil
}

// wave publishes wave w to the current fleet and waits until every host
// installed it. It returns how many hosts missed the deadline.
func (e *rolloutEnv) wave(w int, rec *recorder) (int, error) {
	c := e.cycle
	vs := e.waves[w]
	sid := rec.begin("fleet.publish", uint64(w), noSpan)
	latest, _, err := c.reg.Publish(vs...)
	rec.end(sid)
	if err != nil {
		return 0, err
	}
	c.pubs.marks = append(c.pubs.marks, pubMark{version: latest, at: rec.now()})
	c.published = append(c.published, vs...)
	return c.fleet.waitAll(latest, time.Now().Add(convergeTimeout)), nil
}

// cycleResult is what one fleet cycle's checks found.
type cycleResult struct {
	attempted, missing int
	agents             agentTotals
}

// finishCycle stops the cycle's fleet and checks it: every host holds
// every published ID, no agent or relay failed, and the registry serves
// exactly what was published.
func (e *rolloutEnv) finishCycle(ck *checks) cycleResult {
	c := e.cycle
	c.fleet.stop()
	var r cycleResult
	r.agents = sumAgents(c.hosts)
	checkAgents(ck, r.agents)
	for _, rn := range c.relays {
		ck.expect(rn.errs == 0, "rollout: relay SyncOnce errors: %d", rn.errs)
	}
	warm := 0
	for _, vs := range e.waves[:rolloutWarmWaves] {
		warm += len(vs)
	}
	var ids []string
	for _, v := range c.published[warm:] {
		ids = append(ids, v.ID)
	}
	r.missing, _ = convergenceCheck(c.hosts, ids)
	r.attempted = len(ids) * len(c.hosts)
	ck.expect(r.missing == 0, "rollout: %d (vaccine, host) installs missing", r.missing)
	registryCheck(ck, c.reg, (&vaccine.Pack{Generator: packGenerator, Vaccines: c.published}).Digest())
	return r
}

func runRollout(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.traced)
	rec := cfg.recorder()
	env, setup, err := repeatSetup(setups, func(final bool) (*rolloutEnv, error) {
		r := rec
		if !final {
			r = nil
		}
		return setupRollout(cfg, r, &o.checks)
	}, (*rolloutEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	env.origin.reset()
	env.relayWire.reset()
	var lat []float64
	var windows []window
	var cycles []pubCycle // kept for the wake-latency mapping of a traced run
	var agents agentTotals
	loop := &loopStats{}
	waves, installs, notConverged := 0, 0, 0
	rt0 := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		if env.cycle == nil {
			if err := env.provision(rec); err != nil {
				return nil, err
			}
		}
		c := env.cycle
		cur := window{}
		wt, wcpu := time.Now(), cpuTime()
		ready := wt
		for w := rolloutWarmWaves; w < rolloutCycle && time.Now().Before(deadline); w++ {
			ts := time.Now()
			loop.wait(ts.Sub(ready))
			nc, err := env.wave(w, rec)
			if err != nil {
				o.checks.expect(false, "rollout: wave %d: Publish: %v", w, err)
				continue
			}
			ready = time.Now()
			lat = append(lat, ms(ready.Sub(ts)))
			notConverged += nc
			waves++
			cur.samples++
			cur.installs += len(env.waves[w]) * len(c.hosts)
			if cur.samples == rolloutWindow {
				now, cpu := time.Now(), cpuTime()
				cur.wall, cur.cpu = now.Sub(wt), cpu-wcpu
				windows = append(windows, cur)
				cur, wt, wcpu = window{}, now, cpu
			}
		}
		r := env.finishCycle(&o.checks)
		o.attempted += r.attempted
		o.failed += r.missing
		installs += r.attempted - r.missing
		agents = agents.add(r.agents)
		cycles = append(cycles, c.pubs)
		env.close()
	}
	rt := readRuntime().sub(rt0)
	o.checks.expect(notConverged == 0, "rollout: %d host-waves missed the %v convergence deadline", notConverged, convergeTimeout)

	// A wave is submitted when the closed loop starts it, which is also
	// when its Publish call starts: the two latencies coincide here.
	if err := setE2E(o, setup, e2eInputs{windows: windows, submit: lat, publish: lat}); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "rollout: %d waves in %d fleet cycles, %d installs to %d hosts (%d behind %d relays)\n",
		waves, len(cycles), installs, rolloutHosts, rolloutHosts/2, rolloutRelays)
	if rec != nil {
		log := rec.finish()
		o.spans = log
		o.layers = layerMetrics(env.probe, log, liveStats{
			ops: installs, installs: agents.applied, waves: waves, rt: rt,
			origin: env.origin, relay: env.relayWire, pubs: cycles, agents: agents, loop: loop,
		})
		o.overhead = overheadLine(env.probe)
	}
	return o, nil
}
