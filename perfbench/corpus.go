package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// Corpus workload: closed loop over batches. Each batch is a fresh
// Table II mix plus the hash-resolving bands, analysed by AnalyzeCorpus
// with two workers, Phase-0 triage and the static pre-filter on and the
// clinic off; the deduplicated pack is verified, digested, published
// in one WAL Publish to a fresh registry, and installed by cold agents
// doing a full since=0 sync: half poll the origin over JSON once the
// pack is published, half long-poll over the binary codec behind a
// relay that mirrors the whole pack. The next batch starts when every
// agent has installed.
const (
	corpusBatchSize    = 64 // Corpus(n) argument: about 62 samples
	corpusHashPerBand  = 2  // HashResolveCorpus band size: 6 samples
	corpusAgents       = 4
	corpusWorkers      = 2
	corpusWarmBatches  = 10 // set-up batches
	corpusProbeBatches = 2  // of which go through the decomposition probe
)

// corpusBatch generates batch k of a run: the same seed and k give the
// same samples.
func corpusBatch(seed int64, k int) ([]*malware.Sample, error) {
	gen := malware.NewGenerator(seed*1_000_003 + int64(k))
	samples, err := gen.Corpus(corpusBatchSize)
	if err != nil {
		return nil, err
	}
	hr, err := gen.HashResolveCorpus(corpusHashPerBand)
	if err != nil {
		return nil, err
	}
	return append(samples, hr...), nil
}

type corpusEnv struct {
	cfg     runConfig
	path    analysisPath
	walRoot string
	probe   probeReport
	// origin and relayWire total the traffic of the batches run since
	// they were last reset.
	origin, relayWire *wireCounts
}

// batchResult is one batch's measurement.
type batchResult struct {
	samples  int
	start    time.Time     // submission
	wall     time.Duration // submission until every agent installed
	publish  time.Duration // Publish call until every agent installed
	pubs     pubCycle
	cpu      time.Duration
	installs int
	failed   int // samples failed analysis or missing on a host
	agents   agentTotals
}

func setupCorpus(cfg runConfig, rec *recorder, ck *checks) (*corpusEnv, error) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, err
	}
	ix, err := exclusive.BuildIndex(benign, uint64(cfg.seed))
	if err != nil {
		return nil, err
	}
	walRoot, err := os.MkdirTemp(workDir, "wal-corpus-")
	if err != nil {
		return nil, err
	}
	e := &corpusEnv{
		cfg:       cfg,
		path:      analysisPath{p: core.New(core.Config{Seed: uint64(cfg.seed), Index: ix}), benign: benign, static: true},
		walRoot:   walRoot,
		origin:    &wireCounts{},
		relayWire: &wireCounts{},
	}
	// Warm-up: the first batches go through the full path once, until
	// the heap has grown to its working size; the first few also go
	// through the decomposition probe, which checks that the decomposed
	// calls produce the AnalyzeCorpus pack digest.
	var probeSamples []*malware.Sample
	for k := -corpusWarmBatches; k < 0; k++ {
		samples, err := corpusBatch(cfg.seed, k)
		if err != nil {
			return nil, err
		}
		if _, err := e.runBatch(k, samples, nil, ck); err != nil {
			return nil, err
		}
		if k < -corpusWarmBatches+corpusProbeBatches {
			probeSamples = append(probeSamples, samples...)
		}
	}
	if e.probe, err = e.path.probe(rec, nil, probeSamples, ck); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *corpusEnv) close() { os.RemoveAll(e.walRoot) }

// runBatch runs one batch from submission to the last cold install.
func (e *corpusEnv) runBatch(k int, samples []*malware.Sample, rec *recorder, ck *checks) (batchResult, error) {
	br := batchResult{samples: len(samples)}
	dir := filepath.Join(e.walRoot, fmt.Sprintf("batch-%d", k))
	reg, err := fleet.OpenRegistry(dir, 0)
	if err != nil {
		return br, err
	}
	defer os.RemoveAll(dir)
	defer reg.Close()
	reg.SetGenerator(packGenerator)
	srv := fleet.NewServer(reg)
	rn, err := newRelayNode(0, uint64(e.cfg.seed), srv.Handler(), reg, e.origin, rec)
	if err != nil {
		return br, err
	}
	var hosts, polled, parked []*host
	for i := 0; i < corpusAgents; i++ {
		if i%2 == 0 {
			h := newHost(i, uint64(e.cfg.seed), hostSpec{handler: srv.Handler(), reg: reg, tier: "origin", counts: e.origin}, rec)
			polled = append(polled, h)
			hosts = append(hosts, h)
			continue
		}
		h := newHost(i, uint64(e.cfg.seed), hostSpec{
			handler: rn.relay.Handler(), reg: rn.relay.Registry(), tier: "relay", counts: e.relayWire, binary: true, longPoll: longPollWait,
		}, rec)
		parked = append(parked, h)
		hosts = append(hosts, h)
	}
	br.pubs.start = rec.now()
	fl := startFleet(parked, []*relayNode{rn}, rec)

	cpu0 := cpuTime()
	t0 := time.Now()
	br.start = t0
	results, st, aerr := e.path.p.AnalyzeCorpus(context.Background(), samples, e.path.corpusOptions(corpusWorkers))
	pack := packOf(results)
	verr := pack.Verify()
	digest := pack.Digest()
	tp := time.Now()
	sid := rec.begin("fleet.publish", uint64(k), noSpan)
	latest, _, perr := reg.Publish(pack.Vaccines...)
	rec.end(sid)
	br.pubs.marks = append(br.pubs.marks, pubMark{version: latest, at: rec.now()})
	var wg sync.WaitGroup
	for _, h := range polled {
		wg.Add(1)
		go func(h *host) {
			defer wg.Done()
			_ = h.syncOnce(context.Background(), rec) // a failure is counted in h.errs
		}(h)
	}
	behind := fl.waitAll(latest, time.Now().Add(convergeTimeout))
	wg.Wait()
	t1 := time.Now()
	br.cpu = cpuTime() - cpu0
	br.wall = t1.Sub(t0)
	br.publish = t1.Sub(tp)
	fl.stop()

	ck.expect(aerr == nil && st.Failed == 0 && st.Panicked == 0, "batch %d: %d samples failed analysis (%d panicked): %v", k, st.Failed, st.Panicked, aerr)
	ck.expect(verr == nil, "batch %d: Pack.Verify: %v", k, verr)
	ck.expect(perr == nil, "batch %d: Publish: %v", k, perr)
	ck.expect(behind == 0, "batch %d: %d hosts did not converge within %v", k, behind, convergeTimeout)
	ck.expect(rn.errs == 0, "batch %d: relay SyncOnce errors: %d", k, rn.errs)
	registryCheck(ck, reg, digest)
	br.agents = sumAgents(hosts)
	checkAgents(ck, br.agents)
	br.installs = br.agents.applied

	ids := make([]string, len(pack.Vaccines))
	for i, v := range pack.Vaccines {
		ids[i] = v.ID
	}
	missing, missingIDs := convergenceCheck(hosts, ids)
	ck.expect(missing == 0, "batch %d: %d (vaccine, host) installs missing", k, missing)
	br.failed = failedSamples(samples, results, pack.Vaccines, missingIDs)
	return br, nil
}

// failedSamples counts samples that failed analysis or whose vaccines
// some host is missing (a merged vaccine names every contributing
// sample).
func failedSamples(samples []*malware.Sample, results []*core.Result, published []vaccine.Vaccine, missingIDs map[string]bool) int {
	bad := make(map[string]bool)
	for i, r := range results {
		if r == nil {
			bad[samples[i].Name()] = true
		}
	}
	for _, v := range published {
		if missingIDs[v.ID] {
			for _, name := range strings.Split(v.Sample, ",") {
				bad[name] = true
			}
		}
	}
	return len(bad)
}

func runCorpus(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.traced)
	rec := cfg.recorder()
	env, setup, err := repeatSetup(setups, func(final bool) (*corpusEnv, error) {
		r := rec
		if !final {
			r = nil
		}
		return setupCorpus(cfg, r, &o.checks)
	}, (*corpusEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	env.origin.reset()
	env.relayWire.reset()
	rt0 := readRuntime()
	timedStart := time.Now()
	deadline := timedStart.Add(cfg.seconds)
	var batches []batchResult
	for k := 0; time.Now().Before(deadline); k++ {
		samples, err := corpusBatch(cfg.seed, k)
		if err != nil {
			return nil, err
		}
		br, err := env.runBatch(k, samples, rec, &o.checks)
		if err != nil {
			return nil, err
		}
		batches = append(batches, br)
	}
	rt := readRuntime().sub(rt0)

	var samples, installs int
	var agents agentTotals
	var windows []window
	var perSample, perPublish []float64
	var cycles []pubCycle
	loop := &loopStats{}
	ready := timedStart
	for _, b := range batches {
		loop.wait(b.start.Sub(ready))
		ready = b.start.Add(b.wall)
		cycles = append(cycles, b.pubs)
		samples += b.samples
		installs += b.installs
		o.failed += b.failed
		agents = agents.add(b.agents)
		windows = append(windows, window{samples: b.samples, installs: b.installs, wall: b.wall, cpu: b.cpu})
		perPublish = append(perPublish, ms(b.publish))
		for i := 0; i < b.samples; i++ {
			perSample = append(perSample, ms(b.wall))
		}
	}
	o.attempted = samples
	if err := setE2E(o, setup, e2eInputs{windows: windows, submit: perSample, publish: perPublish}); err != nil {
		return nil, err
	}
	if rec != nil {
		log := rec.finish()
		o.spans = log
		o.layers = layerMetrics(env.probe, log, liveStats{
			ops: samples, installs: installs, waves: len(batches), rt: rt,
			origin: env.origin, relay: env.relayWire, pubs: cycles, agents: agents, loop: loop,
		})
		o.overhead = overheadLine(env.probe)
	}
	fmt.Fprintf(cfg.log, "corpus: %d batches, %d samples, %d installs\n", len(batches), samples, installs)
	return o, nil
}
