package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// Stream workload: open loop. Samples from a Table II mix arrive on a
// fixed schedule; two workers take them in arrival order, run
// SafeAnalyze on a pipeline with the clinic on, and each publishes its
// sample's vaccines to the WAL registry itself, so two publishers share
// group commits. Sixteen binary long-polling agents on the origin
// install them, and one edge relay with no agents behind it mirrors the
// origin. Each sample is timed from when it was due.
const (
	streamRate      = 12.0 // offered samples per second
	streamWorkers   = 2
	streamAgents    = 16
	convergeTimeout = 10 * time.Second
	// Backlog limits: past any of them the offered rate exceeds what
	// the pipeline sustains and the run fails instead of reporting a
	// latency that only grows with the run's length.
	streamLateLimit    = 100 * time.Millisecond
	streamBacklogLimit = 2 * streamWorkers
)

type streamEnv struct {
	cfg      runConfig
	path     analysisPath
	clinicP  *core.Pipeline
	samples  []*malware.Sample
	walDir   string
	reg      *fleet.Registry
	counts   *wireCounts
	relayOut *wireCounts // the mirror relay's own server, which no agent uses
	hosts    []*host
	relays   []*relayNode
	fleet    *fleetLoop
	probe    probeReport
	arrivals int
	// published is every vaccine handed to Publish, warm-up included.
	published []vaccine.Vaccine
}

func streamArrivals(seconds time.Duration) int {
	return int(seconds.Seconds() * streamRate)
}

func setupStream(cfg runConfig, rec *recorder, ck *checks) (*streamEnv, error) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, err
	}
	ix, err := exclusive.BuildIndex(benign, uint64(cfg.seed))
	if err != nil {
		return nil, err
	}
	// The six named families are the warm-up and probe set: their specs
	// are canonical, so set-up does the same work for every seed. The
	// arrivals are the rest of the mix, in a seeded order.
	gen := malware.NewGenerator(cfg.seed)
	var probe []*malware.Sample
	for _, f := range malware.Families() {
		s, err := gen.FamilySample(f)
		if err != nil {
			return nil, err
		}
		probe = append(probe, s)
	}
	arrivals := streamArrivals(cfg.seconds)
	mix, err := gen.Corpus(arrivals + arrivals/10 + 20)
	if err != nil {
		return nil, err
	}
	var samples []*malware.Sample
	for _, s := range mix {
		if s.Spec.Family == "" {
			samples = append(samples, s)
		}
	}
	if len(samples) < arrivals {
		return nil, fmt.Errorf("stream: corpus has %d samples, need %d", len(samples), arrivals)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	walDir, err := os.MkdirTemp(workDir, "wal-stream-")
	if err != nil {
		return nil, err
	}
	e := &streamEnv{
		cfg:      cfg,
		path:     analysisPath{p: core.New(core.Config{Seed: uint64(cfg.seed), Index: ix}), benign: benign, clinic: true},
		clinicP:  core.New(core.Config{Seed: uint64(cfg.seed), Index: ix, Benign: benign}),
		samples:  samples[:arrivals],
		walDir:   walDir,
		counts:   &wireCounts{},
		relayOut: &wireCounts{},
		arrivals: arrivals,
	}
	if e.reg, err = fleet.OpenRegistry(walDir, 0); err != nil {
		os.RemoveAll(walDir)
		return nil, err
	}
	e.reg.SetGenerator(packGenerator)
	srv := fleet.NewServer(e.reg)
	for i := 0; i < streamAgents; i++ {
		e.hosts = append(e.hosts, newHost(i, uint64(cfg.seed), hostSpec{
			handler: srv.Handler(), reg: e.reg, tier: "origin", counts: e.counts, binary: true, longPoll: longPollWait,
		}, rec))
	}
	rn, err := newRelayNode(0, uint64(cfg.seed), srv.Handler(), e.reg, e.counts, rec)
	if err != nil {
		e.reg.Close()
		os.RemoveAll(walDir)
		return nil, err
	}
	e.relays = []*relayNode{rn}
	e.fleet = startFleet(e.hosts, e.relays, rec)

	// Warm-up: the probe samples are analysed serially through both
	// paths (the digest check), then their vaccines go through the
	// fleet path once.
	if e.probe, err = e.path.probe(rec, e.clinicP, probe, ck); err != nil {
		e.close()
		return nil, err
	}
	ref, err := e.path.undecomposed(e.clinicP, probe)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, r := range ref {
		if _, _, err := e.reg.Publish(r.Vaccines...); err != nil {
			e.close()
			return nil, err
		}
		e.published = append(e.published, r.Vaccines...)
	}
	ck.expect(e.fleet.waitAll(e.reg.Latest(), time.Now().Add(convergeTimeout)) == 0, "stream: warm-up did not converge")
	return e, nil
}

func (e *streamEnv) close() {
	e.fleet.stop()
	e.reg.Close()
	os.RemoveAll(e.walDir)
}

// streamItem is one sample's timeline. Each is written by the one
// worker that handled it and read after the workers stopped.
type streamItem struct {
	due, start, analysed, pubStart time.Time
	ids                            []string
	err                            error
}

// streamTiming is the part of an item the backlog detector reads.
type streamTiming struct {
	due, start time.Time
}

// detectBacklog returns why the run shows a growing backlog, or "" when
// it does not: the generator ran late, samples were still waiting at
// the last arrival, or the last quarter's median queue wait is clearly
// above the first quarter's.
func detectBacklog(items []streamTiming, lateMax time.Duration, waitingAtLast int) string {
	if lateMax > streamLateLimit {
		return fmt.Sprintf("generator ran %v late", lateMax.Round(time.Millisecond))
	}
	if waitingAtLast > streamBacklogLimit {
		return fmt.Sprintf("%d samples waiting at the last arrival", waitingAtLast)
	}
	q := len(items) / 4
	if q == 0 {
		return ""
	}
	wait := func(part []streamTiming) float64 {
		xs := make([]float64, len(part))
		for i, it := range part {
			xs[i] = ms(it.start.Sub(it.due))
		}
		return median(xs)
	}
	first, last := wait(items[:q]), wait(items[len(items)-q:])
	if last > 2*first+20 {
		return fmt.Sprintf("last-quarter median queue wait %.1f ms vs first-quarter %.1f ms", last, first)
	}
	return ""
}

func runStream(cfg runConfig) (*outcome, error) {
	o := newOutcome(cfg.traced)
	rec := cfg.recorder()
	env, setup, err := repeatSetup(setups, func(final bool) (*streamEnv, error) {
		r := rec
		if !final {
			r = nil
		}
		return setupStream(cfg, r, &o.checks)
	}, (*streamEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()

	env.counts.reset()
	samples := env.samples
	n := env.arrivals
	items := make([]streamItem, n)
	rate := streamRate
	interval := time.Duration(float64(time.Second) / rate)
	queue := make(chan int, n) // sized to the number of arrivals: the generator never blocks
	var started atomic.Int64
	var pubMu sync.Mutex
	var pubs []pubMark

	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now().Add(interval)
	var wg sync.WaitGroup
	for w := 0; w < streamWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				it := &items[i]
				it.start = time.Now()
				started.Add(1)
				root := rec.begin("stream.sample", uint64(i), noSpan)
				res, err := env.clinicP.SafeAnalyze(samples[i])
				it.analysed = time.Now()
				if err != nil {
					it.err = err
					rec.end(root)
					continue
				}
				if len(res.Vaccines) > 0 {
					for _, v := range res.Vaccines {
						it.ids = append(it.ids, v.ID)
					}
					it.pubStart = time.Now()
					sid := rec.begin("fleet.publish", uint64(i), root)
					latest, _, perr := env.reg.Publish(res.Vaccines...)
					rec.end(sid)
					if perr != nil {
						it.err = perr
					}
					pubMu.Lock()
					pubs = append(pubs, pubMark{version: latest, at: rec.now()})
					env.published = append(env.published, res.Vaccines...)
					pubMu.Unlock()
				}
				rec.end(root)
			}
		}()
	}
	var lateMax time.Duration
	waitingAtLast := 0
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
		items[i].due = due
		if i == n-1 {
			waitingAtLast = i - int(started.Load())
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	notConverged := env.fleet.waitAll(env.reg.Latest(), time.Now().Add(convergeTimeout))
	end := time.Now()
	cpu := cpuTime() - cpu0
	rt := readRuntime().sub(rt0)
	env.fleet.stop()

	ck := &o.checks
	ck.expect(notConverged == 0, "stream: %d hosts did not converge within %v", notConverged, convergeTimeout)
	agents := sumAgents(env.hosts)
	checkAgents(ck, agents)
	ck.expect(env.relays[0].errs == 0, "stream: relay SyncOnce errors: %d", env.relays[0].errs)

	// Charge each sample's installs to the moment the last host reached
	// the highest version among its vaccines.
	delta := env.reg.Delta(0)
	versionOf := make(map[string]uint64, len(delta.Vaccines))
	for i, v := range delta.Vaccines {
		versionOf[v.ID] = delta.Versions[i]
	}
	var ids []string
	var submit, publish []float64
	timings := make([]streamTiming, n)
	failedAnalysis := 0
	for i := range items {
		it := &items[i]
		timings[i] = streamTiming{due: it.due, start: it.start}
		if it.err != nil {
			failedAnalysis++
			continue
		}
		if len(it.ids) == 0 {
			// Nothing to install: the sample is done when analysed.
			submit = append(submit, ms(it.analysed.Sub(it.due)))
			continue
		}
		ids = append(ids, it.ids...)
		var need uint64
		for _, id := range it.ids {
			if versionOf[id] > need {
				need = versionOf[id]
			}
		}
		installed, ok := installedAt(env.hosts, need)
		if !ok {
			continue // counted by the convergence check below
		}
		submit = append(submit, ms(installed.Sub(it.due)))
		publish = append(publish, ms(installed.Sub(it.pubStart)))
	}
	ck.expect(failedAnalysis == 0, "stream: %d samples failed analysis", failedAnalysis)
	missing, missingIDs := convergenceCheck(env.hosts, ids)
	ck.expect(missing == 0, "stream: %d (vaccine, host) installs missing", missing)
	failed := failedAnalysis
	for i := range items {
		for _, id := range items[i].ids {
			if missingIDs[id] {
				failed++
				break
			}
		}
	}
	if why := detectBacklog(timings, lateMax, waitingAtLast); why != "" {
		ck.expect(false, "stream: growing backlog at %.1f samples/s: %s", streamRate, why)
	}
	registryCheck(ck, env.reg, (&vaccine.Pack{Generator: packGenerator, Vaccines: env.published}).Digest())

	o.attempted = n
	o.failed = failed
	o.openLoop = true
	installs := len(ids)*len(env.hosts) - missing
	if err := setE2E(o, setup, e2eInputs{
		windows: []window{{samples: n, installs: installs, wall: end.Sub(t0), cpu: cpu}},
		submit:  submit, publish: publish,
	}); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "stream: %d arrivals at %.1f/s, %d with vaccines, %d vaccines, generator late max %v, %d waiting at last arrival\n",
		n, streamRate, len(publish), len(ids), lateMax.Round(time.Microsecond), waitingAtLast)
	if rec != nil {
		waits := make([]float64, n)
		for i, t := range timings {
			waits[i] = ms(t.start.Sub(t.due))
		}
		log := rec.finish()
		o.spans = log
		o.layers = layerMetrics(env.probe, log, liveStats{
			ops: n, installs: installs, waves: len(pubs), rt: rt, origin: env.counts, relay: env.relayOut,
			pubs: []pubCycle{{marks: pubs}}, agents: agents,
			loop: &loopStats{queueWaitMs: waits, lateMaxMs: ms(lateMax), backlogAtEnd: waitingAtLast},
		})
		o.overhead = overheadLine(env.probe)
	}
	return o, nil
}

// installedAt returns when the last host first reported a version at
// or past need, or false if some host never did.
func installedAt(hosts []*host, need uint64) (time.Time, bool) {
	var last time.Time
	for _, h := range hosts {
		k := sort.Search(len(h.log), func(k int) bool { return h.log[k].version >= need })
		if k == len(h.log) {
			return time.Time{}, false
		}
		if h.log[k].at.After(last) {
			last = h.log[k].at
		}
	}
	return last, true
}
