package main

import (
	"sort"
	"time"

	"autovac/internal/fleet"
)

// pubMark records when a Publish returned and the version it reached,
// so a woken long-poll can be charged to the publish that woke it.
type pubMark struct {
	version uint64
	at      int64 // recorder time
}

// pubCycle is the publishes of one registry, whose version line starts
// at zero: the rollout provisions a fresh registry per fleet cycle.
type pubCycle struct {
	start int64 // recorder time the registry was provisioned
	marks []pubMark
}

// agentTotals sums the agents' own counters after they stopped.
type agentTotals struct {
	syncErrors, retries, decodeErrors, installFailed int
	applied                                          int
}

func (a agentTotals) add(b agentTotals) agentTotals {
	return agentTotals{
		syncErrors:    a.syncErrors + b.syncErrors,
		retries:       a.retries + b.retries,
		decodeErrors:  a.decodeErrors + b.decodeErrors,
		installFailed: a.installFailed + b.installFailed,
		applied:       a.applied + b.applied,
	}
}

func sumAgents(hosts []*host) agentTotals {
	var t agentTotals
	for _, h := range hosts {
		st := h.agent.Stats()
		t.syncErrors += h.errs
		t.retries += st.Retries
		t.decodeErrors += st.DecodeErrors
		t.installFailed += st.Failed
		t.applied += st.Applied
	}
	return t
}

// liveStats is what a traced run's timed phase measured outside the
// span log.
type liveStats struct {
	ops      int // operations: samples, or (vaccine, host) installs
	installs int
	waves    int
	rt       runtimeStats
	origin   *wireCounts
	relay    *wireCounts // nil without a relay tier
	pubs     []pubCycle  // in provisioning order
	agents   agentTotals
	loop     *loopStats
}

// loopStats is the load generator's own accounting. For the open loop
// a wait is how long a sample queued after it was due; for a closed
// loop it is the harness's delay between one operation completing and
// the next being submitted.
type loopStats struct {
	queueWaitMs  []float64
	lateMaxMs    float64
	backlogAtEnd int
}

// wait records one submission's wait.
func (s *loopStats) wait(d time.Duration) {
	s.queueWaitMs = append(s.queueWaitMs, ms(d))
	if ms(d) > s.lateMaxMs {
		s.lateMaxMs = ms(d)
	}
}

// layerMetrics derives the per-layer table from the decomposition
// probe, the span log, and the live counters.
func layerMetrics(pr probeReport, l *spanLog, live liveStats) metricSet {
	m := metricSet{}
	c := pr.counts

	if d, n := l.total("static.triage"); n > 0 {
		m.set("static.triage_us", us(d)/float64(n), "%d calls", n)
		_, np := l.total("static.prefilter")
		pd, _ := l.total("static.prefilter")
		m.set("static.prefilter_us", ratio(us(pd), float64(np)), "%d calls", np)
		m.set("static.skipped_ratio", ratio(float64(c.triaged+c.prefiltered), float64(c.samples)),
			"%d triaged + %d prefiltered / %d samples", c.triaged, c.prefiltered, c.samples)
	}
	if d, n := l.total("core.phase1"); n > 0 {
		m.set("core.phase1_ms", ms(d)/float64(n), "%d calls", n)
		m.set("core.phase1_alloc_kb", float64(l.allocs("core.phase1"))/1024/float64(n), "%d calls", n)
		m.set("core.candidates_per_sample", ratio(float64(c.candidates), float64(c.phase1)), "%d candidates / %d profiled", c.candidates, c.phase1)
	}
	if d, n := l.total("core.phase2"); n > 0 {
		cands := c.candidates
		m.set("core.phase2_ms_per_candidate", ratio(ms(d), float64(cands)), "%d calls, %d candidates", n, cands)
		m.set("core.phase2_alloc_kb_per_candidate", ratio(float64(l.allocs("core.phase2"))/1024, float64(cands)), "%d candidates", cands)
		m.set("core.vaccine_yield", ratio(float64(c.vaccines), float64(cands)), "%d vaccines / %d candidates", c.vaccines, cands)
		m.set("core.rejected_exclusiveness", float64(c.rejectedExcl), "of %d candidates", cands)
		m.set("core.rejected_impact", float64(c.rejectedImpact), "of %d candidates", cands)
		m.set("core.rejected_determinism", float64(c.rejectedDeterminism), "of %d candidates", cands)
	}
	if d, n := l.total("clinic.run"); n > 0 {
		m.set("clinic.ms_per_call", ms(d)/float64(n), "%d calls", n)
		m.set("clinic.ms_per_vaccine", ratio(ms(d), float64(c.clinicTested)), "%d vaccines tested", c.clinicTested)
		m.set("clinic.alloc_kb_per_vaccine", ratio(float64(l.allocs("clinic.run"))/1024, float64(c.clinicTested)), "%d vaccines tested", c.clinicTested)
		m.set("clinic.pass_ratio", ratio(float64(c.clinicPassed), float64(c.clinicTested)), "%d passed / %d tested", c.clinicPassed, c.clinicTested)
	}
	m.set("vaccine.pack_ms", ms(pr.pack.wall), "%d vaccines from %d samples", pr.pack.vaccines, pr.samples)
	m.set("vaccine.pack_json_kb", float64(pr.pack.jsonBytes)/1024, "%d vaccines", pr.pack.vaccines)

	fleetMetrics(m, l, live)

	if s := live.loop; s != nil {
		m.set("stream.queue_wait_ms_p50", quantile(s.queueWaitMs, 0.5), "%d submissions", len(s.queueWaitMs))
		p90, err := tailQuantile(s.queueWaitMs, 0.9)
		if err != nil {
			p90 = quantile(s.queueWaitMs, 1)
		}
		m.set("stream.queue_wait_ms_p90", p90, "%d submissions%s", len(s.queueWaitMs), refused(err))
		m.set("stream.generator_late_ms_max", s.lateMaxMs, "")
		m.set("stream.backlog_at_end", float64(s.backlogAtEnd), "waiting at the last submission")
	}

	ops := float64(live.ops)
	m.set("runtime.alloc_mb_per_op", ratio(float64(live.rt.allocs)/(1<<20), ops), "%d ops, %.1f MB allocated", live.ops, float64(live.rt.allocs)/(1<<20))
	m.set("runtime.gc_cycles", float64(live.rt.gcCycles), "timed phase")
	m.set("runtime.gc_pause_ms", ms(live.rt.pause), "timed phase")
	m.set("runtime.gc_cpu_s", live.rt.gcCPU, "timed phase")

	m.set("trace.overhead_pct", 100*ratio(float64(pr.decWall-pr.undecWall), float64(pr.undecWall)), "%d samples, see below", pr.samples)
	return m
}

func refused(err error) string {
	if err != nil {
		return " (p90 refused, max shown: " + err.Error() + ")"
	}
	return ""
}

// fleetMetrics fills the fleet and deploy rows from transport, publish,
// relay and agent spans.
func fleetMetrics(m metricSet, l *spanLog, live liveStats) {
	pub := l.durations("fleet.publish", false, time.Microsecond)
	if len(pub) > 0 {
		m.set("fleet.publish_us_p50", quantile(pub, 0.5), "%d publishes", len(pub))
		p90, err := tailQuantile(pub, 0.9)
		if err != nil {
			p90 = quantile(pub, 1)
		}
		m.set("fleet.publish_us_p90", p90, "%d publishes%s", len(pub), refused(err))
	}
	var delta, checkin []float64
	for _, tier := range []string{"origin", "relay"} {
		delta = append(delta, l.durations("fleet."+tier+".packs.delta", false, time.Microsecond)...)
		checkin = append(checkin, l.durations("fleet."+tier+".checkin", false, time.Microsecond)...)
	}
	if len(delta) > 0 {
		m.set("fleet.server_delta_us", quantile(delta, 0.5), "p50 of %d immediate 200s", len(delta))
	}
	if len(checkin) > 0 {
		m.set("fleet.server_checkin_us", quantile(checkin, 0.5), "p50 of %d checkins", len(checkin))
	}
	if wake := wakeLatencies(l, live.pubs); len(wake) > 0 {
		m.set("fleet.longpoll_wake_ms_p50", quantile(wake, 0.5), "p50 of %d woken long-polls", len(wake))
	}
	var reqs, packs, notMod, bytes uint64
	for _, c := range []*wireCounts{live.origin, live.relay} {
		if c != nil {
			reqs += c.requests.Load()
			packs += c.packs.Load()
			notMod += c.notModified.Load()
			bytes += c.bytes.Load()
		}
	}
	inst := float64(live.installs)
	m.set("fleet.requests_per_install", ratio(float64(reqs), inst), "%d requests / %d installs", reqs, live.installs)
	m.set("fleet.not_modified_ratio", ratio(float64(notMod), float64(packs)), "%d 304s / %d pack requests", notMod, packs)
	m.set("fleet.wire_bytes_per_install", ratio(float64(bytes), inst), "%d bytes / %d installs", bytes, live.installs)
	if live.relay != nil {
		self := l.durations("fleet.relay.sync", true, time.Microsecond)
		m.set("fleet.relay_sync_us", quantile(self, 0.5), "p50 self time of %d Relay.SyncOnce", len(self))
		m.set("fleet.origin_requests_per_wave", ratio(float64(live.origin.requests.Load()), float64(live.waves)),
			"%d origin requests / %d waves", live.origin.requests.Load(), live.waves)
	}
	self := append(l.durations("fleet.agent.sync", true, time.Microsecond), l.durations("fleet.agent.cold_sync", true, time.Microsecond)...)
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	m.set("fleet.agent_self_us_per_vaccine", ratio(sum, float64(live.agents.applied)), "%d SyncOnce, %d vaccines applied", len(self), live.agents.applied)
	if cold := l.durations("fleet.agent.cold_sync", true, time.Millisecond); len(cold) > 0 {
		m.set("fleet.cold_sync_ms", quantile(cold, 0.5), "p50 self time of %d cold since=0 syncs", len(cold))
	}
	m.set("fleet.agent_retries", float64(live.agents.retries), "%d sync errors", live.agents.syncErrors)
	m.set("fleet.agent_decode_errors", float64(live.agents.decodeErrors), "")
	m.set("deploy.install_failed", float64(live.agents.installFailed), "of %d applied", live.agents.applied)
}

// wakeLatencies charges every woken agent long-poll (a parked request
// at the origin or a relay that returned a delta) to the publish that
// woke it — in the registry live when the request started, the first
// publish past the request's cursor — and returns handler return minus
// Publish return, in ms. Relay-served agents therefore include the
// relay hop.
func wakeLatencies(l *spanLog, cycles []pubCycle) []float64 {
	sorted := make([][]pubMark, len(cycles))
	for c := range cycles {
		sorted[c] = append([]pubMark(nil), cycles[c].marks...)
		sort.Slice(sorted[c], func(i, j int) bool { return sorted[c][i].version < sorted[c][j].version })
	}
	var out []float64
	for _, tier := range []string{"origin", "relay"} {
		for _, i := range l.byName["fleet."+tier+".packs.woken"] {
			s := l.spans[i]
			if s.parent != noSpan && l.names[l.spans[s.parent].name] == "fleet.relay.sync" {
				continue // a relay's upstream fetch, not an agent's
			}
			c := sort.Search(len(cycles), func(c int) bool { return cycles[c].start > s.start }) - 1
			if c < 0 {
				continue
			}
			marks := sorted[c]
			k := sort.Search(len(marks), func(k int) bool { return marks[k].version > s.id })
			if k == len(marks) {
				continue
			}
			out = append(out, float64(s.end-marks[k].at)/float64(time.Millisecond))
		}
	}
	return out
}

// convergenceCheck verifies that every host holds every published ID
// and returns the (vaccine, host) pairs missing.
func convergenceCheck(hosts []*host, ids []string) (missing int, missingIDs map[string]bool) {
	missingIDs = make(map[string]bool)
	for _, h := range hosts {
		d := h.agent.Daemon()
		for _, id := range ids {
			if !d.Has(id) {
				missing++
				missingIDs[id] = true
			}
		}
	}
	return missing, missingIDs
}

// registryCheck verifies the registry serves exactly what was
// published: its Delta(0) ETag must equal the published pack's digest.
func registryCheck(ck *checks, reg *fleet.Registry, digest string) {
	d := reg.Delta(0)
	ck.expect(d.ETag == digest, "registry Delta(0) ETag %.12s differs from the published digest %.12s", d.ETag, digest)
}

// checkAgents adds the agents' failure counters to the checks.
func checkAgents(ck *checks, t agentTotals) {
	ck.expect(t.syncErrors == 0, "agents: %d SyncOnce errors", t.syncErrors)
	ck.expect(t.decodeErrors == 0, "agents: %d decode errors", t.decodeErrors)
	ck.expect(t.installFailed == 0, "agents: %d daemon install failures", t.installFailed)
}
