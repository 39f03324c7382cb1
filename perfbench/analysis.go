package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"autovac/internal/clinic"
	"autovac/internal/core"
	"autovac/internal/malware"
	"autovac/internal/static"
	"autovac/internal/vaccine"
)

// packGenerator labels every pack and registry the benchmark builds, so
// a registry's Delta(0) ETag is comparable with a pack's Digest.
const packGenerator = "autovac-go/1.0"

// analysisPath is how one workload analyses samples: a pipeline with
// the clinic off, the benign suite, and whether the clinic and the
// static passes (Phase-0 triage, pre-filter) are on the workload's path.
type analysisPath struct {
	p      *core.Pipeline
	benign []*malware.Sample
	clinic bool
	static bool
}

// offPathClinicSamples is how many of the probe's samples with vaccines
// a traced run sends through clinic.Run on a workload whose path has
// the clinic off, so the clinic layer has a measured number on every
// workload.
const offPathClinicSamples = 4

// corpusOptions returns the AnalyzeCorpus options of the path.
func (a analysisPath) corpusOptions(workers int) core.CorpusOptions {
	return core.CorpusOptions{Workers: workers, StaticTriage: a.static, StaticPrefilter: a.static}
}

// layerCounts counts the work each analysis layer did in a decomposed
// run, for the ratios of the layer summary.
type layerCounts struct {
	samples, triaged, prefiltered                     int
	phase1, candidates                                int
	phase2, vaccines                                  int
	rejectedExcl, rejectedImpact, rejectedDeterminism int
	clinicCalls, clinicTested, clinicPassed           int
	// offPath is the time spent in static passes that are not on the
	// workload's path, kept out of the tracing overhead.
	offPath time.Duration
}

// decompose analyses samples one at a time through the public calls the
// pipeline makes internally — SurfaceResourceFree, MayHaveCandidates,
// Phase1, Phase2 with the clinic off, then clinic.Run — recording one
// span per call under a per-sample root span. Running serially, with
// nothing else in the process working, lets each call's heap allocation
// delta be attributed to it. The results must equal the pipeline's own.
//
// A traced run also times the static passes where they are off the
// workload's path; there they skip nothing and count what they would
// have skipped.
func (a analysisPath) decompose(rec *recorder, samples []*malware.Sample) ([]*core.Result, layerCounts, error) {
	var c layerCounts
	results := make([]*core.Result, len(samples))
	for i, s := range samples {
		id := uint64(i)
		root := rec.begin("analysis.sample", id, noSpan)
		res, err := a.decomposeOne(rec, s, id, root, &c)
		rec.end(root)
		if err != nil {
			return nil, c, fmt.Errorf("decomposed analysis of %s: %w", s.Name(), err)
		}
		results[i] = res
		c.samples++
	}
	return results, c, nil
}

// call runs fn inside a span with its heap allocation attributed.
func call(rec *recorder, name string, id uint64, parent spanID, fn func()) {
	if rec == nil {
		fn()
		return
	}
	sid := rec.begin(name, id, parent)
	before := heapAllocs()
	fn()
	rec.endAlloc(sid, heapAllocs()-before)
}

func (a analysisPath) decomposeOne(rec *recorder, s *malware.Sample, id uint64, root spanID, c *layerCounts) (*core.Result, error) {
	empty := &core.Result{Profile: &core.Profile{Sample: s}}
	reg := a.p.Registry()
	if a.static || rec != nil {
		t0 := time.Now()
		free := false
		call(rec, "static.triage", id, root, func() {
			free = staticVerdict(func() (bool, error) { return static.SurfaceResourceFree(s.Program, reg) })
		})
		if free {
			c.triaged++
			if a.static {
				return empty, nil
			}
		}
		may := true
		call(rec, "static.prefilter", id, root, func() {
			may = !staticVerdict(func() (bool, error) {
				m, err := static.MayHaveCandidates(s.Program, reg)
				return !m, err
			})
		})
		if !may && !free {
			c.prefiltered++
			if a.static {
				return empty, nil
			}
		}
		if !a.static {
			c.offPath += time.Since(t0)
		}
	}
	var prof *core.Profile
	var err error
	call(rec, "core.phase1", id, root, func() { prof, err = a.p.Phase1(s) })
	if err != nil {
		return nil, err
	}
	c.phase1++
	c.candidates += len(prof.Candidates)
	if !prof.HasVaccineCandidates() {
		return &core.Result{Profile: prof}, nil
	}
	var res *core.Result
	call(rec, "core.phase2", id, root, func() { res, err = a.p.Phase2(prof) })
	if err != nil {
		return nil, err
	}
	c.phase2++
	c.vaccines += len(res.Vaccines)
	for _, r := range res.Rejected {
		switch r.Stage {
		case "exclusiveness":
			c.rejectedExcl++
		case "impact":
			c.rejectedImpact++
		case "determinism":
			c.rejectedDeterminism++
		}
	}
	if !a.clinic || len(res.Vaccines) == 0 {
		return res, nil
	}
	rep, err := a.clinicRun(rec, res, id, root, c)
	if err != nil {
		return nil, err
	}
	res.Vaccines = rep.Passed
	res.ClinicRejections = rep.Rejected
	return res, nil
}

// clinicRun runs the clinic test on a Phase-II result with the
// configuration Phase-II itself would use.
func (a analysisPath) clinicRun(rec *recorder, res *core.Result, id uint64, parent spanID, c *layerCounts) (*clinic.Report, error) {
	var rep *clinic.Report
	var err error
	call(rec, "clinic.run", id, parent, func() {
		rep, err = clinic.Run(res.Vaccines, a.benign, clinic.Config{Seed: a.p.Seed(), Identity: a.p.Identity()})
	})
	if err != nil {
		return nil, err
	}
	c.clinicCalls++
	c.clinicTested += len(res.Vaccines)
	c.clinicPassed += len(rep.Passed)
	return rep, nil
}

// staticVerdict mirrors the pipeline's own guard around the static
// passes: an error or a panic answers "cannot skip".
func staticVerdict(fn func() (bool, error)) (skip bool) {
	defer func() {
		if recover() != nil {
			skip = false
		}
	}()
	ok, err := fn()
	return err == nil && ok
}

// undecomposed analyses samples serially through the pipeline's own
// entry point: AnalyzeCorpus with one worker where the workload uses
// it, SafeAnalyze on a clinic-enabled pipeline otherwise. It is the
// reference the decomposed run must match, and its wall time is the
// untraced side of the tracing-overhead measurement.
func (a analysisPath) undecomposed(clinicPipeline *core.Pipeline, samples []*malware.Sample) ([]*core.Result, error) {
	if clinicPipeline == nil {
		results, st, err := a.p.AnalyzeCorpus(context.Background(), samples, a.corpusOptions(1))
		if err != nil || st.Failed > 0 {
			return nil, fmt.Errorf("AnalyzeCorpus: %d failed: %v", st.Failed, err)
		}
		return results, nil
	}
	results := make([]*core.Result, len(samples))
	for i, s := range samples {
		res, err := clinicPipeline.SafeAnalyze(s)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// packOf collects every result's vaccines into one deduplicated pack,
// as a corpus run ships it.
func packOf(results []*core.Result) *vaccine.Pack {
	var vs []vaccine.Vaccine
	for _, r := range results {
		if r != nil {
			vs = append(vs, r.Vaccines...)
		}
	}
	return &vaccine.Pack{Generator: packGenerator, Vaccines: vaccine.Dedupe(vs)}
}

// packStats is what the traced pack step measured.
type packStats struct {
	wall      time.Duration
	jsonBytes int
	vaccines  int
}

// tracedPack builds the pack through the vaccine layer's public calls —
// Dedupe, Verify, Digest, WriteJSON — with one span each.
func tracedPack(rec *recorder, results []*core.Result) (*vaccine.Pack, string, packStats, error) {
	t0 := time.Now()
	root := rec.begin("vaccine.pack", 0, noSpan)
	defer rec.end(root)
	var vs []vaccine.Vaccine
	for _, r := range results {
		vs = append(vs, r.Vaccines...)
	}
	pack := &vaccine.Pack{Generator: packGenerator}
	call(rec, "vaccine.dedupe", 0, root, func() { pack.Vaccines = vaccine.Dedupe(vs) })
	var err error
	call(rec, "vaccine.verify", 0, root, func() { err = pack.Verify() })
	if err != nil {
		return nil, "", packStats{}, fmt.Errorf("Pack.Verify: %w", err)
	}
	var digest string
	call(rec, "vaccine.digest", 0, root, func() { digest = pack.Digest() })
	var buf bytes.Buffer
	call(rec, "vaccine.write_json", 0, root, func() { err = pack.WriteJSON(&buf) })
	if err != nil {
		return nil, "", packStats{}, err
	}
	return pack, digest, packStats{wall: time.Since(t0), jsonBytes: buf.Len(), vaccines: len(pack.Vaccines)}, nil
}

// probeReport is the outcome of the decomposition probe every workload
// runs during setup.
type probeReport struct {
	counts    layerCounts
	pack      packStats
	samples   int
	undecWall time.Duration // serial run through the pipeline's entry point
	decWall   time.Duration // serial decomposed run, traced when rec != nil
}

// probe analyses samples serially through the pipeline's own entry
// point, then decomposed into its public calls, then through the entry
// point again. Both packs must verify and carry the same digest. With a
// recorder the decomposed run is traced, and its wall time minus the
// mean of the two undecomposed runs (one before, one after, so neither
// side gains from running second) is the tracing overhead.
func (a analysisPath) probe(rec *recorder, clinicPipeline *core.Pipeline, samples []*malware.Sample, ck *checks) (probeReport, error) {
	rep := probeReport{samples: len(samples)}
	t0 := time.Now()
	ref, err := a.undecomposed(clinicPipeline, samples)
	if err != nil {
		return rep, err
	}
	before := time.Since(t0)
	refPack := packOf(ref)
	ck.expect(refPack.Verify() == nil, "probe: reference pack fails Pack.Verify")

	t1 := time.Now()
	dec, counts, err := a.decompose(rec, samples)
	if err != nil {
		return rep, err
	}
	rep.decWall = time.Since(t1) - counts.offPath
	if !a.clinic && rec != nil {
		// Off the path: time the clinic on a few results, outside the
		// decomposed run's wall time.
		n := 0
		for i, r := range dec {
			if n == offPathClinicSamples {
				break
			}
			if len(r.Vaccines) > 0 {
				if _, err := a.clinicRun(rec, r, uint64(i), noSpan, &counts); err != nil {
					return rep, err
				}
				n++
			}
		}
	}
	t2 := time.Now()
	if _, err := a.undecomposed(clinicPipeline, samples); err != nil {
		return rep, err
	}
	rep.undecWall = (before + time.Since(t2)) / 2
	rep.counts = counts
	_, digest, ps, err := tracedPack(rec, dec)
	if err != nil {
		ck.expect(false, "probe: decomposed pack: %v", err)
		return rep, nil
	}
	rep.pack = ps
	ck.expect(checkDigest(digest, refPack) == nil, "probe: decomposed pack digest differs from the %s path", a.entryPoint(clinicPipeline))
	return rep, nil
}

func (a analysisPath) entryPoint(clinicPipeline *core.Pipeline) string {
	if clinicPipeline != nil {
		return "SafeAnalyze"
	}
	return "AnalyzeCorpus"
}

// checkDigest reports whether pack digests to want.
func checkDigest(want string, pack *vaccine.Pack) error {
	if got := pack.Digest(); got != want {
		return fmt.Errorf("pack digest %.12s, want %.12s", got, want)
	}
	return nil
}
