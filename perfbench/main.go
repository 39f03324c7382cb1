// Command perfbench measures AUTOVAC's path from a malware sample to a
// vaccine installed on end hosts, from outside the program: it drives
// the public entry points (core.Pipeline, static, clinic.Run,
// vaccine.Pack, fleet.Registry/Server/Relay/Agent, deploy.Daemon) on
// generated inputs and reports end-to-end metrics, or, in a traced run,
// per-layer metrics.
//
// Workloads (see README.md for the rationale and every metric's
// definition):
//
//	corpus   closed loop over batches, analysis-bound
//	stream   open loop at a fixed arrival rate, clinic-bound
//	rollout  closed loop over publish waves to 64 hosts, fleet-bound
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload corpus --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the human-readable summary
// goes to standard error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Every run repeats its set-up this many times and reports the median
// as setup_s; WAL temp dirs and span files live under workDir.
const (
	setups  = 3
	workDir = ".bench_build"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	log      io.Writer
}

// recorder returns a span recorder for a traced run, nil otherwise.
func (c runConfig) recorder() *recorder {
	if c.traced {
		return newRecorder()
	}
	return nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"corpus":  runCorpus,
	"stream":  runStream,
	"rollout": runRollout,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "corpus | stream | rollout")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload corpus|stream|rollout, --seconds > 0, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		log:      stderr,
	}
	fmt.Fprintf(stderr, "perfbench %s: seed %d, %v timed, traced=%v, GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, runtime.GOMAXPROCS(0))
	// An untraced run reports its end-to-end metrics at reference
	// machine speed, sampled from its start to the end of its timed
	// phase (calibrate.go).
	var cal *sampler
	if !cfg.traced {
		cal = startSampler()
	}
	o, err := fn(cfg)
	if cal != nil {
		sp, cerr := cal.finish()
		if err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintln(stderr, "calibration:", sp)
			o.e2e.normalize(sp, o.openLoop)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.spans != nil {
		path := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := o.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s (%d dropped)\n", len(o.spans.spans), path, o.spans.dropped)
	}
	if err := o.emit(stdout, stderr, cfg.workload); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// window is one slice of a timed phase: a corpus batch, a run of
// rollout waves, or a whole stream run. Throughput and CPU metrics are
// medians over windows, so a transient slowdown of the shared machine
// moves them less than a whole-run ratio.
type window struct {
	samples, installs int
	wall, cpu         time.Duration
}

// e2eInputs are the raw measurements every workload reduces to the
// end-to-end metrics.
type e2eInputs struct {
	windows         []window
	submit, publish []float64 // per-observation latencies, ms
}

// setE2E fills the ten end-to-end metrics of an untraced run. A tail
// percentile without enough observations beyond it fails the run rather
// than print a guess.
func setE2E(o *outcome, setup float64, in e2eInputs) error {
	if o.traced {
		return nil
	}
	var samples, installs int
	var perSec, cpuPerSample, installsPerSec, cpuPerInstall []float64
	for _, w := range in.windows {
		if w.samples == 0 || w.installs == 0 {
			continue
		}
		samples += w.samples
		installs += w.installs
		perSec = append(perSec, float64(w.samples)/w.wall.Seconds())
		cpuPerSample = append(cpuPerSample, ms(w.cpu)/float64(w.samples))
		installsPerSec = append(installsPerSec, float64(w.installs)/w.wall.Seconds())
		cpuPerInstall = append(cpuPerInstall, us(w.cpu)/float64(w.installs))
	}
	if len(perSec) == 0 {
		return errors.New("timed phase completed no samples or no installs")
	}
	n := len(perSec)
	m := o.e2e
	m.set("setup_s", setup, "median of set-ups")
	m.set("samples_per_s", median(perSec), "median of %d windows, %d samples", n, samples)
	m.set("cpu_ms_per_sample", median(cpuPerSample), "median of %d windows, middle half %.4g-%.4g", n, quantile(cpuPerSample, 0.25), quantile(cpuPerSample, 0.75))
	for _, lat := range []struct {
		name string
		xs   []float64
	}{{"submit_to_installed", in.submit}, {"publish_to_installed", in.publish}} {
		p90, err := tailQuantile(lat.xs, 0.9)
		if err != nil {
			return fmt.Errorf("%s: %w", lat.name, err)
		}
		m.set(lat.name+"_p50_ms", quantile(lat.xs, 0.5), "n=%d", len(lat.xs))
		m.set(lat.name+"_p90_ms", p90, "n=%d, p80 %.4g, p95 %.4g", len(lat.xs), quantile(lat.xs, 0.8), quantile(lat.xs, 0.95))
	}
	m.set("installs_per_s", median(installsPerSec), "median of %d windows, %d (vaccine, host) installs", n, installs)
	m.set("cpu_us_per_install", median(cpuPerInstall), "median of %d windows", n)
	m.set("peak_rss_mb", peakRSSMB(), "ru_maxrss")
	return nil
}

// overheadLine describes the tracing overhead measured by the probe.
func overheadLine(pr probeReport) string {
	over := pr.decWall - pr.undecWall
	return fmt.Sprintf("tracing overhead: %v (%.1f%%): traced decomposed analysis %v vs untraced %v, %d samples serially",
		over.Round(time.Microsecond), 100*ratio(float64(over), float64(pr.undecWall)),
		pr.decWall.Round(time.Millisecond), pr.undecWall.Round(time.Millisecond), pr.samples)
}
