package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// checks collects correctness failures. Any failure makes the run
// incorrect.
type checks struct{ failures []string }

// expect records a failure when ok is false.
func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one reported number and, for the table on standard error,
// the base counts it was computed from.
type metric struct {
	value float64
	base  string
}

// e2eUnits lists the end-to-end metrics every workload reports, in
// order, with their units.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"cpu_ms_per_sample", "ms"},
	{"submit_to_installed_p50_ms", "ms"},
	{"submit_to_installed_p90_ms", "ms"},
	{"publish_to_installed_p50_ms", "ms"},
	{"publish_to_installed_p90_ms", "ms"},
	{"installs_per_s", "1/s"},
	{"cpu_us_per_install", "us"},
	{"peak_rss_mb", "MB"},
}

// layerUnits lists the per-layer metrics every traced run reports, in
// table order, with their units. A metric the run saw no observation
// for reports 0 and is marked in the table.
var layerUnits = []struct{ name, unit string }{
	{"static.triage_us", "us"},
	{"static.prefilter_us", "us"},
	{"static.skipped_ratio", "ratio"},
	{"core.phase1_ms", "ms"},
	{"core.phase1_alloc_kb", "KB"},
	{"core.candidates_per_sample", "count"},
	{"core.phase2_ms_per_candidate", "ms"},
	{"core.phase2_alloc_kb_per_candidate", "KB"},
	{"core.vaccine_yield", "ratio"},
	{"core.rejected_exclusiveness", "count"},
	{"core.rejected_impact", "count"},
	{"core.rejected_determinism", "count"},
	{"clinic.ms_per_call", "ms"},
	{"clinic.ms_per_vaccine", "ms"},
	{"clinic.alloc_kb_per_vaccine", "KB"},
	{"clinic.pass_ratio", "ratio"},
	{"vaccine.pack_ms", "ms"},
	{"vaccine.pack_json_kb", "KB"},
	{"fleet.publish_us_p50", "us"},
	{"fleet.publish_us_p90", "us"},
	{"fleet.server_delta_us", "us"},
	{"fleet.server_checkin_us", "us"},
	{"fleet.longpoll_wake_ms_p50", "ms"},
	{"fleet.requests_per_install", "count"},
	{"fleet.not_modified_ratio", "ratio"},
	{"fleet.wire_bytes_per_install", "bytes"},
	{"fleet.relay_sync_us", "us"},
	{"fleet.origin_requests_per_wave", "count"},
	{"fleet.agent_self_us_per_vaccine", "us"},
	{"fleet.cold_sync_ms", "ms"},
	{"fleet.agent_retries", "count"},
	{"fleet.agent_decode_errors", "count"},
	{"deploy.install_failed", "count"},
	{"stream.queue_wait_ms_p50", "ms"},
	{"stream.queue_wait_ms_p90", "ms"},
	{"stream.generator_late_ms_max", "ms"},
	{"stream.backlog_at_end", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.overhead_pct", "%"},
}

// metricSet holds measured values by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, base string, args ...any) {
	if len(args) > 0 {
		base = fmt.Sprintf(base, args...)
	}
	m[name] = metric{value: value, base: base}
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	checks            checks
	e2e               metricSet
	layers            metricSet // nil in an untraced run
	spans             *spanLog  // nil in an untraced run
	overhead          string    // tracing-overhead line of a traced run
	traced            bool
	openLoop          bool // throughputs follow the offered rate
}

func newOutcome(traced bool) *outcome { return &outcome{e2e: metricSet{}, traced: traced} }

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable summary to log and the result line to
// out: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one.
func (o *outcome) emit(out, log io.Writer, workload string) error {
	res := result{
		Correct:   len(o.checks.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, f := range o.checks.failures {
		fmt.Fprintln(log, "CHECK FAILED:", f)
	}
	fmt.Fprintf(log, "%s: %d operations attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	units := e2eUnits
	set := o.e2e
	if o.traced {
		units = layerUnits
		set = o.layers
	}
	for _, u := range units {
		m, ok := set[u.name]
		base := m.base
		if !ok {
			base = "no observations in this run"
		}
		res.Metrics[u.name] = jsonMetric{Value: m.value, Unit: u.unit}
		fmt.Fprintf(log, "  %-36s %14.4f %-6s %s\n", u.name, m.value, u.unit, base)
	}
	if o.traced {
		fmt.Fprintln(log, o.overhead)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// repeatSetup runs build n times, keeping the last environment and
// discarding the others, and returns the median set-up time in seconds.
// The last build is told it is final, so a traced run records spans
// only once.
func repeatSetup[T any](n int, build func(final bool) (T, error), discard func(T)) (T, float64, error) {
	var env T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e, err := build(i == n-1)
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			discard(e)
		}
		env = e
	}
	return env, median(times), nil
}
