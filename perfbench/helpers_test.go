package main

import (
	"errors"
	"testing"
	"time"

	"autovac/internal/core"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

func TestTailQuantileRefusesThinTail(t *testing.T) {
	obs := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, n := range []int{0, 1, 50, 99} {
		if _, err := tailQuantile(obs(n), 0.9); !errors.Is(err, errThinTail) {
			t.Errorf("p90 of %d observations: err = %v, want errThinTail", n, err)
		}
	}
	got, err := tailQuantile(obs(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 observations beyond", got, err)
	}
	if got := quantile(obs(100), 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlapping: cover 10..40
		{50, 60}, {55, 58}, // nested: cover 50..60
		{90, 120}, // runs past the parent: clipped to 90..100
		{-5, 2},   // starts before the parent: clipped to 0..2
	}
	if got, want := selfTime(parent, children), int64(100-30-10-10-2); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	// In a tree, only direct children count against a span: the
	// grandchild's time is already inside its parent's.
	spans := []span{
		{parent: noSpan, start: 0, end: 100},
		{parent: 0, start: 10, end: 50},
		{parent: 1, start: 20, end: 30},
		{parent: 0, start: 40, end: 60},
	}
	self := selfTimes(spans)
	for i, want := range []int64{100 - 50, 40 - 10, 10, 20} {
		if self[i] != want {
			t.Errorf("span %d self = %d, want %d", i, self[i], want)
		}
	}
}

// simulateQueue runs n arrivals every interval through servers FIFO
// workers that each take service per sample, and returns what the
// stream generator would have recorded.
func simulateQueue(n, servers int, interval, service time.Duration) ([]streamTiming, int) {
	base := time.Unix(0, 0)
	free := make([]time.Time, servers)
	for i := range free {
		free[i] = base
	}
	items := make([]streamTiming, n)
	for i := range items {
		due := base.Add(time.Duration(i) * interval)
		k := 0
		for j := range free {
			if free[j].Before(free[k]) {
				k = j
			}
		}
		start := due
		if free[k].After(start) {
			start = free[k]
		}
		free[k] = start.Add(service)
		items[i] = streamTiming{due: due, start: start}
	}
	last := items[n-1].due
	waiting := 0
	for _, it := range items[:n-1] {
		if it.start.After(last) {
			waiting++
		}
	}
	return items, waiting
}

func TestDetectBacklog(t *testing.T) {
	// Two workers, 30 ms per sample: capacity is about 66 samples/s.
	items, waiting := simulateQueue(240, 2, 40*time.Millisecond, 30*time.Millisecond)
	if why := detectBacklog(items, 2*time.Millisecond, waiting); why != "" {
		t.Errorf("25 samples/s under a 66/s capacity flagged: %s", why)
	}
	items, waiting = simulateQueue(240, 2, 10*time.Millisecond, 30*time.Millisecond)
	if why := detectBacklog(items, 2*time.Millisecond, waiting); why == "" {
		t.Errorf("100 samples/s over a 66/s capacity not flagged (%d waiting at the last arrival)", waiting)
	}
	if why := detectBacklog(nil, streamLateLimit+time.Millisecond, 0); why == "" {
		t.Error("a generator running late was not flagged")
	}
}

func TestDigestCheckCatchesMutatedIdentifier(t *testing.T) {
	s, err := malware.NewGenerator(7).FamilySample(malware.Zeus)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New(core.Config{Seed: 7}).Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vaccines) == 0 {
		t.Fatal("family sample produced no vaccines")
	}
	pack := packOf([]*core.Result{res})
	want := pack.Digest()
	if err := checkDigest(want, pack); err != nil {
		t.Fatalf("unmodified pack: %v", err)
	}
	mutated := &vaccine.Pack{Generator: pack.Generator, Vaccines: append([]vaccine.Vaccine(nil), pack.Vaccines...)}
	mutated.Vaccines[0].Identifier += "-x"
	if err := checkDigest(want, mutated); err == nil {
		t.Error("digest check passed a pack with one vaccine's identifier mutated")
	}
}

func TestNormalizeToReferenceSpeed(t *testing.T) {
	measured := func() metricSet {
		m := metricSet{}
		m.set("samples_per_s", 100, "")
		m.set("cpu_ms_per_sample", 3, "")
		m.set("submit_to_installed_p90_ms", 10, "")
		m.set("peak_rss_mb", 50, "")
		return m
	}
	// The kernel took twice its reference time: the machine was slow.
	slow := speed{factor: 2}
	m := measured()
	m.normalize(slow, false)
	for name, want := range map[string]float64{
		"samples_per_s": 200, "cpu_ms_per_sample": 1.5, "submit_to_installed_p90_ms": 5, "peak_rss_mb": 50,
	} {
		if got := m[name].value; got != want {
			t.Errorf("closed loop: %s = %v, want %v", name, got, want)
		}
	}
	m = measured()
	m.normalize(slow, true)
	if got := m["samples_per_s"].value; got != 100 {
		t.Errorf("open loop: samples_per_s = %v, want the offered 100", got)
	}
	if got := m["submit_to_installed_p90_ms"].value; got != 5 {
		t.Errorf("open loop: submit_to_installed_p90_ms = %v, want 5", got)
	}
}
