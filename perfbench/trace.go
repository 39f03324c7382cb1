package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// spanID indexes a recorded span; noSpan marks "no parent" and is what
// a nil recorder hands out.
type spanID int32

const noSpan spanID = -1

// maxSpans caps the spans kept in memory. Beyond it spans are counted
// as dropped; the layer metrics then cover the kept prefix of the run.
const maxSpans = 1 << 21

// span is one timed call at a layer boundary. It holds no pointers, so
// a large span log costs the garbage collector nothing to scan.
type span struct {
	name   uint16
	parent spanID
	// id is the sample index, the wave number, or, for transport spans,
	// the sync cursor the request carried.
	id         uint64
	start, end int64 // nanoseconds since the recorder's epoch
	// alloc is the heap bytes allocated during the span, or -1 when the
	// span ran concurrently with other work and was not attributed.
	alloc int64
}

// recorder keeps spans in memory for the whole run. A nil *recorder is
// the untraced mode: every method is a no-op, so the traced and the
// untraced runs share one code path.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	names   []string
	index   map[string]uint16
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), index: make(map[string]uint16)}
}

// now returns nanoseconds since the recorder's epoch.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) nameID(name string) uint16 {
	id, ok := r.index[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = id
	}
	return id
}

// begin opens a span starting now.
func (r *recorder) begin(name string, id uint64, parent spanID) spanID {
	if r == nil {
		return noSpan
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return noSpan
	}
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, id: id, start: start, end: -1, alloc: -1})
	return spanID(len(r.spans) - 1)
}

// end closes a span now.
func (r *recorder) end(s spanID) { r.endAlloc(s, -1) }

// endAlloc closes a span now and attributes alloc heap bytes to it.
func (r *recorder) endAlloc(s spanID, alloc int64) {
	if r == nil || s == noSpan {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[s].end = end
	r.spans[s].alloc = alloc
	r.mu.Unlock()
}

// discard drops an open span: finish leaves it out, and its children
// become roots.
func (r *recorder) discard(s spanID) {
	if r == nil || s == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[s].end = -1
	r.mu.Unlock()
}

// add records an already-finished span.
func (r *recorder) add(name string, id uint64, parent spanID, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, span{name: r.nameID(name), parent: parent, id: id, start: start, end: end, alloc: -1})
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of the children cover:
// the children are clipped to the parent, and overlapping or nested
// children count once (the union of their intervals is subtracted).
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}

// selfTimes returns each span's self time, indexed like spans; a
// span's parent is its index in the same slice (noSpan for a root).
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]interval)
	for _, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = selfTime(interval{s.start, s.end}, children[spanID(i)])
	}
	return self
}

// spanLog is the finished trace: spans with their self times, grouped
// by name for the layer summary.
type spanLog struct {
	spans   []span
	names   []string
	self    []int64
	byName  map[string][]int
	dropped int
}

// finish collects the recorder's spans and computes self times.
func (r *recorder) finish() *spanLog {
	r.mu.Lock()
	all := r.spans
	names := append([]string(nil), r.names...)
	dropped := r.dropped
	r.mu.Unlock()
	byIndex := make(map[spanID]int)
	var spans []span
	for i, s := range all {
		if s.end >= 0 {
			byIndex[spanID(i)] = len(spans)
			spans = append(spans, s)
		}
	}
	// Re-point parents at positions in the finished slice.
	for i := range spans {
		if p, ok := byIndex[spans[i].parent]; ok {
			spans[i].parent = spanID(p)
		} else {
			spans[i].parent = noSpan
		}
	}
	l := &spanLog{spans: spans, names: names, byName: make(map[string][]int), dropped: dropped}
	l.self = selfTimes(spans)
	for i, s := range spans {
		n := names[s.name]
		l.byName[n] = append(l.byName[n], i)
	}
	return l
}

// durations returns the named spans' durations (self=false) or self
// times (self=true), in the given unit.
func (l *spanLog) durations(name string, self bool, unit time.Duration) []float64 {
	idx := l.byName[name]
	out := make([]float64, len(idx))
	for k, i := range idx {
		d := l.spans[i].end - l.spans[i].start
		if self {
			d = l.self[i]
		}
		out[k] = float64(d) / float64(unit)
	}
	return out
}

// total returns the summed duration of the named spans and their count.
func (l *spanLog) total(name string) (time.Duration, int) {
	var sum int64
	for _, i := range l.byName[name] {
		sum += l.spans[i].end - l.spans[i].start
	}
	return time.Duration(sum), len(l.byName[name])
}

// allocs returns the summed attributed heap bytes of the named spans.
func (l *spanLog) allocs(name string) int64 {
	var sum int64
	for _, i := range l.byName[name] {
		if a := l.spans[i].alloc; a > 0 {
			sum += a
		}
	}
	return sum
}

// write stores the spans as JSON lines, one span per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range l.spans {
		fmt.Fprintf(w, `{"span":%d,"parent":%d,"name":%q,"id":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d,"alloc_bytes":%d}`+"\n",
			i, s.parent, l.names[s.name], s.id, s.start, s.end, l.self[i], s.alloc)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapAllocs returns the cumulative bytes allocated on the heap. The
// runtime counts small objects per span refill, so a delta is exact to
// within a few KiB.
func heapAllocs() int64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return int64(s[0].Value.Uint64())
}

// runtimeStats is a snapshot of the Go runtime counters the layer
// summary reports.
type runtimeStats struct {
	allocs   int64
	gcCycles uint64
	gcCPU    float64
	pause    time.Duration
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return runtimeStats{
		allocs:   int64(s[0].Value.Uint64()),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		pause:    gs.PauseTotal,
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocs:   a.allocs - b.allocs,
		gcCycles: a.gcCycles - b.gcCycles,
		gcCPU:    a.gcCPU - b.gcCPU,
		pause:    a.pause - b.pause,
	}
}
