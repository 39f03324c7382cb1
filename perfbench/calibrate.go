package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Calibration. The benchmark runs on shared machines whose speed drifts
// by tens of percent within minutes while nothing in the run changes:
// the process CPU time of the same deterministic work moves with it.
// Every untraced run therefore samples the machine's speed throughout,
// with a fixed reference kernel that has nothing to do with the
// program, and reports its time-based end-to-end metrics at reference
// speed: a metric measured while the kernel ran 20% slower than its
// reference time is reported 20% faster. The raw values and the factor
// go to the table on standard error.
//
// The kernel is a small register machine interpreting a fixed program
// over a 256 KiB table (branchy integer code with loads and stores, like
// the emulator) followed by a sort. It allocates nothing, so it does not
// depend on the program's heap or garbage collector. A sampler goroutine
// locked to its own OS thread runs one slice every calEvery and times it
// by that thread's CPU clock, which counts only the time the thread ran:
// the workload competing for the CPUs delays a slice but does not
// lengthen it, while a slower machine does.
const (
	calEvery      = 200 * time.Millisecond
	calSteps      = 100_000 // machine steps per slice
	calTableWords = 1 << 15 // 256 KiB
	calSortLen    = 1 << 10
	calMinSlices  = 8

	// Thread CPU time of one slice on the 2-vCPU VM the bounds were
	// tuned on, in a calm stretch.
	calRefMs = 1.55
)

// calKernel is the kernel's preallocated state.
type calKernel struct {
	table   []uint64
	src     []uint32
	scratch []uint32
	sink    uint64
}

func newCalKernel() *calKernel {
	k := &calKernel{
		table:   make([]uint64, calTableWords),
		src:     make([]uint32, calSortLen),
		scratch: make([]uint32, calSortLen),
	}
	x := uint64(0x2545f4914f6cdd1d)
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[i] = x
	}
	for i := range k.src {
		k.src[i] = uint32(k.table[i*61%calTableWords])
	}
	return k
}

// slice runs the register machine for calSteps steps, then sorts a copy
// of a fixed array.
func (k *calKernel) slice() {
	const mask = calTableWords - 1
	var r [8]uint64
	r[0], r[1] = 0x9e3779b97f4a7c15, 1
	t := k.table
	pc := 0
	for step := 0; step < calSteps; step++ {
		op := (r[0] >> 59) ^ uint64(pc)
		switch op & 7 {
		case 0:
			r[1] += r[0] ^ t[r[2]&mask]
		case 1:
			r[2] = r[2]*0x5851f42d4c957f2d + r[1]
		case 2:
			t[r[3]&mask] ^= r[1]
		case 3:
			r[3] = r[3]<<7 | r[3]>>57 ^ r[2]
		case 4:
			if r[1]&1 == 0 {
				r[4] += t[(r[1]>>11)&mask]
			} else {
				r[5] -= r[4]
			}
		case 5:
			r[0] ^= r[5] + r[4]
		case 6:
			r[6] = r[6] ^ r[0]>>3
		default:
			r[7] += r[6] * r[3]
		}
		r[0] = r[0]*6364136223846793005 + 1442695040888963407
		pc = (pc + 1) & 7
	}
	copy(k.scratch, k.src)
	slices.Sort(k.scratch)
	k.sink += r[0] + r[1] + r[7] + uint64(k.scratch[calSortLen/2])
}

// threadCPU returns the calling OS thread's CPU time
// (clock_gettime(CLOCK_THREAD_CPUTIME_ID)).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sampler times kernel slices in the background until stopped.
type sampler struct {
	stop chan struct{}
	done chan []float64 // ms of thread CPU per slice
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newCalKernel()
		k.slice() // fault the table in, untimed
		var times []float64
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- times
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			k.slice()
			times = append(times, ms(threadCPU()-t0))
		}
	}()
	return s
}

// finish stops the sampler and returns the machine's speed over its
// life.
func (s *sampler) finish() (speed, error) {
	close(s.stop)
	times := <-s.done
	if len(times) < calMinSlices {
		return speed{}, fmt.Errorf("calibration: %d kernel slices, need %d", len(times), calMinSlices)
	}
	return speed{factor: median(times) / calRefMs, slices: len(times)}, nil
}

// speed is a calibration: how much longer than its reference the
// kernel took; 1 is reference speed.
type speed struct {
	factor float64
	slices int
}

func (s speed) String() string {
	return fmt.Sprintf("kernel took %.3fx its reference CPU time (median of %d slices)", s.factor, s.slices)
}

// normalize rescales the time-based end-to-end metrics to reference
// speed, keeping each raw value in its base text: times and CPU costs
// shrink by the factor, throughputs grow by it, and peak_rss_mb stays.
// An open loop's throughputs are set by its offered rate, not by the
// machine's speed, and stay as measured too.
func (m metricSet) normalize(s speed, openLoop bool) {
	for name, v := range m {
		f := 1 / s.factor
		switch {
		case name == "peak_rss_mb":
			continue
		case strings.HasSuffix(name, "_per_s"):
			if openLoop {
				continue
			}
			f = s.factor
		}
		m[name] = metric{value: v.value * f, base: fmt.Sprintf("raw %.4f x %.3f; %s", v.value, f, v.base)}
	}
}
