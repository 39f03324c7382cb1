package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is the fewest observations that must rank beyond a reported
// tail percentile; with fewer, the percentile is a guess about the
// slowest handful and is refused.
const minTail = 10

var errThinTail = errors.New("too few observations beyond the percentile")

// rank returns the nearest-rank index of the q-quantile among n sorted
// observations.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// tailQuantile is quantile for a reported tail percentile: it refuses
// unless at least minTail observations rank strictly beyond it.
func tailQuantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || n-1-rank(n, q) < minTail {
		return 0, fmt.Errorf("p%g of %d observations: %w", q*100, n, errThinTail)
	}
	return quantile(xs, q), nil
}

// median returns the middle observation, averaging the two middle ones
// for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB
// (ru_maxrss, reported in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
