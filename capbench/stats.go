package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder holds the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// failedTTR stands in for the time to result of a failed request: it
// counts as missing any latency limit, so it sorts above every real one.
var failedTTR = math.Inf(1)

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile is the highest ladder percentile that leaves at least ten
// samples beyond it; ok is false when even the median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// tailWindow is how many consecutive requests one tail sample covers.
const tailWindow = 1000

// windowTails splits a round's times to result, in request order, into
// windows of at most tailWindow (a shorter remainder joins the last one)
// and returns each window's tail: its highest percentile that leaves at
// least ten of the window's requests beyond it. Stalls on a shared host
// come in bursts, so the median window is a steadier tail than one
// percentile over everything, which the rule pushes into the rarest
// bursts.
func windowTails(ttr []float64) (tails []float64, p float64) {
	n := len(ttr)
	windows := max(1, n/tailWindow)
	for k := 0; k < windows; k++ {
		lo, hi := k*n/windows, (k+1)*n/windows
		win := sortedCopy(ttr[lo:hi])
		wp, _ := tailPercentile(len(win))
		p = wp
		tails = append(tails, percentile(win, wp))
	}
	return tails, p
}

// percentile is the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finite maps a failed sample to a large finite stand-in so it can be
// printed as JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat32
	}
	return x
}

// schedule is an open-loop arrival clock: request i is due at
// start + i/rate, whether or not earlier requests have finished.
type schedule struct {
	start time.Time
	rate  float64
}

// due is when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// lateness is how far behind its due time request i was actually sent;
// never negative.
func (s schedule) lateness(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
