package obs

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a lock-free fixed-bucket histogram with Prometheus "le"
// semantics: an observation lands in the first bucket whose upper bound is
// >= the value, or in the implicit +Inf overflow bucket past the last
// bound. Observe is safe for concurrent use and never allocates; a nil
// *Histogram drops observations, which is the "metrics off" fast path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64   // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given strictly increasing,
// finite upper bounds (exclusive of the implicit +Inf bucket).
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, errors.New("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("obs: histogram bound %v is not finite", b)
		}
		if i > 0 && b <= own[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %v", b)
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Uint64, len(own)+1)}, nil
}

// MustHistogram is NewHistogram, panicking on invalid bounds (for
// package-level defaults built from known-good literals).
func MustHistogram(bounds ...float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// LatencyBuckets returns bounds (seconds) suited to microsecond-scale
// decision latencies: 100ns up to 100ms in a 1-2.5-5 ladder.
func LatencyBuckets() []float64 {
	return []float64{
		1e-7, 2.5e-7, 5e-7,
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 1e-2, 1e-1,
	}
}

// WallBuckets returns bounds (seconds) suited to job wall-clock and
// queue-wait times: 1ms up to 10 minutes.
func WallBuckets() []float64 {
	return []float64{
		0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 300, 600,
	}
}

// Observe records one sample. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.counts[bucketIndex(h.bounds, v)].Add(1)
	h.addSum(v)
}

// Merge adds a batch of observations collected elsewhere: counts holds
// per-bucket counts over the histogram's own bounds (len(Bounds())+1
// elements, the last the +Inf overflow) and sum their total. It is the
// bulk sibling of Observe for writers that accumulate locally, without
// atomics, and merge now and then: one atomic add per non-empty bucket and
// one sum update per batch, instead of one of each per observation. Safe
// for concurrent use; a nil histogram drops the batch. Counts of another
// length come from other bounds, a caller's bug, and panic.
func (h *Histogram) Merge(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: merging %d bucket counts into a histogram of %d", len(counts), len(h.counts)))
	}
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.addSum(sum)
}

// addSum adds v to the running sum.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucketIndex returns the bucket v falls in under ascending upper bounds
// with "le" semantics: the first bound >= v, or len(bounds) (the +Inf
// overflow) past the last. It is sort.SearchFloat64s without the closure
// call per probe, for the per-step observation paths.
func bucketIndex(bounds []float64, v float64) int {
	i, j := 0, len(bounds)
	for i < j {
		if m := int(uint(i+j) >> 1); bounds[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Sum returns the accumulated total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Bounds returns the histogram's finite bucket bounds. The slice is the
// histogram's own storage and must not be mutated; bounds are fixed at
// construction, so callers may cache it.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// ReadInto copies the per-bucket counts into dst — which must have
// len(Bounds())+1 elements, the last being the +Inf overflow — and
// returns the sum and total count, all without allocating. It is the
// zero-alloc sibling of Snapshot for samplers that own their scratch
// (the tsdb sample path). Count is derived from the bucket counts read
// in one pass, like Snapshot. A nil histogram reports zeros and leaves
// dst untouched.
func (h *Histogram) ReadInto(dst []uint64) (sum float64, count uint64) {
	if h == nil {
		return 0, 0
	}
	_ = dst[len(h.counts)-1] // bounds check once
	for i := range h.counts {
		c := h.counts[i].Load()
		dst[i] = c
		count += c
	}
	return h.Sum(), count
}

// Snapshot captures the histogram's state. Count is derived from the
// bucket counts read in one pass, so Count always equals the +Inf
// cumulative count even while writers race; Sum may trail by in-flight
// observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.Sum()
	return s
}

// HistogramSnapshot is an immutable point-in-time copy of a Histogram,
// embeddable in results and JSON payloads. Counts are per-bucket (not
// cumulative); Counts[len(Bounds)] is the +Inf overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Cumulative returns the Prometheus-style running bucket totals; the last
// element (the +Inf bucket) equals Count.
func (s HistogramSnapshot) Cumulative() []uint64 {
	out := make([]uint64, len(s.Counts))
	var run uint64
	for i, c := range s.Counts {
		run += c
		out[i] = run
	}
	return out
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank, the same estimate
// Prometheus's histogram_quantile computes. Quantiles whose rank lands in
// the +Inf overflow bucket return the last finite bound (clamped), never
// +Inf — again matching the histogram_quantile convention, which cannot
// interpolate inside an unbounded bucket. Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var run uint64
	for i, c := range s.Counts {
		prev := run
		run += c
		if float64(run) < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: clamp
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
