// Package telemetry is the observability layer of the reproduction: it
// provides lock-free latency histograms, a counter registry with
// expvar-style JSON snapshots, per-application counter rows, and the
// event vocabulary of the span recorder (telemetry/span). The kernel,
// the LibFS, the verifier, and the simulated device all publish through
// it, and the benchmark harness consumes it to attach latency percentiles
// and per-operation counter deltas to every measurement cell.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucketing: values below histSubCount get exact unit buckets;
// above that, each power-of-two range is split into histSubCount
// log-linear sub-buckets, bounding the relative error of any recorded
// value by 1/histSubCount (~3%). This is the HDR-histogram scheme with a
// 5-bit significand.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	// Highest index is reached at v = MaxInt64: exponent 62, shift 57.
	histBucketCount = 57*histSubCount + histSubCount*2
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := exp - histSubBits
	return shift*histSubCount + int(v>>uint(shift))
}

// BucketBounds returns the inclusive value range [low, high] that bucket
// i covers (exported for the boundary tests).
func BucketBounds(i int) (low, high int64) {
	if i < histSubCount {
		return int64(i), int64(i)
	}
	shift := i/histSubCount - 1
	m := int64(i - shift*histSubCount)
	low = m << uint(shift)
	return low, low + 1<<uint(shift) - 1
}

// Histogram is a log-bucketed latency histogram. Recording is a single
// atomic add per value (plus max/min maintenance), so it is safe for
// concurrent use and cheap enough for per-operation recording;
// histograms from different threads merge losslessly.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	// min stores -(value+1) so that 0 means "empty" and larger stored
	// values mean smaller observations.
	min     atomic.Int64
	buckets [histBucketCount]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation (negative values clamp to zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	e := -(v + 1)
	for {
		m := h.min.Load()
		if m != 0 && e <= m {
			break
		}
		if h.min.CompareAndSwap(m, e) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	m := h.min.Load()
	if m == 0 {
		return 0
	}
	return -m - 1
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) that is
// within one bucket width (≤ ~3% relative error) of the exact order
// statistic. Quantile(0.5) is the median; Quantile(1) equals Max.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBucketCount; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			_, high := BucketBounds(i)
			if m := h.max.Load(); high > m {
				// The bucket's upper bound can exceed the largest value
				// actually seen; never report beyond it.
				high = m
			}
			return high
		}
	}
	return h.max.Load()
}

// Merge adds other's observations into h. Concurrent recorders on either
// histogram are tolerated; the merge is atomic per bucket.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < histBucketCount; i++ {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	if other.count.Load() == 0 {
		return
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		m, o := h.max.Load(), other.max.Load()
		if o <= m || h.max.CompareAndSwap(m, o) {
			break
		}
	}
	if e := other.min.Load(); e != 0 {
		for {
			m := h.min.Load()
			if m != 0 && e <= m {
				break
			}
			if h.min.CompareAndSwap(m, e) {
				break
			}
		}
	}
}

// LatencySummary is the JSON shape of a histogram: nanosecond
// percentiles plus count and mean.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P90NS  int64   `json:"p90_ns"`
	P99NS  int64   `json:"p99_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Summary snapshots the histogram's headline statistics.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNS: h.Mean(),
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		MaxNS:  h.Max(),
	}
}
