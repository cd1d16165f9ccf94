// Package stats provides the distribution machinery behind the paper's
// analyzers: fixed-width binned histograms over an [min,max,step] analysis
// period (with explicit underflow/overflow bins), the cumulative views used
// by the paper's three distribution operators, quantile extraction, running
// summaries, and the (threshold × window) percentile surfaces plotted in
// Figures 8 and 9.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram bins samples into fixed-width bins over [Min, Max] plus an
// underflow bin (-inf, Min] ... the paper's analysis period notation
// <min, max, step> divides the interval into bins of width step, and values
// outside the interval land in (-inf, min] and (max, +inf) bins. Bin k for
// k in [1, n] covers (Min+(k-1)*Step, Min+k*Step]; bin 0 is underflow and
// bin n+1 is overflow.
type Histogram struct {
	Min, Max, Step float64
	counts         []uint64
	total          uint64
	nan            uint64
	sum            float64
	sumSq          float64
	lo, hi         float64
}

// NewHistogram builds a histogram for the analysis period <min, max, step>.
// It returns PeriodBins' error when the period is malformed rather than
// panicking, because periods frequently come from user-written LOC formulas.
func NewHistogram(min, max, step float64) (*Histogram, error) {
	n, err := PeriodBins(min, max, step)
	if err != nil {
		return nil, err
	}
	return &Histogram{
		Min: min, Max: max, Step: step,
		counts: make([]uint64, n+2),
		lo:     math.Inf(1), hi: math.Inf(-1),
	}, nil
}

// PeriodBins validates the analysis period <min, max, step> and returns its
// interior bin count. A period is malformed when it holds a NaN, its step is
// not positive, max is not above min, or it yields more than 1<<22 bins.
func PeriodBins(min, max, step float64) (int, error) {
	if math.IsNaN(min) || math.IsNaN(max) || math.IsNaN(step) {
		return 0, fmt.Errorf("stats: NaN in analysis period <%v, %v, %v>", min, max, step)
	}
	if step <= 0 {
		return 0, fmt.Errorf("stats: non-positive step %v", step)
	}
	if max <= min {
		return 0, fmt.Errorf("stats: max %v not greater than min %v", max, min)
	}
	nf := math.Ceil((max - min) / step * (1 - 1e-12))
	if nf > 1<<22 {
		return 0, fmt.Errorf("stats: analysis period <%v, %v, %v> yields %.0f bins, too many", min, max, step, nf)
	}
	return int(math.Max(nf, 1)), nil
}

// MustHistogram is NewHistogram for statically known-good periods.
func MustHistogram(min, max, step float64) *Histogram {
	h, err := NewHistogram(min, max, step)
	if err != nil {
		panic(err)
	}
	return h
}

// NumBins reports the number of interior bins (excluding under/overflow).
func (h *Histogram) NumBins() int { return len(h.counts) - 2 }

// Add records one sample. NaN samples are counted separately and excluded
// from every distribution view (they arise from 0/0 in ratio formulas over
// degenerate windows).
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		h.nan++
		return
	}
	h.total++
	h.sum += v
	h.sumSq += v * v
	if v < h.lo {
		h.lo = v
	}
	if v > h.hi {
		h.hi = v
	}
	h.counts[h.binFor(v)]++
}

func (h *Histogram) binFor(v float64) int {
	if v <= h.Min {
		return 0
	}
	if v > h.Max {
		return len(h.counts) - 1
	}
	k := int(math.Ceil((v - h.Min) / h.Step))
	if k < 1 {
		k = 1
	}
	if k > h.NumBins() {
		k = h.NumBins()
	}
	return k
}

// Count returns the raw count in bin k (0 = underflow, NumBins()+1 = overflow).
func (h *Histogram) Count(k int) uint64 { return h.counts[k] }

// Total returns the number of non-NaN samples.
func (h *Histogram) Total() uint64 { return h.total }

// NaNs returns the number of NaN samples that were dropped.
func (h *Histogram) NaNs() uint64 { return h.nan }

// Mean returns the sample mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.total)
}

// StdDev returns the population standard deviation, or NaN when empty.
func (h *Histogram) StdDev() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	m := h.Mean()
	v := h.sumSq/float64(h.total) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// ObservedMin returns the smallest non-NaN sample, +Inf when empty.
func (h *Histogram) ObservedMin() float64 { return h.lo }

// ObservedMax returns the largest non-NaN sample, -Inf when empty.
func (h *Histogram) ObservedMax() float64 { return h.hi }

// UpperEdge returns the inclusive upper edge of bin k. For the underflow bin
// it is Min; for the overflow bin it is +Inf.
func (h *Histogram) UpperEdge(k int) float64 {
	switch {
	case k <= 0:
		return h.Min
	case k > h.NumBins():
		return math.Inf(1)
	default:
		e := h.Min + float64(k)*h.Step
		if e > h.Max {
			e = h.Max
		}
		return e
	}
}

// Fractions returns per-bin normalized frequencies (the paper's ↑ operator).
// The slice has NumBins()+2 entries, underflow first. An empty histogram
// returns all zeros.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// CDF returns, for each bin edge, the fraction of samples ≤ that edge (the
// paper's ≤ distribution operator). Entry k corresponds to UpperEdge(k); the
// final entry is always 1 for a non-empty histogram.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// CCDF returns, for each bin lower edge, the fraction of samples ≥ that edge
// (the paper's ≥ distribution operator). Entry k corresponds to the lower
// edge of bin k, i.e. UpperEdge(k-1); entry 0 is always 1 for non-empty data.
func (h *Histogram) CCDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i := len(h.counts) - 1; i >= 0; i-- {
		cum += h.counts[i]
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// QuantileUpper returns the smallest bin upper edge e such that at least
// fraction q of samples are ≤ e. This is how the paper extracts the "80% of
// instances are lower than" vertices for the Figure 8 surface. q outside
// (0,1] is clamped. Returns NaN when empty.
func (h *Histogram) QuantileUpper(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for k, c := range h.counts {
		cum += c
		if cum >= need {
			return h.UpperEdge(k)
		}
	}
	return math.Inf(1)
}

// QuantileLower returns the largest bin lower edge e such that at least
// fraction q of samples are ≥ e (the Figure 9 surface: "80% of instances are
// higher than"). Returns NaN when empty.
func (h *Histogram) QuantileLower(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for k := len(h.counts) - 1; k >= 0; k-- {
		cum += h.counts[k]
		if cum >= need {
			return h.UpperEdge(k - 1) // lower edge of bin k
		}
	}
	return math.Inf(-1)
}

// Merge adds other's samples into h. The analysis periods must match exactly.
func (h *Histogram) Merge(other *Histogram) error {
	if other.Min != h.Min || other.Max != h.Max || other.Step != h.Step {
		return fmt.Errorf("stats: merging histograms with different periods <%v,%v,%v> vs <%v,%v,%v>",
			h.Min, h.Max, h.Step, other.Min, other.Max, other.Step)
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	h.nan += other.nan
	h.sum += other.sum
	h.sumSq += other.sumSq
	if other.lo < h.lo {
		h.lo = other.lo
	}
	if other.hi > h.hi {
		h.hi = other.hi
	}
	return nil
}

// String renders a compact summary, useful in logs and error messages.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist<%g,%g,%g> n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		h.Min, h.Max, h.Step, h.total, h.Mean(), h.StdDev(), h.lo, h.hi)
}

// Render writes a gnuplot-style two-column table of the requested view
// ("hist", "cdf" or "ccdf") with one row per bin edge.
func (h *Histogram) Render(view string) (string, error) {
	var vals []float64
	switch view {
	case "hist":
		vals = h.Fractions()
	case "cdf":
		vals = h.CDF()
	case "ccdf":
		vals = h.CCDF()
	default:
		return "", fmt.Errorf("stats: unknown view %q (want hist, cdf or ccdf)", view)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s of %d samples over <%g, %g, %g>\n", view, h.total, h.Min, h.Max, h.Step)
	for k, v := range vals {
		edge := h.UpperEdge(k)
		if view == "ccdf" {
			edge = h.UpperEdge(k - 1)
		}
		fmt.Fprintf(&b, "%g\t%.6f\n", edge, v)
	}
	return b.String(), nil
}

// Sample is a small helper holding raw observations when exact quantiles are
// needed (e.g. in tests comparing against binned quantiles).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation, ignoring NaN.
func (s *Sample) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.xs = append(s.xs, v)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Quantile returns the q-th quantile (nearest-rank), NaN when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.xs[idx]
}

// Mean returns the arithmetic mean, NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}
