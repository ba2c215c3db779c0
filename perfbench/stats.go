package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples a percentile needs beyond it before it is
// reported: p90 needs at least 100 samples, p99 at least 1000. A
// percentile without that support is missing, never guessed.
const minTail = 10

// errNoSupport reports a percentile with fewer than minTail samples
// beyond it.
var errNoSupport = errors.New("percentile has fewer than 10 samples beyond it")

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. It fails when fewer than minTail
// samples lie beyond the quantile.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0,1)", q)
	}
	if beyond(float64(len(xs)), q) < minTail {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, len(xs), errNoSupport)
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// quietWindow is the number of consecutive rounds or steps in one block
// of quieterHalf: about a second on the slower workloads.
const quietWindow = 20

// quieterHalf returns the samples of the quieter half of a run. xs is cut
// into blocks of window consecutive samples, a trailing partial block left
// out, and the blocks whose median is at most the median of the block
// medians are kept, in order. A shared host slows stretches of a run,
// each a few rounds to a few seconds long, by up to twice; the rounds
// around them are its quieter half. A change to the program slows every
// block alike, and a tail it makes in every block, such as one slow round
// in ten, stays in the kept ones.
func quieterHalf(xs []float64, window int) []float64 {
	var meds []float64
	for i := 0; i+window <= len(xs); i += window {
		meds = append(meds, median(xs[i:i+window]))
	}
	cut := median(meds)
	var kept []float64
	for b, m := range meds {
		if m <= cut {
			kept = append(kept, xs[b*window:(b+1)*window]...)
		}
	}
	return kept
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method, which extrapolates beyond the data for tiny samples), so a
// spread computed here matches one computed there.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, errors.New("spread of values with a zero median")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// worseBy reports by what share of the base median the new median is worse,
// given which direction is better; a negative share is an improvement.
func worseBy(base, next float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return (next - base) / math.Abs(base)
	}
	return (base - next) / math.Abs(base)
}

// withinBound is the benchmark's acceptance rule for one metric: the
// spread of each set is within the bound, unless the metric is exempt from
// the spread rule (setup time), and the second set's median is not worse
// than the first's by more than the bound.
func withinBound(first, second []float64, bound float64, lowerIsBetter, spreadExempt bool) (bool, string, error) {
	for _, set := range [][]float64{first, second} {
		s, err := spread(set)
		if err != nil {
			return false, "", err
		}
		if !spreadExempt && s > bound {
			return false, fmt.Sprintf("spread %.4f above bound %.4f", s, bound), nil
		}
	}
	if w := worseBy(median(first), median(second), lowerIsBetter); w > bound {
		return false, fmt.Sprintf("second median worse by %.4f, bound %.4f", w, bound), nil
	}
	return true, "", nil
}

// span is a weighted latency interval: w samples known only to lie
// somewhere in [lo, hi]. Simulated deliveries are observed at round
// boundaries, so their latency is an interval of rounds, not a point.
type span struct {
	lo, hi, w float64
}

// spanQuantile returns the q-quantile of the mixture of spans, taking each
// span's weight as spread uniformly over it. Like percentile, it fails when
// the total weight beyond the quantile is below minTail.
func spanQuantile(spans []span, q float64) (float64, error) {
	var total float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range spans {
		total += s.w
		lo = math.Min(lo, s.lo)
		hi = math.Max(hi, s.hi)
	}
	if beyond(total, q) < minTail {
		return 0, fmt.Errorf("p%g of %.0f samples: %w", 100*q, total, errNoSupport)
	}
	below := func(x float64) float64 {
		var sum float64
		for _, s := range spans {
			switch {
			case x >= s.hi:
				sum += s.w
			case x > s.lo:
				sum += s.w * (x - s.lo) / (s.hi - s.lo)
			}
		}
		return sum
	}
	want := q * total
	for i := 0; i < 60 && hi-lo > 1e-12*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if below(mid) < want {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// beyond is how many of n samples lie beyond the q-quantile, rounded so
// that 100 samples have exactly 10 beyond p90.
func beyond(n, q float64) float64 { return math.Round(n*(1-q)*1e9) / 1e9 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
