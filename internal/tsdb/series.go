// Package tsdb is the time-series instantiation of the similarity-query
// framework — the special case the companion implementation paper
// (Rafiei & Mendelzon, SIGMOD'97) evaluates. It demonstrates the
// framework's domain-independence next to the string domain.
//
// Objects are real-valued series mapped to points in a feature space:
// the mean and standard deviation of the raw series plus the first k
// non-DC DFT coefficients of its normal form, the coefficients in polar
// coordinates (Theorem 3: multiplier transformations are safe in Spol).
// Transformations are per-coefficient complex multipliers, rich enough
// for moving averages, reversal and time warping; queries run against
// an R-tree that answers over the transformed image of the index without
// being rebuilt.
package tsdb

import (
	"fmt"
	"math"

	"repro/internal/dft"
)

// NormalForm returns (s - mean)/std along with the mean and standard
// deviation (population form, as in [GK95]). Constant series have no
// normal form.
func NormalForm(s []float64) (norm []float64, mean, std float64, err error) {
	norm = make([]float64, len(s))
	if mean, std, err = normalInto(norm, s); err != nil {
		return nil, mean, std, err
	}
	return norm, mean, std, nil
}

// normalInto is NormalForm writing into dst (len(dst) == len(s)).
func normalInto(dst, s []float64) (mean, std float64, err error) {
	if len(s) == 0 {
		return 0, 0, fmt.Errorf("tsdb: empty series")
	}
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	for _, v := range s {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(s)))
	if std == 0 {
		return mean, 0, fmt.Errorf("tsdb: constant series has no normal form")
	}
	for i, v := range s {
		dst[i] = (v - mean) / std
	}
	return mean, std, nil
}

// MovingAverage returns the circular l-day moving average used by the
// paper: ma[i] is the mean of the window ending at i, with the window
// wrapping to the end of the series at the beginning. It equals the
// circular convolution of s with the kernel (1/l, ..., 1/l, 0, ..., 0).
func MovingAverage(s []float64, l int) ([]float64, error) {
	n := len(s)
	if l <= 0 || l > n {
		return nil, fmt.Errorf("tsdb: window %d outside [1,%d]", l, n)
	}
	out := make([]float64, n)
	// Running sum over the circular window [i-l+1, i].
	var sum float64
	for j := n - l + 1; j <= n; j++ {
		sum += s[j%n]
	}
	// sum now covers the window ending at index 0.
	for i := 0; i < n; i++ {
		out[i] = sum / float64(l)
		// Slide: add s[i+1], drop s[i+1-l].
		sum += s[(i+1)%n] - s[(i+1-l+2*n)%n]
	}
	return out, nil
}

// Reverse returns the series multiplied by -1 (the Trev transformation
// of Example 2.2).
func Reverse(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = -v
	}
	return out
}

// WarpSeries stretches the time dimension by m: every value is repeated
// m times (Appendix A, Equation 16).
func WarpSeries(s []float64, m int) []float64 {
	out := make([]float64, 0, len(s)*m)
	for _, v := range s {
		for j := 0; j < m; j++ {
			out = append(out, v)
		}
	}
	return out
}

// Euclid is the Euclidean distance between equal-length series.
func Euclid(x, y []float64) (float64, error) {
	return dft.DistReal(x, y)
}
