// Package certify is the statistical certification engine of the
// reproduction: it turns "is this (scenario, policy) cell safe?" from a
// single-seed anecdote into a sequential hypothesis test. A certification
// campaign sweeps seeds in batches through the fleet engine, maintains an
// estimator of the failure probability P(crash ∨ φInv violation) — a run
// fails when it crashed or the executor's φInv monitor reported a violation
// of Theorem 3.1 — with exact two-sided confidence intervals
// (Clopper-Pearson, plus Wilson for display), and stops as soon as the
// interval is conclusive against the target threshold — certified when the
// upper bound falls below it, refuted when the lower bound rises above it,
// inconclusive when the seed budget runs out first.
//
// For rare-event cells the engine has an importance-sampling mode: the cell's
// fault profile is treated as sporadic (each scheduled fault window fires
// with probability FaultActivation under the nominal measure), runs are
// sampled with the activation probability boosted by Boost, and each run's
// failure indicator is reweighted by the exact likelihood ratio. The weighted
// estimator's interval is an empirical-Bernstein bound (the weighted sum is
// no longer binomial), so cells whose nominal failure probability is far below
// the threshold certify in thousands rather than millions of seeds.
//
// Certification results are deterministic: verdict, estimate, interval and
// seeds-consumed are pure functions of (cell, threshold, confidence, seed,
// batch size) and byte-identical at any worker count, because run seeds and
// fault-activation draws derive only from the campaign seed and the run
// index, batches are evaluated through fleet.Run (index-ordered results),
// and accounting folds outcomes in index order.
package certify

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval over a probability.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// ClopperPearson returns the exact two-sided Clopper-Pearson interval for k
// successes in n Bernoulli trials at the given confidence level (e.g. 0.95).
// The bounds are the beta-quantile closed form: lo is the α/2 quantile of
// Beta(k, n−k+1) (0 when k = 0), hi the 1−α/2 quantile of Beta(k+1, n−k)
// (1 when k = n). Exactness means coverage is at least the confidence level
// for every true p — the conservative direction a certification verdict
// needs.
func ClopperPearson(k, n int, confidence float64) Interval {
	checkArgs(k, n, confidence)
	alpha := 1 - confidence
	iv := Interval{Lo: 0, Hi: 1}
	if k > 0 {
		iv.Lo = betaQuantile(alpha/2, float64(k), float64(n-k+1))
	}
	if k < n {
		iv.Hi = betaQuantile(1-alpha/2, float64(k+1), float64(n-k))
	}
	return iv
}

// Wilson returns the Wilson score interval for k successes in n trials at the
// given confidence level. It is narrower than Clopper-Pearson (approximate
// rather than exact coverage) and is reported for display next to the exact
// interval that drives verdicts.
func Wilson(k, n int, confidence float64) Interval {
	checkArgs(k, n, confidence)
	return wilsonAt(float64(k)/float64(n), n, confidence)
}

// wilsonAt is Wilson's interval around an arbitrary point estimate in [0,1].
// The importance-sampling path uses it for its display interval, where the
// estimate is a weighted mean rather than k/n.
func wilsonAt(phat float64, n int, confidence float64) Interval {
	z := normalQuantile(confidence)
	z2n := z * z / float64(n)
	denom := 1 + z2n
	center := (phat + z2n/2) / denom
	half := z * math.Sqrt(phat*(1-phat)/float64(n)+z2n/(4*float64(n))) / denom
	return Interval{
		Lo: clamp01(center - half),
		Hi: clamp01(center + half),
	}
}

// bernstein returns the empirical-Bernstein interval around the mean of n
// samples in [0, rangeMax] with (unbiased) sample variance v, at the given
// two-sided confidence level: with probability ≥ confidence the true mean is
// within sqrt(2·v·ln(3/δ)/n) + 3·rangeMax·ln(3/δ)/n of the sample mean
// (Maurer & Pontil 2009), δ = 1 − confidence. Variance-adaptive: when the
// boosted sampler makes crashes common, v stays small and the interval
// shrinks at the fast sqrt(v/n) rate despite the large weight range.
func bernstein(mean, v, rangeMax float64, n int, confidence float64) Interval {
	if n < 2 {
		return Interval{Lo: 0, Hi: 1}
	}
	logTerm := math.Log(3 / (1 - confidence))
	half := math.Sqrt(2*v*logTerm/float64(n)) + 3*rangeMax*logTerm/float64(n)
	return Interval{
		Lo: clamp01(mean - half),
		Hi: clamp01(mean + half),
	}
}

// normalQuantile returns z such that a standard normal lies in [−z, z] with
// the given probability: z = √2·erfinv(confidence). Deterministic across
// platforms (math.Erfinv is pure Go).
func normalQuantile(confidence float64) float64 {
	return math.Sqrt2 * math.Erfinv(confidence)
}

// checkArgs guards the public interval constructors; interval math on
// malformed counts is always a caller bug, never data-dependent.
func checkArgs(k, n int, confidence float64) {
	if n <= 0 || k < 0 || k > n {
		panic(fmt.Sprintf("certify: interval over k=%d n=%d", k, n))
	}
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("certify: confidence %v outside (0,1)", confidence))
	}
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// betaQuantile inverts the regularized incomplete beta function: the x with
// I_x(a, b) = p. Bisection rather than Newton — ~90 halvings reach full
// float64 resolution, monotone convergence, and bit-for-bit identical results
// on every platform, which the determinism contract cares about more than the
// last factor of two in speed.
func betaQuantile(p, a, b float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if regIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// standard continued-fraction expansion (modified Lentz), using the symmetry
// I_x(a,b) = 1 − I_{1−x}(b,a) to keep the fraction in its fast-converging
// region.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// Prefactor x^a (1−x)^b / (a·B(a,b)), in log space.
	lbeta, _ := math.Lgamma(a + b)
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete-beta continued fraction by the modified
// Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
