// Package stats provides the numerical substrate for BotMeter's analytical
// models: log-space combinatorics (binomial coefficients, Stirling numbers
// of the second kind), signed log-domain arithmetic for alternating sums,
// and descriptive statistics used by the evaluation harness.
//
// All combinatorial quantities are computed in the log domain because the
// Bernoulli estimator (paper §IV-D) multiplies binomials such as C(49995,
// 500) with Stirling numbers that overflow float64 by thousands of orders of
// magnitude.
package stats

import "math"

// LogZero is the log-domain representation of zero.
var LogZero = math.Inf(-1)

// LogAdd returns log(exp(a) + exp(b)) without overflow.
func LogAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// LogSub returns log(exp(a) - exp(b)). It requires a >= b; if the difference
// underflows (a ≈ b), it returns LogZero rather than NaN, which is the
// correct limiting behaviour for the probability computations in this
// package.
func LogSub(a, b float64) float64 {
	if math.IsInf(b, -1) {
		return a
	}
	if b >= a {
		return LogZero
	}
	return a + math.Log1p(-math.Exp(b-a))
}

// LogFactorial returns log(n!) via the log-gamma function.
func LogFactorial(n int) float64 {
	if n < 0 {
		return LogZero
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogBinomial returns log C(n, k). Out-of-range arguments (k < 0 or k > n)
// yield LogZero, matching the combinatorial convention C(n,k) = 0.
func LogBinomial(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return LogZero
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Binomial returns C(n, k) as a float64; it saturates to +Inf if the value
// exceeds the float64 range.
func Binomial(n, k int) float64 {
	return math.Exp(LogBinomial(n, k))
}

// Signed is a real number represented as sign · exp(Log). It supports the
// alternating binomial sums in the Bernoulli estimator where intermediate
// terms overflow float64.
type Signed struct {
	Sign int8    // -1, 0, or +1
	Log  float64 // log of the absolute value; ignored when Sign == 0
}

// SignedZero is the Signed representation of 0.
var SignedZero = Signed{Sign: 0, Log: LogZero}

// SignedFromLog builds a positive Signed with the given log-magnitude.
func SignedFromLog(logAbs float64) Signed {
	if math.IsInf(logAbs, -1) {
		return SignedZero
	}
	return Signed{Sign: 1, Log: logAbs}
}

// Float returns the value as a float64 (may overflow to ±Inf or underflow
// to 0).
func (s Signed) Float() float64 {
	if s.Sign == 0 {
		return 0
	}
	return float64(s.Sign) * math.Exp(s.Log)
}

// IsZero reports whether the value is exactly zero.
func (s Signed) IsZero() bool { return s.Sign == 0 }

// Neg returns -s.
func (s Signed) Neg() Signed {
	s.Sign = -s.Sign
	return s
}

// Add returns s + t.
func (s Signed) Add(t Signed) Signed {
	if s.Sign == 0 {
		return t
	}
	if t.Sign == 0 {
		return s
	}
	if s.Sign == t.Sign {
		return Signed{Sign: s.Sign, Log: LogAdd(s.Log, t.Log)}
	}
	// Opposite signs: subtract magnitudes.
	switch {
	case s.Log > t.Log:
		return Signed{Sign: s.Sign, Log: LogSub(s.Log, t.Log)}
	case t.Log > s.Log:
		return Signed{Sign: t.Sign, Log: LogSub(t.Log, s.Log)}
	default:
		return SignedZero
	}
}

// Sub returns s - t.
func (s Signed) Sub(t Signed) Signed { return s.Add(t.Neg()) }
