package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestLogAdd(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{"both finite", math.Log(3), math.Log(4), math.Log(7)},
		{"a zero", LogZero, math.Log(5), math.Log(5)},
		{"b zero", math.Log(5), LogZero, math.Log(5)},
		{"both zero", LogZero, LogZero, LogZero},
		{"large magnitudes", 1000, 1000, 1000 + math.Log(2)},
		{"asymmetric", 1000, -1000, 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LogAdd(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("LogAdd(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestLogSub(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		want float64
	}{
		{"simple", math.Log(7), math.Log(3), math.Log(4)},
		{"b zero", math.Log(7), LogZero, math.Log(7)},
		{"equal", math.Log(7), math.Log(7), LogZero},
		{"b greater clamps", math.Log(3), math.Log(7), LogZero},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LogSub(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("LogSub(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestLogAddCommutativeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 700)
		b = math.Mod(b, 700)
		return almostEqual(LogAdd(a, b), LogAdd(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
		{5, 6, 0},
		{5, -1, 0},
		{-1, 0, 0},
	}
	for _, tt := range tests {
		got := math.Exp(LogBinomial(tt.n, tt.k))
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("C(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestLogBinomialPascalProperty(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) in log space.
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%300) + 1
		k := int(kRaw) % (n + 1)
		lhs := LogBinomial(n, k)
		rhs := LogAdd(LogBinomial(n-1, k-1), LogBinomial(n-1, k))
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBinomialSymmetryProperty(t *testing.T) {
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw % 2000)
		k := int(kRaw) % (n + 1)
		return almostEqual(LogBinomial(n, k), LogBinomial(n, n-k), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogBinomialHugeArguments(t *testing.T) {
	// Conficker-scale: C(49995, 500) must be finite and positive in log space.
	lb := LogBinomial(49995, 500)
	if math.IsInf(lb, 0) || math.IsNaN(lb) || lb <= 0 {
		t.Fatalf("LogBinomial(49995,500) = %v, want finite positive", lb)
	}
}

// signed builds a Signed from an ordinary float64.
func signed(x float64) Signed {
	switch {
	case x > 0:
		return SignedFromLog(math.Log(x))
	case x < 0:
		return SignedFromLog(math.Log(-x)).Neg()
	}
	return SignedZero
}

func TestSignedArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Signed
		want float64
	}{
		{"add same sign", signed(3).Add(signed(4)), 7},
		{"add opposite", signed(3).Add(signed(-4)), -1},
		{"add cancel", signed(3).Add(signed(-3)), 0},
		{"sub", signed(3).Sub(signed(5)), -2},
		{"neg", signed(5).Neg(), -5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.got.Float(); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSignedRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 1e100)
		return almostEqual(signed(x).Float(), x, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedAddMatchesFloatProperty(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 1e50)
		b = math.Mod(b, 1e50)
		got := signed(a).Add(signed(b)).Float()
		return almostEqual(got, a+b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedFromLog(t *testing.T) {
	if got := SignedFromLog(math.Log(42)).Float(); !almostEqual(got, 42, 1e-12) {
		t.Errorf("SignedFromLog(log 42) = %v, want 42", got)
	}
	if !SignedFromLog(LogZero).IsZero() {
		t.Error("SignedFromLog(LogZero) should be zero")
	}
}
