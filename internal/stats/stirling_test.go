package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// Small known values of S(n, m).
var stirlingKnown = map[[2]int]float64{
	{0, 0}:  1,
	{1, 1}:  1,
	{2, 1}:  1,
	{2, 2}:  1,
	{3, 1}:  1,
	{3, 2}:  3,
	{3, 3}:  1,
	{4, 2}:  7,
	{4, 3}:  6,
	{5, 2}:  15,
	{5, 3}:  25,
	{6, 3}:  90,
	{7, 4}:  350,
	{9, 3}:  3025,
	{10, 3}: 9330,
	{10, 5}: 42525,
}

func TestStirlingKnownValues(t *testing.T) {
	st := NewStirlingTable()
	for nm, want := range stirlingKnown {
		got := math.Exp(st.Log(nm[0], nm[1]))
		if !almostEqual(got, want, 1e-9) {
			t.Errorf("S(%d,%d) = %v, want %v", nm[0], nm[1], got, want)
		}
	}
}

func TestStirlingBoundary(t *testing.T) {
	st := NewStirlingTable()
	tests := []struct {
		n, m int
		want float64
	}{
		{5, 0, LogZero},
		{5, 6, LogZero},
		{-1, 0, LogZero},
		{3, -1, LogZero},
		{0, 0, 0},
		{7, 7, 0}, // S(n,n)=1
	}
	for _, tt := range tests {
		if got := st.Log(tt.n, tt.m); got != tt.want {
			t.Errorf("log S(%d,%d) = %v, want %v", tt.n, tt.m, got, tt.want)
		}
	}
}

func TestStirlingRowSumIsBellNumber(t *testing.T) {
	// Σ_m S(n,m) = Bell(n). Bell numbers: 1,1,2,5,15,52,203,877,4140.
	bell := []float64{1, 1, 2, 5, 15, 52, 203, 877, 4140}
	st := NewStirlingTable()
	for n, want := range bell {
		sum := LogZero
		for m := 0; m <= n; m++ {
			sum = LogAdd(sum, st.Log(n, m))
		}
		if got := math.Exp(sum); !almostEqual(got, want, 1e-9) {
			t.Errorf("Bell(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestStirlingSurjectionIdentityProperty(t *testing.T) {
	// m! · S(n, m) counts surjections from [n] onto [m]; by inclusion-
	// exclusion it equals Σ_k (-1)^k C(m,k) (m-k)^n.
	st := NewStirlingTable()
	// The identity involves an alternating sum whose terms exceed the
	// result by exp(n·log m − log(m!·S(n,m))); beyond n ≈ 20 the implied
	// cancellation outruns float64 precision, so the property is checked
	// on the numerically meaningful domain.
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%18) + 1
		m := int(mRaw)%n + 1
		lhs := SignedFromLog(LogFactorial(m) + st.Log(n, m))
		rhs := SignedZero
		for k := 0; k <= m; k++ {
			term := SignedFromLog(LogBinomial(m, k) + float64(n)*math.Log(float64(m-k)))
			if m-k == 0 {
				term = SignedZero
				if n == 0 {
					term = SignedFromLog(0)
				}
			}
			if k%2 == 1 {
				term = term.Neg()
			}
			rhs = rhs.Add(term)
		}
		if lhs.IsZero() && rhs.IsZero() {
			return true
		}
		return lhs.Sign == rhs.Sign && almostEqual(lhs.Log, rhs.Log, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStirlingConcurrentAccess(t *testing.T) {
	st := NewStirlingTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n <= 100; n++ {
				m := (g*13+n)%n + 1
				if v := st.Log(n, m); math.IsNaN(v) {
					t.Errorf("NaN for S(%d,%d)", n, m)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStirlingLargeArguments(t *testing.T) {
	st := NewStirlingTable()
	v := st.Log(400, 150)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("log S(400,150) = %v, want finite", v)
	}
	// Monotone in n for fixed m (within the triangle).
	if st.Log(401, 150) <= v {
		t.Error("S(n,m) should grow with n for fixed m")
	}
}
