package dga

import (
	"strings"
	"testing"
	"testing/quick"

	"botmeter/internal/sim"
)

func TestGeneratorProfile(t *testing.T) {
	g := Generator{Charset: "abc", MinLen: 5, MaxLen: 8, TLDs: []string{"com", "net"}}
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		d := g.Generate(rng)
		dot := strings.LastIndexByte(d, '.')
		if dot < 0 {
			t.Fatalf("domain %q missing TLD", d)
		}
		name, tld := d[:dot], d[dot+1:]
		if len(name) < 5 || len(name) > 8 {
			t.Errorf("name %q length out of range", name)
		}
		if tld != "com" && tld != "net" {
			t.Errorf("unexpected TLD %q", tld)
		}
		for _, c := range name {
			if !strings.ContainsRune("abc", c) {
				t.Errorf("character %q outside charset", c)
			}
		}
	}
}

func TestGeneratorDefaults(t *testing.T) {
	var g Generator // zero value falls back to DefaultGenerator profile
	d := g.Generate(sim.NewRNG(2))
	if len(d) < DefaultGenerator.MinLen {
		t.Errorf("domain %q shorter than default minimum", d)
	}
}

func TestGenerateUnique(t *testing.T) {
	g := Generator{Charset: "ab", MinLen: 4, MaxLen: 4, TLDs: []string{"com"}}
	// Only 16 possible names; ask for 10 with 4 excluded.
	rng := sim.NewRNG(3)
	first := g.GenerateUnique(rng, 4, nil)
	exclude := make(map[string]struct{})
	for _, d := range first {
		exclude[d] = struct{}{}
	}
	rest := g.GenerateUnique(rng, 10, exclude)
	seen := make(map[string]struct{})
	for _, d := range rest {
		if _, dup := seen[d]; dup {
			t.Fatalf("duplicate %q", d)
		}
		if _, dup := exclude[d]; dup {
			t.Fatalf("excluded domain %q regenerated", d)
		}
		seen[d] = struct{}{}
	}
	if len(rest) != 10 {
		t.Fatalf("got %d domains, want 10", len(rest))
	}
}

func TestDrainReplenishDeterminism(t *testing.T) {
	m := DrainReplenish{NX: 50, C2: 3, Gen: DefaultGenerator}
	a := m.PoolFor(42, 7)
	b := m.PoolFor(42, 7)
	if len(a.Domains) != len(b.Domains) {
		t.Fatal("sizes differ")
	}
	for i := range a.Domains {
		if a.Domains[i] != b.Domains[i] {
			t.Fatal("same (seed, epoch) must give identical pools")
		}
	}
	c := m.PoolFor(42, 8)
	same := true
	for i := range a.Domains {
		if i < len(c.Domains) && a.Domains[i] != c.Domains[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different epochs should give different pools")
	}
	if err := validatePool(a, 3); err != nil {
		t.Error(err)
	}
}

func TestDrainReplenishPeriod(t *testing.T) {
	m := DrainReplenish{NX: 20, C2: 2, Period: 4, Gen: DefaultGenerator}
	day0 := m.PoolFor(1, 0)
	day3 := m.PoolFor(1, 3)
	day4 := m.PoolFor(1, 4)
	if day0.Domains[0] != day3.Domains[0] {
		t.Error("epochs 0 and 3 share a pool period and must match")
	}
	if day0.Domains[0] == day4.Domains[0] {
		t.Error("epoch 4 starts a new pool period")
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	m := SlidingWindow{PerDay: 10, Back: 3, Forward: 1, C2: 2, Gen: DefaultGenerator}
	p5 := m.PoolFor(9, 5)
	p6 := m.PoolFor(9, 6)
	if got, want := p5.Size(), 10*5; got != want {
		t.Fatalf("pool size %d, want %d", got, want)
	}
	set6 := make(map[string]struct{}, p6.Size())
	for _, d := range p6.Domains {
		set6[d] = struct{}{}
	}
	shared := 0
	for _, d := range p5.Domains {
		if _, ok := set6[d]; ok {
			shared++
		}
	}
	// Consecutive epochs share all but one day-block: 4 of 5 blocks.
	if shared != 40 {
		t.Errorf("consecutive pools share %d domains, want 40", shared)
	}
	if err := validatePool(p5, 2); err != nil {
		t.Error(err)
	}
}

func TestMultipleMixtureValidOnlyFromUseful(t *testing.T) {
	m := MultipleMixture{UsefulNX: 18, UsefulC2: 2, NoiseSizes: []int{50, 30}, Gen: DefaultGenerator}
	p := m.PoolFor(4, 2)
	if got, want := p.Size(), 18+2+50+30; got != want {
		t.Fatalf("pool size %d, want %d", got, want)
	}
	if err := validatePool(p, 2); err != nil {
		t.Fatal(err)
	}
	// Rebuild the useful set to confirm valid positions come from it.
	useful := make(map[string]struct{})
	for i, d := range p.Domains {
		if p.ValidAt(i) {
			useful[d] = struct{}{}
		}
	}
	if len(useful) != 2 {
		t.Fatalf("expected 2 valid domains, got %d", len(useful))
	}
}

func TestPoolLookupMethods(t *testing.T) {
	p := NewPool([]string{"a.com", "b.com", "c.com"}, []int{1})
	if p.Size() != 3 || p.NXCount() != 2 {
		t.Errorf("size=%d nx=%d", p.Size(), p.NXCount())
	}
	if pos, ok := p.Position("b.com"); !ok || pos != 1 {
		t.Errorf("Position(b.com) = %d,%v", pos, ok)
	}
	if _, ok := p.Position("zz.com"); ok {
		t.Error("unknown domain should not resolve")
	}
	if !p.ValidAt(1) || p.ValidAt(0) || p.ValidAt(3) || p.ValidAt(-1) {
		t.Error("validity flags wrong")
	}
}

// TestPoolNameEntries checks the comparison a tag match ends in, which
// Position reaches only when a name's hash bits agree with a slot's: every
// position holds its own name and no name one byte shorter, one byte longer
// or differing in its last byte, for names that fit their entry and names
// that do not.
func TestPoolNameEntries(t *testing.T) {
	var domains []string
	for _, n := range []int{0, 1, 7, 8, 15, 62, 63, 64, 200, 255, 256} {
		domains = append(domains, strings.Repeat("m", n))
	}
	p := NewPool(domains, nil)
	p.Position("") // builds the entries
	for pos, d := range domains {
		if !p.holds(uint32(pos), d) {
			t.Fatalf("position %d does not hold its %d-byte name", pos, len(d))
		}
		others := []string{d + "m", d + "\x00"}
		if d != "" {
			others = append(others, d[:len(d)-1], d[:len(d)-1]+"n")
		}
		for _, o := range others {
			if p.holds(uint32(pos), o) {
				t.Fatalf("position %d (%d bytes) holds a %d-byte %q…", pos, len(d), len(o), o[:min(len(o), 8)])
			}
		}
	}
}

func TestNewPoolIgnoresBadPositions(t *testing.T) {
	p := NewPool([]string{"a.com"}, []int{-1, 5, 0, 0})
	if len(p.ValidPositions) != 1 || p.ValidPositions[0] != 0 {
		t.Errorf("ValidPositions = %v, want [0]", p.ValidPositions)
	}
}

func testPool(n, c2 int) *Pool {
	domains := make([]string, n)
	for i := range domains {
		domains[i] = strings.Repeat("x", 3) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)) + ".com"
	}
	valid := make([]int, c2)
	for i := range valid {
		valid[i] = i * (n / max(c2, 1))
	}
	return NewPool(domains, valid)
}

func TestUniformBarrelOrder(t *testing.T) {
	p := testPool(30, 0)
	b := Uniform{}.Barrel(p, 10, sim.NewRNG(1))
	if len(b) != 10 {
		t.Fatalf("barrel length %d, want 10", len(b))
	}
	for i, pos := range b {
		if pos != i {
			t.Fatalf("uniform barrel must follow pool order, got %v", b)
		}
	}
	// θq beyond pool size clamps.
	if got := len(Uniform{}.Barrel(p, 100, sim.NewRNG(1))); got != 30 {
		t.Errorf("clamped barrel length %d, want 30", got)
	}
}

func TestSamplingBarrelDistinct(t *testing.T) {
	p := testPool(100, 0)
	b := Sampling{}.Barrel(p, 40, sim.NewRNG(2))
	seen := make(map[int]struct{})
	for _, pos := range b {
		if pos < 0 || pos >= 100 {
			t.Fatalf("position %d out of range", pos)
		}
		if _, dup := seen[pos]; dup {
			t.Fatalf("duplicate position %d", pos)
		}
		seen[pos] = struct{}{}
	}
	if len(b) != 40 {
		t.Fatalf("barrel length %d, want 40", len(b))
	}
	// Two bots should (overwhelmingly) sample different barrels.
	b2 := Sampling{}.Barrel(p, 40, sim.NewRNG(3))
	same := true
	for i := range b {
		if b[i] != b2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("independent sampling barrels should differ")
	}
}

func TestRandomCutBarrelConsecutive(t *testing.T) {
	p := testPool(50, 0)
	b := RandomCut{}.Barrel(p, 20, sim.NewRNG(4))
	if len(b) != 20 {
		t.Fatalf("barrel length %d, want 20", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] != (b[i-1]+1)%50 {
			t.Fatalf("randomcut positions must be consecutive mod size: %v", b)
		}
	}
}

func TestRandomCutWrapsProperty(t *testing.T) {
	p := testPool(17, 0)
	f := func(seed uint64) bool {
		b := RandomCut{}.Barrel(p, 17, sim.NewRNG(seed))
		seen := make(map[int]struct{})
		for _, pos := range b {
			seen[pos] = struct{}{}
		}
		return len(seen) == 17 // a full wrap covers every position exactly once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermutationBarrelIsPermutation(t *testing.T) {
	p := testPool(25, 0)
	b := Permutation{}.Barrel(p, 25, sim.NewRNG(5))
	seen := make(map[int]struct{})
	for _, pos := range b {
		seen[pos] = struct{}{}
	}
	if len(seen) != 25 {
		t.Fatalf("permutation barrel must cover the pool once: %v", b)
	}
}

// TestBarrelDrawsAreUnchanged: both barrel paths draw what the models drew
// through rng.Perm — Perm(size)[:θq] for Sampling and Permutation, whatever
// m.Barrel draws for the others — and leave the generator where that draw
// left it.
func TestBarrelDrawsAreUnchanged(t *testing.T) {
	p := testPool(2046, 0)
	var scratch []int32
	for _, m := range []BarrelModel{Uniform{}, Sampling{}, RandomCut{}, Permutation{}} {
		for seed := uint64(0); seed < 20; seed++ {
			ref := sim.NewRNG(seed)
			var want []int
			switch m.(type) {
			case Sampling, Permutation:
				want = ref.Perm(p.Size())[:300]
			default:
				want = m.Barrel(p, 300, ref)
			}
			byModel, withScratch := sim.NewRNG(seed), sim.NewRNG(seed)
			got := m.Barrel(p, 300, byModel)
			got32 := BarrelWithScratch(m, p, 300, withScratch, &scratch)
			if len(got) != len(want) || len(got32) != len(want) {
				t.Fatalf("%T seed %d: lengths %d and %d, want %d", m, seed, len(got), len(got32), len(want))
			}
			for i := range want {
				if got[i] != want[i] || int(got32[i]) != want[i] {
					t.Fatalf("%T seed %d: position %d is %d / %d, want %d", m, seed, i, got[i], got32[i], want[i])
				}
			}
			next := ref.Uint64()
			if a, b := byModel.Uint64(), withScratch.Uint64(); a != next || b != next {
				t.Fatalf("%T seed %d: generator left at %d / %d, want %d", m, seed, a, b, next)
			}
		}
	}
}

func TestExecuteBarrelStopsAtValid(t *testing.T) {
	p := NewPool([]string{"a.com", "b.com", "c.com", "d.com"}, []int{2})
	full := []int{0, 1, 2, 3}
	got := ExecuteBarrel(p, full)
	if len(got) != 3 || got[2] != 2 {
		t.Errorf("ExecuteBarrel = %v, want stop at position 2 inclusive", got)
	}
	// No valid position: whole barrel.
	noHit := []int{0, 1, 3}
	if got := ExecuteBarrel(p, noHit); len(got) != 3 {
		t.Errorf("ExecuteBarrel without hit = %v, want full barrel", got)
	}
}

func TestFamiliesValidate(t *testing.T) {
	for name, spec := range Families() {
		if err := spec.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestTableIParameters(t *testing.T) {
	tests := []struct {
		spec   Spec
		nx, c2 int
		thetaQ int
		deltaI sim.Time
		barrel BarrelClass
	}{
		{Murofet(), 798, 2, 798, 500 * sim.Millisecond, UniformBarrel},
		{ConfickerC(), 49995, 5, 500, sim.Second, SamplingBarrel},
		{NewGoZ(), 9995, 5, 500, sim.Second, RandomCutBarrel},
		{Necurs(), 2046, 2, 2046, 500 * sim.Millisecond, PermutationBarrel},
	}
	for _, tt := range tests {
		t.Run(tt.spec.Name, func(t *testing.T) {
			if got := tt.spec.Pool.NXDomains(); got != tt.nx {
				t.Errorf("θ∅ = %d, want %d", got, tt.nx)
			}
			if got := tt.spec.Pool.C2Domains(); got != tt.c2 {
				t.Errorf("θ∃ = %d, want %d", got, tt.c2)
			}
			if tt.spec.ThetaQ != tt.thetaQ {
				t.Errorf("θq = %d, want %d", tt.spec.ThetaQ, tt.thetaQ)
			}
			if tt.spec.QueryInterval != tt.deltaI {
				t.Errorf("δi = %v, want %v", tt.spec.QueryInterval, tt.deltaI)
			}
			if got := tt.spec.Barrel.Class(); got != tt.barrel {
				t.Errorf("barrel = %v, want %v", got, tt.barrel)
			}
		})
	}
}

func TestSlidingWindowPoolSizes(t *testing.T) {
	// §III-A: Ranbyus pool = 1240 domains; PushDo pool = 1380 domains.
	if got := Ranbyus().Pool.(SlidingWindow); got.PerDay*(got.Back+got.Forward+1) != 1240 {
		t.Errorf("Ranbyus pool = %d, want 1240", got.PerDay*(got.Back+got.Forward+1))
	}
	if got := PushDo().Pool.(SlidingWindow); got.PerDay*(got.Back+got.Forward+1) != 1380 {
		t.Errorf("PushDo pool = %d, want 1380", got.PerDay*(got.Back+got.Forward+1))
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("newgoz")
	if err != nil || s.Name != "newGoZ" {
		t.Errorf("Lookup(newgoz) = %v, %v", s.Name, err)
	}
	if _, err := Lookup("unknown-family"); err == nil {
		t.Error("unknown family should error")
	}
}

func TestModelNames(t *testing.T) {
	tests := []struct {
		spec Spec
		want string
	}{
		{Murofet(), "AU"},
		{ConfickerC(), "AS"},
		{NewGoZ(), "AR"},
		{Necurs(), "AP"},
		{Ranbyus(), "sliding-window/permutation"},
		{Pykspa(), "multiple-mixture/uniform"},
	}
	for _, tt := range tests {
		if got := tt.spec.ModelName(); got != tt.want {
			t.Errorf("%s.ModelName() = %q, want %q", tt.spec.Name, got, tt.want)
		}
	}
}

func TestSpecIntervalJitterBounds(t *testing.T) {
	s := Ramnit()
	rng := sim.NewRNG(6)
	for i := 0; i < 100; i++ {
		iv := s.Interval(rng)
		if iv < s.MinJitter || iv > s.MaxJitter {
			t.Fatalf("jittered interval %v outside [%v, %v]", iv, s.MinJitter, s.MaxJitter)
		}
	}
	fixed := Murofet()
	if got := fixed.Interval(rng); got != 500*sim.Millisecond {
		t.Errorf("fixed interval = %v", got)
	}
}

func TestValidPositionsAreSortedProperty(t *testing.T) {
	f := func(seed uint64, epochRaw uint8) bool {
		m := DrainReplenish{NX: 40, C2: 5, Gen: DefaultGenerator}
		p := m.PoolFor(seed, int(epochRaw))
		for i := 1; i < len(p.ValidPositions); i++ {
			if p.ValidPositions[i] <= p.ValidPositions[i-1] {
				return false
			}
		}
		return len(p.ValidPositions) == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
