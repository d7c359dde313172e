package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream("alpha")
	b := NewSource(42).Stream("alpha")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-named streams diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := NewSource(42)
	a := s.Stream("alpha")
	b := s.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 'alpha' and 'beta' look correlated: %d/64 equal draws", same)
	}
}

func TestSeedSeparation(t *testing.T) {
	a := NewSource(1).Stream("x")
	b := NewSource(2).Stream("x")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced correlated streams: %d/64 equal draws", same)
	}
}

func TestSubSourceNamespacing(t *testing.T) {
	root := NewSource(7)
	s1 := root.Sub("yarn").Stream("x")
	s2 := root.Sub("mapreduce").Stream("x")
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("sub-sources with different names produced identical streams")
	}
	r1 := root.Sub("yarn").Stream("x")
	r2 := root.Sub("yarn").Stream("x")
	for i := 0; i < 16; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("identical sub-source paths diverged")
		}
	}
}

// Property: Stream(name) output depends only on (seed, name).
func TestStreamPure(t *testing.T) {
	f := func(seed uint64, name string) bool {
		x := NewSource(seed).Stream(name).Uint64()
		y := NewSource(seed).Stream(name).Uint64()
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSourceMatchesMathRand pins the lagged-Fibonacci copy behind
// Stream/StreamInto to math/rand's own source, draw for draw, across
// the seed-reduction edge cases (zero, negatives, multiples of the
// Lehmer modulus, the int64 extremes) and every derived distribution
// the model uses.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, m, -m, 2 * m, -3 * m, m * 1234567, math.MinInt64, math.MaxInt64}
	const n = 10_000
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		src := new(lfSource)
		src.Seed(seed)
		got := rand.New(src)
		draws := []struct {
			name string
			draw func(*rand.Rand) float64
		}{
			{"Int63", func(r *rand.Rand) float64 { return float64(r.Int63()) }},
			{"Uint64", func(r *rand.Rand) float64 { return float64(r.Uint64()) }},
			{"Float64", func(r *rand.Rand) float64 { return r.Float64() }},
			{"NormFloat64", func(r *rand.Rand) float64 { return r.NormFloat64() }},
			{"ExpFloat64", func(r *rand.Rand) float64 { return r.ExpFloat64() }},
			{"Intn", func(r *rand.Rand) float64 { return float64(r.Intn(1000)) }},
		}
		for _, d := range draws {
			for i := 0; i < n; i++ {
				if w, g := d.draw(want), d.draw(got); w != g {
					t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, d.name, i, g, w)
				}
			}
		}
		// Uint64 is compared above through float64; compare the raw bits
		// too, since the register words are full 64-bit values.
		for i := 0; i < n; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: raw Uint64 draw %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		for i := 0; i < n/100; i++ {
			if w, g := want.Perm(100), got.Perm(100); !slices.Equal(w, g) {
				t.Fatalf("seed %d: Perm draw %d = %v, math/rand gives %v", seed, i, g, w)
			}
		}
	}

	// Re-seeding a used stream through StreamInto lands on the exact
	// state a fresh math/rand source would start in.
	s := NewSource(42)
	r := s.Stream("first")
	for i := 0; i < 12_345; i++ {
		r.Int63()
	}
	r = s.StreamInto(r, "second")
	want := rand.New(rand.NewSource(s.streamSeed("second")))
	for i := 0; i < n; i++ {
		if w, g := want.Int63(), r.Int63(); w != g {
			t.Fatalf("re-seeded stream draw %d = %d, math/rand gives %d", i, g, w)
		}
	}
}
