package sax

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ibox/internal/sim"
)

func TestGaussianBreakpoints(t *testing.T) {
	// Classic SAX table for a=4: {-0.6745, 0, 0.6745}.
	bps := GaussianBreakpoints(4)
	want := []float64{-0.6745, 0, 0.6745}
	for i := range want {
		if math.Abs(bps[i]-want[i]) > 1e-3 {
			t.Errorf("bp[%d] = %v, want %v", i, bps[i], want[i])
		}
	}
	// a=3: {-0.4307, 0.4307}.
	bps3 := GaussianBreakpoints(3)
	if math.Abs(bps3[0]+0.4307) > 1e-3 || math.Abs(bps3[1]-0.4307) > 1e-3 {
		t.Errorf("a=3 breakpoints = %v", bps3)
	}
	if GaussianBreakpoints(1) != nil {
		t.Error("a=1 should give nil")
	}
}

func TestProbitRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := probit(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-8 {
			t.Errorf("probit(%v) = %v, Φ back = %v", p, x, back)
		}
	}
	if !math.IsInf(probit(0), -1) || !math.IsInf(probit(1), 1) {
		t.Error("probit edge cases")
	}
}

func TestPAA(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 3, 3}
	got := PAA(xs, 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("PAA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Non-divisible: 5 samples → 2 segments of 2.5 samples each.
	xs2 := []float64{1, 1, 1, 3, 3}
	got2 := PAA(xs2, 2)
	if math.Abs(got2[0]-1) > 1e-12 {
		t.Errorf("PAA frac[0] = %v, want 1", got2[0])
	}
	if math.Abs(got2[1]-(1*0.5+3+3)/2.5) > 1e-12 {
		t.Errorf("PAA frac[1] = %v", got2[1])
	}
	// segments >= n returns a copy.
	got3 := PAA(xs, 10)
	if len(got3) != len(xs) {
		t.Errorf("PAA over-segmented length %d", len(got3))
	}
}

// Property: PAA preserves the overall mean.
func TestPAAMeanProperty(t *testing.T) {
	prop := func(raw []float64, segRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
			raw[i] = math.Mod(raw[i], 1e6)
		}
		seg := int(segRaw%16) + 1
		out := PAA(raw, seg)
		min := seg
		if len(raw) < seg {
			min = len(raw)
		}
		if len(out) != min && len(out) != len(raw) {
			return false
		}
		// Mean preservation (exact for the fractional PAA).
		var ma, mo float64
		for _, v := range raw {
			ma += v
		}
		ma /= float64(len(raw))
		if len(out) == 0 {
			return false
		}
		for _, v := range out {
			mo += v
		}
		mo /= float64(len(out))
		return math.Abs(ma-mo) < 1e-6*math.Max(1, math.Abs(ma))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiscretizeEquiprobable(t *testing.T) {
	rng := sim.NewRand(1, 0)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sym := Discretize(xs, 4)
	counts := map[byte]int{}
	for _, s := range sym {
		counts[s]++
	}
	for _, c := range []byte{'a', 'b', 'c', 'd'} {
		frac := float64(counts[c]) / float64(len(xs))
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("symbol %c frequency %.3f, want ≈0.25", c, frac)
		}
	}
}

func TestDiscretizeConstant(t *testing.T) {
	sym := Discretize([]float64{5, 5, 5}, 6)
	for _, s := range sym {
		if s != 'd' {
			t.Errorf("constant series symbol %c, want middle 'd'", s)
		}
	}
}

func TestArrivalSymbolizer(t *testing.T) {
	// Reference: positives uniform over (0, 10).
	var ref []float64
	rng := sim.NewRand(2, 0)
	for i := 0; i < 5000; i++ {
		ref = append(ref, rng.Float64()*10)
	}
	s := FitArrivalSymbolizer(ref, 6) // 'a' + 5 positive bins
	sym := s.Symbols([]float64{-1, 0.5, 3, 5, 7, 9.9})
	if sym[0] != 'a' {
		t.Errorf("negative → %c, want a", sym[0])
	}
	if sym[1] != 'b' {
		t.Errorf("small positive → %c, want b", sym[1])
	}
	if sym[5] != 'f' {
		t.Errorf("large positive → %c, want f", sym[5])
	}
	// Monotone: larger values never get smaller symbols.
	for i := 1; i < len(sym); i++ {
		if sym[i] < sym[i-1] {
			t.Errorf("non-monotone symbolization: %s", string(sym))
		}
	}
}

func TestArrivalSymbolizerEmptyRef(t *testing.T) {
	s := FitArrivalSymbolizer(nil, 6)
	sym := s.Symbols([]float64{-1, 0.5, 100})
	if sym[0] != 'a' {
		t.Error("negative must map to 'a' even with empty reference")
	}
}

// TestPatternFrequencies: MergeFrequencies over one string counts the
// relative frequency of its every length-k subsequence.
func TestPatternFrequencies(t *testing.T) {
	sym := []byte("ababab")
	f1 := MergeFrequencies([][]byte{sym}, 1)
	if math.Abs(f1["a"]-0.5) > 1e-12 || math.Abs(f1["b"]-0.5) > 1e-12 {
		t.Errorf("length-1 frequencies: %v", f1)
	}
	f2 := MergeFrequencies([][]byte{sym}, 2)
	// Subsequences: ab ba ab ba ab → ab:3/5, ba:2/5.
	if math.Abs(f2["ab"]-0.6) > 1e-12 || math.Abs(f2["ba"]-0.4) > 1e-12 {
		t.Errorf("length-2 frequencies: %v", f2)
	}
	if len(MergeFrequencies([][]byte{[]byte("a")}, 2)) != 0 {
		t.Error("too-short string should give empty map")
	}
	// Frequencies sum to 1.
	sum := 0.0
	for _, v := range f2 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("frequency mass %v", sum)
	}
}

func TestMergeFrequencies(t *testing.T) {
	syms := [][]byte{[]byte("aaaa"), []byte("bbbb")}
	m := MergeFrequencies(syms, 1)
	if math.Abs(m["a"]-0.5) > 1e-12 || math.Abs(m["b"]-0.5) > 1e-12 {
		t.Errorf("merged: %v", m)
	}
	// Weighting by length: "aaaa" (4 patterns) + "bb" (2 patterns).
	m2 := MergeFrequencies([][]byte{[]byte("aaaa"), []byte("bb")}, 1)
	if math.Abs(m2["a"]-4.0/6) > 1e-12 {
		t.Errorf("weighted merge: %v", m2)
	}
	if len(MergeFrequencies(nil, 1)) != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestDiff(t *testing.T) {
	a := map[string]float64{"a": 0.02, "b": 0.5, "c": 0.48}
	b := map[string]float64{"b": 0.6, "c": 0.39, "d": 0.01}
	res := Diff(a, b, 0.005)
	if len(res.OnlyA) != 1 || res.OnlyA[0] != "a" {
		t.Errorf("OnlyA = %v", res.OnlyA)
	}
	if len(res.OnlyB) != 1 || res.OnlyB[0] != "d" {
		t.Errorf("OnlyB = %v", res.OnlyB)
	}
	both := sort.StringsAreSorted(res.Both)
	if !both || len(res.Both) != 2 {
		t.Errorf("Both = %v", res.Both)
	}
	// Threshold filters.
	res2 := Diff(a, b, 0.1)
	if len(res2.OnlyA) != 0 || len(res2.OnlyB) != 0 {
		t.Errorf("thresholded diff: %+v", res2)
	}
}

// The Fig 8 scenario in miniature: a reordering trace's symbols contain
// 'a'; an in-order trace's do not; Diff discovers exactly that.
func TestBehaviourDiscoveryScenario(t *testing.T) {
	rng := sim.NewRand(3, 0)
	var gt, sim_ []float64
	for i := 0; i < 2000; i++ {
		v := rng.Float64() * 5
		gt = append(gt, v)
		sim_ = append(sim_, v)
	}
	// 2% reordering in ground truth only.
	for i := 0; i < len(gt); i += 50 {
		gt[i] = -1
	}
	s := FitArrivalSymbolizer(gt, 6)
	fGT := MergeFrequencies([][]byte{s.Symbols(gt)}, 1)
	fSim := MergeFrequencies([][]byte{s.Symbols(sim_)}, 1)
	res := Diff(fGT, fSim, 0.001)
	if len(res.OnlyA) != 1 || res.OnlyA[0] != "a" {
		t.Errorf("discovery failed: OnlyA=%v", res.OnlyA)
	}
	if math.Abs(fGT["a"]-0.02) > 0.002 {
		t.Errorf("'a' frequency %v, want ≈0.02", fGT["a"])
	}
}
