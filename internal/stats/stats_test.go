package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ibox/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty slice should give NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{50, 3}, {0, 1}, {100, 5}, {25, 2}, {-3, 1}, {140, 5},
		{10, 1.4}, // rank 0.4: interpolated between 1 and 2
	} {
		if got := PercentileSorted(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(PercentileSorted(nil, 50)) {
		t.Error("empty slice should give NaN")
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("bad summary: %+v", s)
	}
	if !almost(s.P50, 50.5, 1e-9) || !almost(s.Mean, 50.5, 1e-9) {
		t.Errorf("P50=%v Mean=%v, want 50.5", s.P50, s.Mean)
	}
	if !almost(s.P25, 25.75, 1e-9) || !almost(s.P75, 75.25, 1e-9) {
		t.Errorf("P25=%v P75=%v", s.P25, s.P75)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty summary should be NaN")
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	rng := sim.NewRand(1, 0)
	var a []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
	}
	r := KSTest(a, a)
	if r.Statistic != 0 {
		t.Errorf("KS statistic of identical samples = %v, want 0", r.Statistic)
	}
	if r.PValue < 0.99 {
		t.Errorf("p-value = %v, want ≈1", r.PValue)
	}
}

func TestKSSameDistribution(t *testing.T) {
	rng := sim.NewRand(2, 0)
	var a, b []float64
	for i := 0; i < 800; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
	}
	r := KSTest(a, b)
	if r.PValue < 0.01 {
		t.Errorf("same-distribution samples rejected: D=%v p=%v", r.Statistic, r.PValue)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	rng := sim.NewRand(3, 0)
	var a, b []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64()+1) // shifted
	}
	r := KSTest(a, b)
	if r.PValue > 1e-6 {
		t.Errorf("shifted distributions not detected: D=%v p=%v", r.Statistic, r.PValue)
	}
	if r.Statistic < 0.2 {
		t.Errorf("KS statistic %v too small for unit shift", r.Statistic)
	}
}

func TestKSEmpty(t *testing.T) {
	r := KSTest(nil, []float64{1})
	if !math.IsNaN(r.Statistic) {
		t.Error("empty sample should give NaN")
	}
}

func TestKSStatisticExact(t *testing.T) {
	// a = {1,2,3,4}, b = {3,4,5,6}: max CDF gap is 0.5 at value 2..3.
	r := KSTest([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	if !almost(r.Statistic, 0.5, 1e-12) {
		t.Errorf("KS statistic = %v, want 0.5", r.Statistic)
	}
}

func TestECDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	at := []float64{0, 1, 2.5, 4, 10}
	got := ECDF(xs, at)
	want := []float64{0, 0.25, 0.5, 1, 1}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Errorf("ECDF[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCrossCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if c := CrossCorrelation(a, a); !almost(c, 1, 1e-12) {
		t.Errorf("self correlation = %v", c)
	}
	b := []float64{5, 4, 3, 2, 1}
	if c := CrossCorrelation(a, b); !almost(c, -1, 1e-12) {
		t.Errorf("anti correlation = %v", c)
	}
	if c := CrossCorrelation(a, []float64{2, 2, 2, 2, 2}); c != 0 {
		t.Errorf("constant series correlation = %v, want 0", c)
	}
	// Unequal lengths truncate.
	if c := CrossCorrelation(a, []float64{1, 2, 3}); !almost(c, 1, 1e-12) {
		t.Errorf("truncated correlation = %v", c)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := sim.NewRand(5, 0)
	var pts [][]float64
	var truth []int
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for c, ctr := range centers {
		for i := 0; i < 30; i++ {
			pts = append(pts, []float64{ctr[0] + rng.NormFloat64(), ctr[1] + rng.NormFloat64()})
			truth = append(truth, c)
		}
	}
	res := KMeans(pts, 3, 1)
	if purity := ClusterPurity(res.Assignment, truth); purity != 1 {
		t.Errorf("purity = %v, want 1 for well-separated clusters", purity)
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %v, want > 0", res.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	rng := sim.NewRand(6, 0)
	var pts [][]float64
	for i := 0; i < 50; i++ {
		pts = append(pts, []float64{rng.Float64(), rng.Float64()})
	}
	a := KMeans(pts, 4, 9)
	b := KMeans(pts, 4, 9)
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("k-means not deterministic for fixed seed")
		}
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k > n did not panic")
		}
	}()
	KMeans([][]float64{{1}}, 2, 0)
}

func TestClusterPurity(t *testing.T) {
	if p := ClusterPurity([]int{0, 0, 1, 1}, []int{5, 5, 9, 9}); p != 1 {
		t.Errorf("purity = %v, want 1", p)
	}
	if p := ClusterPurity([]int{0, 0, 0, 0}, []int{0, 0, 1, 1}); p != 0.5 {
		t.Errorf("purity = %v, want 0.5", p)
	}
	if p := ClusterPurity([]int{0}, []int{0, 1}); p != 0 {
		t.Errorf("mismatched lengths purity = %v, want 0", p)
	}
}

func TestTSNEPreservesClusters(t *testing.T) {
	rng := sim.NewRand(8, 0)
	var pts [][]float64
	var truth []int
	for c := 0; c < 3; c++ {
		for i := 0; i < 12; i++ {
			pts = append(pts, []float64{
				float64(c)*20 + rng.NormFloat64(),
				float64(c)*-15 + rng.NormFloat64(),
				rng.NormFloat64(),
			})
			truth = append(truth, c)
		}
	}
	emb := TSNE(pts, TSNEConfig{Seed: 2, Iterations: 400})
	if len(emb) != len(pts) {
		t.Fatalf("embedding length %d", len(emb))
	}
	// Clusters must remain separable in the embedding: k-means on the 2-D
	// output recovers the labels.
	pts2 := make([][]float64, len(emb))
	for i, e := range emb {
		pts2[i] = []float64{e[0], e[1]}
	}
	res := KMeans(pts2, 3, 3)
	if purity := ClusterPurity(res.Assignment, truth); purity < 0.9 {
		t.Errorf("t-SNE purity = %v, want ≥ 0.9", purity)
	}
}

func TestTSNEEmpty(t *testing.T) {
	if out := TSNE(nil, TSNEConfig{}); out != nil {
		t.Error("TSNE(nil) should be nil")
	}
}

// Property: KS statistic is symmetric and within [0,1].
func TestKSProperty(t *testing.T) {
	prop := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		r1 := KSTest(a, b)
		r2 := KSTest(b, a)
		return almost(r1.Statistic, r2.Statistic, 1e-12) &&
			r1.Statistic >= 0 && r1.Statistic <= 1 &&
			r1.PValue >= 0 && r1.PValue <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cross-correlation is bounded in [-1, 1] and symmetric.
func TestCrossCorrelationProperty(t *testing.T) {
	clamp := func(xs []float64) {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			// Keep magnitudes small enough that squared sums cannot overflow.
			xs[i] = math.Mod(xs[i], 1e6)
		}
	}
	prop := func(a, b []float64) bool {
		clamp(a)
		clamp(b)
		c1 := CrossCorrelation(a, b)
		c2 := CrossCorrelation(b, a)
		if len(a) != len(b) {
			// Truncation makes asymmetric inputs incomparable; only check bounds.
			return c1 >= -1-1e-9 && c1 <= 1+1e-9
		}
		return almost(c1, c2, 1e-9) && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
