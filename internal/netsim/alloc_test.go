package netsim

import (
	"runtime"
	"testing"

	"ibox/internal/sim"
)

// TestNewBuildsOnlyUsedSources bounds what netsim.New allocates for a
// path with no loss, jitter, reordering or cellular model: below one
// math/rand source (≈4.9 KB), so it builds none of the four it used to
// build for every path. Each of those features still builds its own.
func TestNewBuildsOnlyUsedSources(t *testing.T) {
	const n = 50
	bytesPerNew := func(cfg Config) float64 {
		sched := sim.NewScheduler()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			New(sched, cfg)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	const source = 4096 // bytes; a math/rand source is ≈4.9 KB
	plain := bytesPerNew(basicCfg())
	if plain >= source {
		t.Errorf("New allocates %.0f B for a path that draws no random numbers, want < %d", plain, source)
	}
	for name, set := range map[string]func(*Config){
		"loss":    func(c *Config) { c.LossProb = 0.01 },
		"jitter":  func(c *Config) { c.Jitter = sim.Millisecond },
		"reorder": func(c *Config) { c.Reorder = &ReorderModel{Prob: 0.01, ExtraMax: sim.Millisecond} },
		"cellular": func(c *Config) {
			c.Cellular = &CellularModel{Interval: 100 * sim.Millisecond, Sigma: 0.2, MinShare: 0.5, MaxShare: 1.5}
		},
	} {
		cfg := basicCfg()
		set(&cfg)
		if got := bytesPerNew(cfg); got-plain < source {
			t.Errorf("%s: New allocates %.0f B, %.0f more than a plain path; want a random source's worth", name, got, got-plain)
		}
	}
}
