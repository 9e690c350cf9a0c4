package experiments

import (
	"runtime"
	"testing"

	"ibox/internal/par"
	"ibox/internal/sim"
)

// BenchmarkOfflinePass runs one pass of the offline pipeline — Fig 2,
// Fig 3 and Table 1 — at the size of the bench/ harness's
// offline_pipeline workload (12 ensemble traces, 36 RTC traces, 4
// epochs, 10-s flows) on one shared two-worker pool, cycling the corpus
// seed over 1..8 as that workload does. Run it with -benchmem: B/op is
// the bytes allocated per pass, and gc/op the collector cycles a pass
// costs at the default GOGC.
//
//	go test -run '^$' -bench OfflinePass -benchtime 8x -benchmem ./internal/experiments
func BenchmarkOfflinePass(b *testing.B) {
	pool := par.NewPool(2)
	defer pool.Close()
	s := Scale{EnsembleTraces: 12, TraceDur: 10 * sim.Second, RTCTraces: 36, MLEpochs: 4, Pool: pool}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = 1 + int64(i)%8
		if _, err := Fig2(s); err != nil {
			b.Fatal(err)
		}
		if _, err := Fig3(s); err != nil {
			b.Fatal(err)
		}
		if _, err := Table1(s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.NumGC-gc0)/float64(b.N), "gc/op")
}
