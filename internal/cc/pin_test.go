//go:build go1.24

package cc

import (
	"runtime"
	"testing"
	"weak"

	"ibox/internal/netsim"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// TestTraceDoesNotPinFlow: a flow's trace is an allocation of its own, so
// a caller that keeps only the trace lets the collector take the flow,
// its scheduler and its network — a kept corpus costs its records, not
// its simulators.
func TestTraceDoesNotPinFlow(t *testing.T) {
	tr, flow, sched, path := pinnedRun()
	want := len(tr.Packets)
	runtime.GC()
	for name, p := range map[string]func() bool{
		"Flow":      func() bool { return flow.Value() != nil },
		"Scheduler": func() bool { return sched.Value() != nil },
		"Path":      func() bool { return path.Value() != nil },
	} {
		if p() {
			t.Errorf("the %s is still reachable while only its trace is kept", name)
		}
	}
	if len(tr.Packets) != want || tr.Validate() != nil {
		t.Fatalf("kept trace changed: %d packets, want %d", len(tr.Packets), want)
	}
	runtime.KeepAlive(tr)
}

// pinnedRun runs a short flow and returns its trace with weak pointers to
// everything else it built.
func pinnedRun() (*trace.Trace, weak.Pointer[Flow], weak.Pointer[sim.Scheduler], weak.Pointer[netsim.Path]) {
	sched := sim.NewScheduler()
	path := netsim.New(sched, tenMbps())
	flow := NewFlow(sched, path.Port("main"), NewCubic(), FlowConfig{Duration: 2 * sim.Second, AckDelay: 20 * sim.Millisecond})
	flow.Start()
	sched.RunUntil(3 * sim.Second)
	return flow.Trace(), weak.Make(flow), weak.Make(sched), weak.Make(path)
}
