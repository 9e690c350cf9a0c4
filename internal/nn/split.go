package nn

import (
	"runtime"
	"sync/atomic"
)

// Split steps one lane on two goroutines: the lane's own (the owner) and
// at most one helper borrowed from an idle pool worker. A stack's layers
// cannot overlap — in a closed-loop unroll layer 0 at step t+1 needs the
// top layer's output at step t — but the units of one layer can: unit j
// reads only the layer's input, the previous h and its own weight block.
// So each layer-step splits at mid = splitAt(Hidden): the owner publishes
// the upper half [mid, Hidden) as a task, runs [0, mid) itself, and then
// claims the upper half too unless the helper already has. Exactly one
// of them wins the claim (a compare-and-swap on state), so the owner
// never waits on a task nobody has claimed, and the next layer starts
// only once both halves of h are written. Each unit's arithmetic is
// unchanged, so a split step gives StepInto's bits whether the helper
// runs every upper half, some or none.
//
// The helper polls for open tasks and yields between polls (pause). It
// leaves when the owner releases the Split — the unroll is over — or as
// soon as its leave function reports other work waiting for a worker, so
// a borrowed core goes back within one layer-step; the owner may recruit
// again later (Recruit).
//
// The owner is the one goroutine that calls StepInto, Recruit and
// Release; they must not run concurrently.
type Split struct {
	state   atomic.Int32 // taskIdle, taskOpen, taskHelper or taskDone
	task    unitTask     // the published upper half; the owner writes it only while no helper holds it
	stop    atomic.Bool  // set by Release: the helper leaves
	helping atomic.Bool  // a recruited helper job has not left yet
	leave   func() bool
	helper  func() // the helper job Recruit offers, built once

	// Owner-side tallies: upper halves published and those a helper ran.
	Halves, Helped int
}

// A Split's task states. The owner moves idle/done → open (publish) and
// open → idle (claiming the task for itself); the helper moves open →
// helper (its claim) and helper → done.
const (
	taskIdle int32 = iota
	taskOpen
	taskHelper
	taskDone
)

// NewSplit returns a Split with no helper. leave, when non-nil, is the
// helper's yield rule, checked whenever it finds no open task.
func NewSplit(leave func() bool) *Split {
	sp := &Split{leave: leave}
	sp.helper = sp.help
	return sp
}

// Splits reports whether a Split can share this stack's layer-steps: its
// layers are wide enough (Hidden ≥ 8) to cut into two halves of whole
// SIMD groups. Stepping a narrower stack with a Split is correct but
// leaves the helper nothing to do.
func (im *InferModel) Splits() bool {
	_, hidden, _ := im.Arch()
	return splitAt(hidden) > 0
}

// StepInto is im.StepInto with every layer's upper unit half offered to
// the helper; the bits are StepInto's. A nil Split steps alone, as
// im.StepInto does.
func (sp *Split) StepInto(im *InferModel, st *InferState, x []float64) []float64 {
	im.stepLane(st, x, nil, 0, sp)
	return st.top()
}

// Recruit offers the helper job through tryGo (par.Pool.TryGo) unless a
// helper is already attached, and reports whether a helper is attached
// now. It must not be called after Release.
func (sp *Split) Recruit(tryGo func(func()) bool) bool {
	if sp.helping.Load() {
		return true
	}
	sp.helping.Store(true)
	if !tryGo(sp.helper) {
		sp.helping.Store(false)
		return false
	}
	return true
}

// Release ends the Split's unroll: it tells the helper to leave and
// returns once no helper job is running. A nil Split has nothing to
// release.
func (sp *Split) Release() {
	if sp == nil {
		return
	}
	sp.stop.Store(true)
	for sp.helping.Load() {
		pause()
	}
}

// publish opens t for the helper.
func (sp *Split) publish(t unitTask) {
	sp.task = t
	sp.Halves++
	sp.state.Store(taskOpen)
}

// finish completes the published task: the owner runs it if the helper
// has not claimed it, and otherwise waits for the helper, which is
// running it now.
func (sp *Split) finish() {
	if beforeClaim != nil {
		beforeClaim(sp)
	}
	if sp.state.CompareAndSwap(taskOpen, taskIdle) {
		sp.task.run()
		return
	}
	sp.Helped++
	for sp.state.Load() != taskDone {
		pause()
	}
}

// beforeClaim, set only by tests, runs in finish before the owner tries
// to claim the published task back, so a test can hold the owner until
// the helper has claimed.
var beforeClaim func(sp *Split)

// help is the helper job: it runs every task it claims until the Split
// is released or leave reports work waiting for its worker.
func (sp *Split) help() {
	defer sp.helping.Store(false)
	for !sp.stop.Load() {
		if sp.state.Load() == taskOpen && sp.state.CompareAndSwap(taskOpen, taskHelper) {
			sp.task.run()
			sp.state.Store(taskDone)
			continue
		}
		if sp.leave != nil && sp.leave() {
			return
		}
		pause()
	}
}

// pause is one round of a spin-wait on the other side of a Split. It
// yields the P (runtime.Gosched), so goroutines queued behind a waiting
// owner or an idle helper run, and then the OS thread (osYield): when
// the kernel has put the owner's and the helper's threads on one CPU,
// runtime.Gosched alone would spin out the waiter's time slice while the
// thread it waits for cannot run. Measured at the start of a daemon's
// life on 2 vCPU, that stacking ran a 256×4 lane at half its unhelped
// speed, with the helper claiming ≈2 % of the upper halves.
func pause() {
	runtime.Gosched()
	osYield()
}
