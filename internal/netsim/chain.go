package netsim

import (
	"fmt"

	"ibox/internal/sim"
)

// Chain is a multi-hop network path: a sequence of store-and-forward hops,
// each with its own service rate, FIFO byte-limited queue and propagation
// delay. It exists to stress iBoxNet's single-bottleneck assumption
// (§3.2: the model family covers one bottleneck link; real paths have
// several queues, usually with one dominating) and to host cross traffic
// that joins or leaves at interior hops.
type Chain struct {
	sched *sim.Scheduler
	hops  []*link
	cfg   []HopConfig
}

// HopConfig describes one hop of a chain.
type HopConfig struct {
	Rate        float64  // bytes per second
	BufferBytes int      // FIFO capacity
	PropDelay   sim.Time // propagation after this hop's queue
}

// NewChain builds a chain on the scheduler; it panics on an invalid
// configuration (construction-time misuse).
func NewChain(sched *sim.Scheduler, hops []HopConfig) *Chain {
	if len(hops) == 0 {
		panic("netsim: chain needs at least one hop")
	}
	c := &Chain{sched: sched, cfg: hops}
	for i, h := range hops {
		if h.Rate <= 0 || h.BufferBytes <= 0 || h.PropDelay < 0 {
			panic(fmt.Sprintf("netsim: invalid hop %d: %+v", i, h))
		}
		c.hops = append(c.hops, newLink(sched, h.Rate, h.BufferBytes))
	}
	return c
}

// QueueBytes returns hop i's current backlog.
func (c *Chain) QueueBytes(i int) int { return c.hops[i].queuedBytes }

// ChainPort is a flow's handle onto the chain (same contract as
// Path's Port: the cc.Network send side).
type ChainPort struct {
	chain *Chain
	name  string
}

// Port creates a named attachment point entering at the first hop.
func (c *Chain) Port(name string) *ChainPort { return &ChainPort{chain: c, name: name} }

// Now returns the current simulation time.
func (cp *ChainPort) Now() sim.Time { return cp.chain.sched.Now() }

// Send injects a packet at hop 0; it traverses every hop's queue and
// propagation in order. Exactly one of the callbacks eventually fires.
func (cp *ChainPort) Send(size int, onDeliver func(recv sim.Time), onDrop func()) {
	cp.chain.inject(0, size, onDeliver, onDrop)
}

// inject enqueues at hop i and forwards onward on service completion.
func (c *Chain) inject(i int, size int, onDeliver func(recv sim.Time), onDrop func()) {
	if i >= len(c.hops) {
		if onDeliver != nil {
			onDeliver(c.sched.Now())
		}
		return
	}
	ok := c.hops[i].enqueue(size, func() {
		c.sched.After(c.cfg[i].PropDelay, func() {
			c.inject(i+1, size, onDeliver, onDrop)
		})
	})
	if !ok {
		if onDrop != nil {
			onDrop()
		}
	}
}

// AddCrossTraffic attaches an open-loop source at the given hop; its bytes
// occupy that hop's queue only (they exit the path there, like traffic
// merging and diverging at an interior router).
func (c *Chain) AddCrossTraffic(hop int, src CrossTraffic) {
	if hop < 0 || hop >= len(c.hops) {
		panic(fmt.Sprintf("netsim: cross-traffic hop %d out of range", hop))
	}
	l := c.hops[hop]
	src.start(injector{sched: c.sched, enqueue: func(size int) {
		l.enqueue(size, nil)
	}})
}
