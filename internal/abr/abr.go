// Package abr implements an adaptive-bitrate video client — the
// application workload behind the paper's realism argument. §6 proposes
// defining realism "in terms of the application performance; e.g., whether
// the performance of an application that has been tuned using the
// simulator holds up in the actual network", and the paper's §1/§7 cite
// Pensieve's misleading trace-replay evaluation as the cautionary tale.
//
// The client is the classic buffer-based controller (BBA-style): it picks
// each chunk's bitrate from the current playback-buffer level, downloads
// the chunk over a closed-loop congestion-controlled transfer, and
// accounts playback, rebuffering and quality switches. Because downloads
// run over the same cc.Flow/Port machinery as everything else, the same
// ABR session runs unchanged on the ground-truth simulator and on a learnt
// iBoxNet model — enabling the tune-on-model, validate-on-truth experiment.
package abr

import (
	"fmt"

	"ibox/internal/cc"
	"ibox/internal/sim"
)

// Config parameterizes an ABR session.
type Config struct {
	// Bitrates are the available encoding rates, bits/sec, ascending.
	Bitrates []float64
	// ChunkDur is each chunk's media duration (default 2 s).
	ChunkDur sim.Time
	// Chunks is how many chunks the session plays (required).
	Chunks int
	// LowBuffer and HighBuffer are the buffer-based controller's knobs:
	// below LowBuffer the client picks the lowest bitrate; above
	// HighBuffer the highest; in between it interpolates linearly over the
	// bitrate ladder (Huang et al.'s BBA-0). Defaults 5 s / 15 s.
	LowBuffer, HighBuffer sim.Time
	// StartupBuffer is the buffer level at which playback starts
	// (default one chunk).
	StartupBuffer sim.Time
	// Protocol is the transport used for chunk downloads (default cubic).
	Protocol string
	// AckDelay is the return-path delay for the transfers.
	AckDelay sim.Time
}

func (c Config) withDefaults() Config {
	if c.ChunkDur <= 0 {
		c.ChunkDur = 2 * sim.Second
	}
	if c.LowBuffer <= 0 {
		c.LowBuffer = 5 * sim.Second
	}
	if c.HighBuffer <= c.LowBuffer {
		c.HighBuffer = c.LowBuffer + 10*sim.Second
	}
	if c.StartupBuffer <= 0 {
		c.StartupBuffer = c.ChunkDur
	}
	if c.Protocol == "" {
		c.Protocol = "cubic"
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 20 * sim.Millisecond
	}
	return c
}

// Result summarizes a session — the application-level metrics the §6
// realism test compares.
type Result struct {
	// MeanBitrateMbps is the average selected encoding rate.
	MeanBitrateMbps float64
	// RebufferSec is the total stall time after startup.
	RebufferSec float64
	// StartupSec is the time to first play.
	StartupSec float64
	// Switches counts bitrate changes between consecutive chunks.
	Switches int
	// QoE is the Pensieve-style linear score:
	// mean bitrate (Mbps) − 4.3·rebuffer fraction·maxBitrate − smoothness penalty.
	QoE float64
}

func (r Result) String() string {
	return fmt.Sprintf("abr.Result{bitrate=%.2f Mbps, rebuffer=%.1fs, startup=%.1fs, switches=%d, QoE=%.2f}",
		r.MeanBitrateMbps, r.RebufferSec, r.StartupSec, r.Switches, r.QoE)
}

// Network is the send-side contract chunk downloads run over (netsim.Port,
// netsim.ChainPort and the iBoxNet emulator's port all satisfy it).
type Network interface {
	Now() sim.Time
	Send(size int, onDeliver func(recv sim.Time), onDrop func())
}

// Run plays a session over the given network on the scheduler and returns
// the application metrics. The caller drives the scheduler; Run schedules
// everything and returns a handle whose Result is valid once Done.
func Run(sched *sim.Scheduler, net Network, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Bitrates) == 0 || cfg.Chunks <= 0 {
		return nil, fmt.Errorf("abr: need bitrates and a positive chunk count")
	}
	s := &Session{sched: sched, net: net, cfg: cfg}
	sched.At(sched.Now(), s.nextChunk)
	return s, nil
}

// Session is a running ABR client.
type Session struct {
	sched *sim.Scheduler
	net   Network
	cfg   Config

	chunk      int
	lastLevel  int
	buffer     sim.Time // media seconds buffered, as sim time
	lastUpdate sim.Time
	playing    bool
	started    bool
	startAt    sim.Time
	rebuffer   sim.Time
	bitrateSum float64
	switches   int
	done       bool
}

// Done reports whether the session has played all chunks' downloads.
func (s *Session) Done() bool { return s.done }

// advanceBuffer drains the playback buffer for elapsed wall time and
// accounts rebuffering.
func (s *Session) advanceBuffer() {
	now := s.sched.Now()
	elapsed := now - s.lastUpdate
	s.lastUpdate = now
	if !s.started {
		return
	}
	if s.playing {
		s.buffer -= elapsed
		if s.buffer < 0 {
			s.rebuffer += -s.buffer
			s.buffer = 0
			s.playing = false
		}
	} else {
		s.rebuffer += elapsed
	}
}

// pickLevel is the buffer-based (BBA-0) bitrate map.
func (s *Session) pickLevel() int {
	n := len(s.cfg.Bitrates)
	switch {
	case s.buffer <= s.cfg.LowBuffer:
		return 0
	case s.buffer >= s.cfg.HighBuffer:
		return n - 1
	default:
		frac := float64(s.buffer-s.cfg.LowBuffer) / float64(s.cfg.HighBuffer-s.cfg.LowBuffer)
		lvl := int(frac * float64(n-1))
		if lvl >= n {
			lvl = n - 1
		}
		return lvl
	}
}

// nextChunk starts the next chunk download (or finishes the session).
func (s *Session) nextChunk() {
	s.advanceBuffer()
	if s.chunk >= s.cfg.Chunks {
		s.done = true
		return
	}
	level := s.pickLevel()
	if s.chunk > 0 && level != s.lastLevel {
		s.switches++
	}
	s.lastLevel = level
	bitrate := s.cfg.Bitrates[level]
	s.bitrateSum += bitrate
	chunkBytes := int64(bitrate * s.cfg.ChunkDur.Seconds() / 8)
	if chunkBytes < 1500 {
		chunkBytes = 1500
	}
	sender, err := cc.NewSender(s.cfg.Protocol, 1500)
	if err != nil {
		// Config was validated at Run; an unknown protocol here is a bug.
		panic(err)
	}
	s.chunk++
	flow := cc.NewFlow(s.sched, s.net, sender, cc.FlowConfig{
		Duration: 10 * 60 * sim.Second, // byte limit governs
		Bytes:    chunkBytes,
		AckDelay: s.cfg.AckDelay,
		NoTrace:  true, // only the completion time is used
		OnComplete: func(at sim.Time) {
			s.advanceBuffer()
			s.buffer += s.cfg.ChunkDur
			if !s.started && s.buffer >= s.cfg.StartupBuffer {
				s.started = true
				s.playing = true
				s.startAt = at
			}
			if s.started && !s.playing && s.buffer > 0 {
				s.playing = true
			}
			s.nextChunk()
		},
	})
	flow.Start()
}

// Result returns the session metrics; call once Done.
func (s *Session) Result() Result {
	maxMbps := s.cfg.Bitrates[len(s.cfg.Bitrates)-1] / 1e6
	mean := s.bitrateSum / float64(s.cfg.Chunks) / 1e6
	playSec := float64(s.cfg.Chunks) * s.cfg.ChunkDur.Seconds()
	rebufFrac := s.rebuffer.Seconds() / playSec
	qoe := mean - 4.3*rebufFrac*maxMbps - float64(s.switches)/float64(s.cfg.Chunks)*mean*0.5
	return Result{
		MeanBitrateMbps: mean,
		RebufferSec:     s.rebuffer.Seconds(),
		StartupSec:      s.startAt.Seconds(),
		Switches:        s.switches,
		QoE:             qoe,
	}
}
