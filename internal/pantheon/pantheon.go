// Package pantheon generates the synthetic trace corpus that stands in for
// the Pantheon testbed data the paper evaluates on (Yan et al., USENIX ATC
// 2018). The real corpus — tens of thousands of 30-second traces between
// AWS and clients in 8 countries — is proprietary data we cannot ship, so
// this package recreates its role: families of network-path instances
// ("profiles", e.g. an India-cellular-like path) are sampled from
// parameterized distributions, real congestion-control implementations are
// run over the ground-truth simulator (internal/netsim) on each instance,
// and the resulting input–output traces form the training/evaluation
// corpus that iBoxNet and iBoxML consume.
//
// Because each instance's true configuration is retained, the package also
// provides what a real testbed cannot: the ability to re-run a *different*
// protocol on the *same* instance (identical path and cross-traffic
// workload), which is the ground truth that the paper's instance and
// ensemble tests (§2) are judged against.
package pantheon

import (
	"fmt"
	"math/rand"
	"time"

	"ibox/internal/cc"
	"ibox/internal/netsim"
	"ibox/internal/obs"
	"ibox/internal/par"
	"ibox/internal/sim"
	"ibox/internal/trace"
)

// Profile is a family of network paths: each Sample draws one concrete
// instance from the family's parameter distributions.
type Profile struct {
	Name string
	// Rate bounds, bytes/sec.
	RateMin, RateMax float64
	// One-way propagation delay bounds.
	DelayMin, DelayMax sim.Time
	// Buffer depth bounds, expressed in milliseconds at the sampled rate
	// (the common bufferbloat parameterization).
	BufferMsMin, BufferMsMax float64
	// Cellular, when true, adds a time-varying rate share (proportional-
	// fair-like), as on the paper's India Cellular path.
	Cellular bool
	// CellularSigma is the volatility of the cellular rate walk.
	CellularSigma float64
	// ReorderProbMax, when positive, enables multipath reordering with a
	// per-instance probability drawn from [0, ReorderProbMax].
	ReorderProbMax float64
	// RandomLossMax, when positive, enables non-congestive random loss
	// with a per-instance probability drawn from [0, RandomLossMax].
	RandomLossMax float64
	// CrossTraffic toggles the random competing-workload mixture.
	CrossTraffic bool
}

// IndiaCellular approximates the paper's stress-test path: a few-Mbps,
// highly variable cellular bottleneck with moderate delay, deep buffers
// and bursty competing traffic.
func IndiaCellular() Profile {
	return Profile{
		Name:          "india-cellular",
		RateMin:       375_000,   // 3 Mbps
		RateMax:       1_500_000, // 12 Mbps
		DelayMin:      30 * sim.Millisecond,
		DelayMax:      70 * sim.Millisecond,
		BufferMsMin:   150,
		BufferMsMax:   500,
		Cellular:      true,
		CellularSigma: 0.25,
		CrossTraffic:  true,
	}
}

// Ethernet approximates a wired path: fast, stable, shallow-buffered.
func Ethernet() Profile {
	return Profile{
		Name:         "ethernet",
		RateMin:      6_250_000,  // 50 Mbps
		RateMax:      12_500_000, // 100 Mbps
		DelayMin:     10 * sim.Millisecond,
		DelayMax:     40 * sim.Millisecond,
		BufferMsMin:  30,
		BufferMsMax:  100,
		CrossTraffic: true,
	}
}

// Satellite approximates a GEO satellite path: high propagation delay,
// moderate rate, deep buffers — the regime where delay-based protocols'
// base-RTT filters and the estimator's min-delay assumption are stressed.
func Satellite() Profile {
	return Profile{
		Name:         "satellite",
		RateMin:      1_250_000, // 10 Mbps
		RateMax:      2_500_000, // 20 Mbps
		DelayMin:     250 * sim.Millisecond,
		DelayMax:     320 * sim.Millisecond,
		BufferMsMin:  400,
		BufferMsMax:  1000,
		CrossTraffic: true,
	}
}

// WiredLoss approximates a wired path with residual random loss (e.g. a
// noisy last-mile): stable rate but non-congestive packet loss, the
// environment the statistical-loss variant was built for.
func WiredLoss() Profile {
	p := Ethernet()
	p.Name = "wired-loss"
	p.RandomLossMax = 0.02
	return p
}

// CellularReorder is the India-cellular profile with multipath reordering
// enabled — the corpus behind the reordering studies of Fig 5 and Fig 8
// (iBoxNet's single FIFO bottleneck cannot produce reordering, so these
// paths expose exactly the behaviour-discovery gap §5.1 studies).
func CellularReorder() Profile {
	p := IndiaCellular()
	p.Name = "cellular-reorder"
	p.ReorderProbMax = 0.06
	return p
}

// Instance is one concrete sampled network path plus its competing
// workload — the "particular path at a particular time" of §2.
type Instance struct {
	ID           string
	Net          netsim.Config
	CrossTraffic []netsim.CrossTraffic
	// CTDescription summarizes the sampled workload for diagnostics.
	CTDescription string
}

// Sample draws instance i of the profile, deterministically in (profile,
// seed, i).
func (pr Profile) Sample(seed int64, i int) Instance {
	rng := sim.NewRand(seed, int64(i)*1000+7)
	rate := pr.RateMin + rng.Float64()*(pr.RateMax-pr.RateMin)
	delay := pr.DelayMin + sim.Time(rng.Float64()*float64(pr.DelayMax-pr.DelayMin))
	bufMs := pr.BufferMsMin + rng.Float64()*(pr.BufferMsMax-pr.BufferMsMin)
	cfg := netsim.Config{
		Rate:        rate,
		BufferBytes: int(rate * bufMs / 1000),
		PropDelay:   delay,
		Seed:        seed*1_000_003 + int64(i),
	}
	if pr.Cellular {
		cfg.Cellular = &netsim.CellularModel{
			Interval: 100 * sim.Millisecond,
			Sigma:    pr.CellularSigma,
			MinShare: 0.4,
			MaxShare: 1.3,
		}
	}
	if pr.ReorderProbMax > 0 {
		cfg.Reorder = &netsim.ReorderModel{
			Prob:     0.01 + rng.Float64()*(pr.ReorderProbMax-0.01),
			ExtraMin: 0,
			ExtraMax: 4 * sim.Millisecond,
		}
	}
	if pr.RandomLossMax > 0 {
		cfg.LossProb = rng.Float64() * pr.RandomLossMax
	}
	inst := Instance{
		ID:  fmt.Sprintf("%s-%d", pr.Name, i),
		Net: cfg,
	}
	if pr.CrossTraffic {
		inst.CrossTraffic, inst.CTDescription = sampleCrossTraffic(rng, rate, cfg.Seed)
	}
	return inst
}

// sampleCrossTraffic draws a random competing workload: a Poisson
// background (0–40% of capacity) and possibly an on/off burst component.
func sampleCrossTraffic(rng *rand.Rand, rate float64, seed int64) ([]netsim.CrossTraffic, string) {
	var cts []netsim.CrossTraffic
	desc := ""
	bg := rng.Float64() * 0.4 * rate
	if bg > 0.02*rate {
		cts = append(cts, netsim.Poisson{MeanRate: bg, Seed: seed + 1})
		desc += fmt.Sprintf("poisson=%.0fB/s ", bg)
	}
	if rng.Float64() < 0.6 {
		burst := (0.2 + rng.Float64()*0.5) * rate
		on := sim.Time(1+rng.Intn(4)) * sim.Second
		off := sim.Time(2+rng.Intn(6)) * sim.Second
		from := sim.Time(rng.Intn(5)) * sim.Second
		cts = append(cts, netsim.OnOff{Rate: burst, OnDur: on, OffDur: off, From: from})
		desc += fmt.Sprintf("onoff=%.0fB/s on=%v off=%v from=%v", burst, on, off, from)
	}
	return cts, desc
}

// Run executes one protocol over the instance's ground-truth path for the
// given duration and returns its trace. Distinct runSeed values give
// independent runs on the same instance (the paper's repeated Vegas runs
// in the instance test).
func (inst Instance) Run(protocol string, dur sim.Time, runSeed int64) (*trace.Trace, error) {
	sender, err := cc.NewSender(protocol, 1500)
	if err != nil {
		return nil, err
	}
	return inst.RunSender(sender, dur, runSeed)
}

// RunSender is Run with a caller-constructed sender.
func (inst Instance) RunSender(sender cc.Sender, dur sim.Time, runSeed int64) (*trace.Trace, error) {
	flow, err := inst.run(sender, dur, runSeed, false)
	if err != nil {
		return nil, err
	}
	tr := flow.Trace()
	tr.PathID = inst.ID
	return tr, nil
}

// LendRun is Run for a caller that only reduces the trace to numbers: it
// lends the trace to use instead of returning it. The flow records into
// a packet array borrowed from the trace package (trace.Borrow), given
// back when use returns, so the run allocates no trace of its own. use
// must keep neither the trace nor its packets.
func (inst Instance) LendRun(protocol string, dur sim.Time, runSeed int64, use func(*trace.Trace)) error {
	sender, err := cc.NewSender(protocol, 1500)
	if err != nil {
		return err
	}
	flow, err := inst.run(sender, dur, runSeed, true)
	if err != nil {
		return err
	}
	tr := flow.Trace()
	tr.PathID = inst.ID
	use(tr)
	trace.Return(tr.Packets)
	return nil
}

// run drives sender over the instance's ground-truth path until the flow
// has ended and returns the flow. A lent run's flow records into a
// borrowed packet array (see LendRun).
func (inst Instance) run(sender cc.Sender, dur sim.Time, runSeed int64, lent bool) (*cc.Flow, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("pantheon: non-positive duration %v", dur)
	}
	sched := sim.NewScheduler()
	cfg := inst.Net
	// Perturb the path seed per run so repeated runs differ slightly, as
	// repeated testbed runs would.
	cfg.Seed = cfg.Seed*31 + runSeed
	path := netsim.New(sched, cfg)
	for _, ct := range inst.CrossTraffic {
		path.AddCrossTraffic(ct)
	}
	flow := cc.NewFlow(sched, path.Port("main"), sender, cc.FlowConfig{
		Duration: dur,
		AckDelay: cfg.PropDelay,
	})
	if lent {
		flow.RecordInto(trace.Borrow(0))
	}
	flow.Start()
	sched.RunUntil(dur + 3*sim.Second)
	path.Release()
	return flow, nil
}

// Corpus is a set of instances and the traces of one protocol over them.
type Corpus struct {
	Profile   Profile
	Protocol  string
	Duration  sim.Time
	Instances []Instance
	Traces    []*trace.Trace
}

// Generate samples n instances of the profile and runs the given protocol
// over each, producing the training/evaluation corpus. Instance runs fan
// out over all CPUs; see GenerateOpts for the execution knob.
func Generate(pr Profile, n int, protocol string, dur sim.Time, seed int64) (*Corpus, error) {
	return GenerateOpts(pr, n, protocol, dur, seed, par.Options{})
}

// GenerateOpts is Generate with explicit execution options. Sampling and
// running instance i is deterministic in (profile, seed, i) — each
// instance builds its own scheduler and RNG streams — so serial and
// parallel generation produce byte-identical corpora.
func GenerateOpts(pr Profile, n int, protocol string, dur sim.Time, seed int64, opts par.Options) (*Corpus, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pantheon: need n > 0, got %d", n)
	}
	// Instrumentation handles are hoisted out of the per-instance loop;
	// all are nil no-ops when observability is disabled.
	reg := obs.Get()
	traces := reg.Counter("pantheon.traces")
	instHist := reg.Histogram("pantheon.instance_ns")
	c := &Corpus{Profile: pr, Protocol: protocol, Duration: dur}
	type sampled struct {
		inst Instance
		tr   *trace.Trace
	}
	rows, err := par.Map(n, opts, func(i int) (sampled, error) {
		var t0 time.Time
		if instHist != nil {
			t0 = time.Now()
		}
		inst := pr.Sample(seed, i)
		tr, err := inst.Run(protocol, dur, int64(i))
		if instHist != nil {
			instHist.ObserveSince(t0)
			traces.Add(1)
		}
		if err != nil {
			return sampled{}, fmt.Errorf("pantheon: instance %d: %w", i, err)
		}
		tr.Protocol = protocol
		return sampled{inst, tr}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		c.Instances = append(c.Instances, row.inst)
		c.Traces = append(c.Traces, row.tr)
	}
	return c, nil
}

// Split partitions the corpus into train and test subsets: the first
// nTrain instances train, the rest test.
func (c *Corpus) Split(nTrain int) (train, test *Corpus) {
	if nTrain > len(c.Traces) {
		nTrain = len(c.Traces)
	}
	train = &Corpus{Profile: c.Profile, Protocol: c.Protocol, Duration: c.Duration,
		Instances: c.Instances[:nTrain], Traces: c.Traces[:nTrain]}
	test = &Corpus{Profile: c.Profile, Protocol: c.Protocol, Duration: c.Duration,
		Instances: c.Instances[nTrain:], Traces: c.Traces[nTrain:]}
	return train, test
}
