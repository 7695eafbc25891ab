// Package topology wires TCP flows into the paper's dumbbell topology:
// N senders share one bottleneck link (with a configurable queue
// discipline — DropTail, RED, SFQ, or TAQ) toward N receivers; all
// traffic is one-way data with uncongested, lossless ACK return paths,
// exactly the §2.3 setup. The same network runs on the discrete-event
// engine (New) or on any other sim.Runner (NewOn), such as the
// wall-clock engine of the prototype testbed (internal/emu).
package topology

import (
	"fmt"
	"sort"

	"taq/internal/capture"
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/tfrc"
)

// QueueKind selects the bottleneck discipline.
type QueueKind string

// Supported disciplines.
const (
	DropTail QueueKind = "droptail"
	RED      QueueKind = "red"
	SFQ      QueueKind = "sfq"
	TAQ      QueueKind = "taq"
)

// Config describes a dumbbell scenario.
type Config struct {
	// Seed seeds New's discrete-event engine, making the run
	// reproducible. NewOn's runner brings its own random source.
	Seed int64
	// Bandwidth is the bottleneck capacity.
	Bandwidth link.Bps
	// PropRTT is the base propagation round-trip time (paper: 200 ms).
	PropRTT sim.Time
	// RTTJitter spreads per-flow RTTs uniformly within ±jitter
	// fraction of PropRTT (0 = identical RTTs).
	RTTJitter float64
	// BufferPackets is the bottleneck buffer size; 0 means one
	// PropRTT's worth of packets at Bandwidth (the paper's default).
	BufferPackets int
	// Queue picks the discipline (default DropTail).
	Queue QueueKind
	// TCP is the endpoint configuration (zero value → tcp.DefaultConfig).
	TCP tcp.Config
	// TAQ optionally overrides the TAQ middlebox configuration; nil
	// uses core.DefaultConfig(Bandwidth, BufferPackets).
	TAQ *core.Config
	// SFQBuckets sets the SFQ bucket count (default 64).
	SFQBuckets int
	// SliceWidth is the metrics slice width (default 20 s, §2.3).
	SliceWidth sim.Time
	// ExternalLoss drops each packet after the bottleneck with this
	// probability, modeling overlay cross-traffic losses beyond the
	// middlebox's control (the §4.4 OverQoS discussion: TAQ assumes a
	// low-loss underlay; this knob measures its sensitivity).
	ExternalLoss float64
	// AccessJitter adds a uniform random delay in [0, AccessJitter)
	// to each packet's access path, breaking the deterministic
	// ack-clock phase effects that otherwise let a winner flow keep a
	// droptail queue exactly full forever (the ns2 "overhead_"
	// randomization; Floyd & Jacobson's phase-effect fix). Default
	// 4 ms; set negative to disable.
	AccessJitter sim.Time
	// TwoWayObservation routes ack-path packets past the TAQ
	// middlebox for observation (§3.3's conventional two-way mode,
	// which makes RTT estimation "relatively easy"); without it TAQ
	// falls back to the one-way SYN/burst heuristics.
	TwoWayObservation bool
}

// validate rejects scenario values no default can repair.
func (c *Config) validate() error {
	switch {
	case c.Bandwidth < 0:
		return fmt.Errorf("topology: negative bandwidth %g bps", float64(c.Bandwidth))
	case c.PropRTT < 0:
		return fmt.Errorf("topology: negative propagation RTT %v", c.PropRTT)
	case c.BufferPackets < 0:
		return fmt.Errorf("topology: negative buffer %d packets", c.BufferPackets)
	case !(c.RTTJitter >= 0 && c.RTTJitter < 1):
		return fmt.Errorf("topology: RTT jitter %v outside [0,1)", c.RTTJitter)
	case !(c.ExternalLoss >= 0 && c.ExternalLoss <= 1):
		return fmt.Errorf("topology: external loss %v outside [0,1]", c.ExternalLoss)
	}
	return nil
}

func (c *Config) fillDefaults() {
	if c.Bandwidth == 0 {
		c.Bandwidth = 1000 * link.Kbps
	}
	if c.PropRTT == 0 {
		c.PropRTT = 200 * sim.Millisecond
	}
	if c.TCP.MSS == 0 {
		c.TCP = tcp.DefaultConfig()
	}
	if c.BufferPackets == 0 {
		bdp := float64(c.Bandwidth) * c.PropRTT.Seconds() / 8 / float64(c.TCP.MSS)
		c.BufferPackets = int(bdp)
		if c.BufferPackets < 2 {
			c.BufferPackets = 2
		}
	}
	if c.Queue == "" {
		c.Queue = DropTail
	}
	if c.SFQBuckets == 0 {
		c.SFQBuckets = 64
	}
	if c.SliceWidth == 0 {
		c.SliceWidth = 20 * sim.Second
	}
	switch {
	case c.AccessJitter == 0:
		// The jitter must exceed one bottleneck serialization time or
		// ack-clocked flows stay phase-locked to queue departures
		// (arriving just as a slot frees) while competitors always
		// find the queue full.
		c.AccessJitter = 2 * c.Bandwidth.TxTime(c.TCP.MSS)
	case c.AccessJitter < 0:
		c.AccessJitter = 0
	}
}

// Flow bundles the endpoints of one connection in the network. For
// TCP flows Sender/Receiver are set; for TFRC flows (AddTFRCFlow)
// TFRCSender/TFRCReceiver are set instead.
type Flow struct {
	ID           packet.FlowID
	Pool         packet.PoolID
	Sender       *tcp.Sender
	Receiver     *tcp.Receiver
	TFRCSender   *tfrc.Sender
	TFRCReceiver *tfrc.Receiver
	RTT          sim.Time
	Started      sim.Time

	// deliver hands forward-path packets to the flow's receiver half.
	deliver func(*packet.Packet)
	// lastFwdArrival enforces per-flow FIFO ordering on the jittered
	// access path (jitter shifts arrivals but must not reorder a
	// flow's own packets).
	lastFwdArrival sim.Time
}

// Network is an instantiated dumbbell scenario. All of its state is
// driven from one sim.Runner: on a wall-clock runner, touch it only
// from scheduled callbacks or under the runner's serialization.
type Network struct {
	Cfg Config
	// Engine is the discrete-event engine driving the network (always
	// set by New); nil when NewOn was given another runner.
	Engine *sim.Engine
	run    sim.Runner
	Link   *link.Link
	// Middlebox is non-nil when the queue discipline is TAQ.
	Middlebox *core.TAQ
	// Slicer accumulates per-flow delivered bytes for fairness and
	// evolution analyses.
	Slicer *metrics.Slicer
	// Hangs tracks user-perceived hang times per pool.
	Hangs *metrics.HangTracker
	// Census, when non-nil (EnableCensus), tallies per-epoch packets
	// sent per flow at the bottleneck output.
	Census *metrics.Census
	// QueueDelays samples the queueing+serialization delay of every
	// 16th packet leaving the bottleneck (seconds).
	QueueDelays metrics.CDF
	delaySample uint64
	// Capture, when non-nil (EnableCapture), records per-packet
	// bottleneck events — the simulator's pcap (§2.3).
	Capture *capture.Recorder
	// Events, when non-nil (EnableObservability), receives the
	// structured trace of bottleneck activity.
	Events *obs.Recorder
	// Gauges, when non-nil (EnableGauges), samples the bottleneck
	// time series; callers Stop it (or Close the network) to flush.
	Gauges *obs.GaugeSet
	// Metrics, when non-nil (EnableMetrics), is the registry holding
	// the bottleneck's counters and histograms; FCT is its
	// flow-completion-time histogram, fed through ObserveFCT.
	Metrics *obs.Registry
	// FCT is nil until EnableMetrics.
	FCT *obs.Histogram
	// CoreMetrics is the TAQ middlebox's instrument bundle (nil until
	// EnableMetrics, or when the discipline is not TAQ); exposed so
	// callers can read counters for flight-recorder triggers.
	CoreMetrics *core.Metrics

	flows  map[packet.FlowID]*Flow
	nextID packet.FlowID

	// QueueArrivals and QueueDrops count packets offered to and
	// dropped at the bottleneck queue; ExternalDrops counts losses on
	// the post-bottleneck underlay (Config.ExternalLoss).
	QueueArrivals, QueueDrops, ExternalDrops uint64

	// OnQueueDrop, if set, observes every bottleneck drop.
	OnQueueDrop func(*packet.Packet)
}

// New builds a network from cfg on a fresh discrete-event engine
// seeded with cfg.Seed. It rejects negative sizes, an RTT jitter
// outside [0,1) and an external loss outside [0,1].
func New(cfg Config) (*Network, error) {
	return NewOn(sim.NewEngine(cfg.Seed), cfg)
}

// NewOn builds a network from cfg driven by run, which may be a
// wall-clock runner; call it under the runner's serialization.
// cfg.Seed is unused: run brings its own random source.
func NewOn(run sim.Runner, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	n := &Network{
		Cfg:    cfg,
		run:    run,
		Slicer: metrics.NewSlicer(cfg.SliceWidth),
		Hangs:  metrics.NewHangTracker(),
		flows:  make(map[packet.FlowID]*Flow),
	}
	n.Engine, _ = run.(*sim.Engine)

	var disc queue.Discipline
	switch cfg.Queue {
	case DropTail:
		disc = queue.NewDropTail(cfg.BufferPackets)
	case RED:
		disc = queue.NewRED(queue.REDConfig{
			Capacity:    cfg.BufferPackets,
			MeanPktTime: cfg.Bandwidth.TxTime(cfg.TCP.MSS),
		}, run.Now, run.Rand())
	case SFQ:
		disc = queue.NewSFQ(cfg.SFQBuckets, cfg.BufferPackets)
	case TAQ:
		tcfg := core.DefaultConfig(cfg.Bandwidth, cfg.BufferPackets)
		if cfg.TAQ != nil {
			tcfg = *cfg.TAQ
			if tcfg.Rate == 0 {
				tcfg.Rate = cfg.Bandwidth
			}
			tcfg.FillDerived(cfg.BufferPackets)
		}
		mb := core.New(run, tcfg)
		mb.Start()
		n.Middlebox = mb
		disc = mb
	default:
		return nil, fmt.Errorf("topology: unknown queue kind %q", cfg.Queue)
	}
	disc.AddDropHook(func(p *packet.Packet) {
		n.QueueDrops++
		if n.Capture != nil {
			n.Capture.Record(n.run.Now(), capture.Drop, p)
		}
		if n.OnQueueDrop != nil {
			n.OnQueueDrop(p)
		}
	})

	// The bottleneck link's propagation delay is folded into per-flow
	// paths, so the link itself adds none.
	n.Link = link.New(run, cfg.Bandwidth, 0, disc, n.deliverForward)
	return n, nil
}

// MustNew is New for callers with static configs (panics on error).
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// EnableCensus attaches a per-epoch packets-sent census at the
// bottleneck output, rolling every epoch (use the flows' RTT).
func (n *Network) EnableCensus(maxClass int, epoch sim.Time) {
	n.Census = metrics.NewCensus(maxClass)
	n.Census.ScheduleRolls(n.run, epoch)
}

// EnableCapture starts recording per-packet bottleneck events (drops
// and deliveries) — heavy for long runs; meant for trace analyses.
func (n *Network) EnableCapture() {
	n.Capture = &capture.Recorder{}
}

// EnableObservability attaches a trace recorder to the bottleneck: the
// link records the generic enqueue/dequeue lifecycle, the TAQ
// middlebox (when present) its class-specific drop/transition/admission
// events; for baseline disciplines a chained drop hook records the
// drops instead. Call before the run starts; rec may be nil to leave
// tracing off.
func (n *Network) EnableObservability(rec *obs.Recorder) {
	n.Events = rec
	if rec == nil {
		return
	}
	n.Link.SetRecorder(rec)
	if n.Middlebox != nil {
		n.Middlebox.SetRecorder(rec)
		return
	}
	n.Link.Discipline().AddDropHook(func(p *packet.Packet) {
		rec.Drop(n.run.Now(), p, -1, p.Retransmit)
	})
}

// EnableMetrics creates the network's metrics registry and installs
// the full schema: link transmit/sojourn instruments, the
// flow-completion-time histogram, and — with a TAQ middlebox — the
// per-class drop/serve/delay and tracker/admission instruments. Call
// before the run starts; the returned registry snapshots at any time
// (obs.MetricsSnapshot), typically once at run end for the
// -metrics-out artifact.
func (n *Network) EnableMetrics() *obs.Registry {
	if n.Metrics != nil {
		return n.Metrics
	}
	reg := obs.NewRegistry()
	n.Link.SetMetrics(link.NewMetrics(reg))
	n.FCT = obs.FCTHistogram(reg)
	if n.Middlebox != nil {
		n.CoreMetrics = core.NewMetrics(reg)
		n.Middlebox.SetMetrics(n.CoreMetrics)
	}
	n.Metrics = reg
	return reg
}

// ObserveFCT records a completed transfer into the FCT histogram,
// classed by size. A no-op until EnableMetrics.
func (n *Network) ObserveFCT(started sim.Time, sizeBytes int) {
	if n.FCT == nil {
		return
	}
	n.FCT.ObserveAt(obs.FCTSizeClass(sizeBytes), n.run.Now()-started)
}

// EnableGauges starts periodic sampling of the bottleneck time series
// onto sink: queue depth and bytes, cumulative arrivals/drops, link
// utilization, and — with a TAQ middlebox — per-class queue depths,
// active/recovering flow counts, the loss-rate EWMA, and the admission
// backlog. Returns the gauge set (also kept in n.Gauges), running when
// sink is non-nil — Stop it after the run to flush the sink. With a nil
// sink the set only answers Snapshot (a live endpoint's reads).
func (n *Network) EnableGauges(interval sim.Time, sink obs.SeriesSink) *obs.GaugeSet {
	g := obs.NewGaugeSet(n.run, interval, sink)
	disc := n.Link.Discipline()
	g.RegisterInt("qlen", disc.Len)
	g.RegisterInt("qbytes", disc.Bytes)
	g.Register("arrivals", func() float64 { return float64(n.QueueArrivals) })
	g.Register("drops", func() float64 { return float64(n.QueueDrops) })
	g.Register("utilization", n.Utilization)
	if mb := n.Middlebox; mb != nil {
		g.RegisterInt("qlen_recovery", func() int { return mb.QueueLen(core.ClassRecovery) })
		g.RegisterInt("qlen_newflow", func() int { return mb.QueueLen(core.ClassNewFlow) })
		g.RegisterInt("qlen_overpenalized", func() int { return mb.QueueLen(core.ClassOverPenalized) })
		g.RegisterInt("qlen_belowfair", func() int { return mb.QueueLen(core.ClassBelowFair) })
		g.RegisterInt("qlen_abovefair", func() int { return mb.QueueLen(core.ClassAboveFair) })
		g.RegisterInt("active_flows", mb.ActiveFlows)
		g.RegisterInt("recovering_flows", mb.RecoveringFlows)
		g.Register("loss_ewma", mb.LossEWMA)
		g.RegisterInt("waiting_pools", mb.WaitingPools)
	}
	if sink != nil {
		g.Start()
	}
	n.Gauges = g
	return g
}

// accessDelay returns the jittered access delay for the next packet of
// f, never earlier than the flow's previous packet (FIFO per flow).
func (n *Network) accessDelay(f *Flow, base sim.Time) sim.Time {
	d := base
	if n.Cfg.AccessJitter > 0 {
		d += sim.Time(n.run.Rand().Int63n(int64(n.Cfg.AccessJitter)))
	}
	// One clock read: a wall-clock runner's Now moves between reads.
	now := n.run.Now()
	at := now + d
	if at < f.lastFwdArrival {
		at = f.lastFwdArrival
	}
	f.lastFwdArrival = at
	return at - now
}

// deliverForward dispatches packets leaving the bottleneck to the
// destination receiver, after the flow's residual one-way delay.
func (n *Network) deliverForward(p *packet.Packet) {
	f, ok := n.flows[p.Flow]
	if !ok {
		return
	}
	if n.Cfg.ExternalLoss > 0 && n.run.Rand().Float64() < n.Cfg.ExternalLoss {
		n.ExternalDrops++
		return
	}
	if p.Kind == packet.Data && n.Census != nil {
		n.Census.Observe(p.Flow)
	}
	if n.Capture != nil {
		n.Capture.Record(n.run.Now(), capture.Deliver, p)
	}
	n.delaySample++
	if n.delaySample%16 == 0 {
		n.QueueDelays.Add((n.run.Now() - p.Enqueued).Seconds())
	}
	sim.After(n.run, f.RTT/4, func() { f.deliver(p) })
}

// AddFlow creates a TCP flow with the given app, starting its
// handshake at startAt. Pool groups flows for hang tracking and
// admission control; use packet.PoolNone for independent flows.
func (n *Network) AddFlow(pool packet.PoolID, app tcp.App, startAt sim.Time) *Flow {
	id := n.nextID
	n.nextID++

	rtt := n.Cfg.PropRTT
	if j := n.Cfg.RTTJitter; j > 0 {
		rtt = sim.Time(float64(rtt) * (1 - j + 2*j*n.run.Rand().Float64()))
	}
	f := &Flow{ID: id, Pool: pool, RTT: rtt, Started: startAt}

	// Reverse path: receiver → sender, uncongested, half the RTT.
	// In two-way mode the middlebox observes acks in passing at the
	// midpoint.
	f.Receiver = tcp.NewReceiver(n.run, n.Cfg.TCP, id, pool, func(p *packet.Packet) {
		if n.Cfg.TwoWayObservation && n.Middlebox != nil {
			sim.After(n.run, rtt/4, func() {
				n.Middlebox.ObserveReverse(p)
				sim.After(n.run, rtt/4, func() { f.Sender.Deliver(p) })
			})
			return
		}
		sim.After(n.run, rtt/2, func() { f.Sender.Deliver(p) })
	})
	mss := n.Cfg.TCP.MSS
	f.Receiver.OnDeliver = func(segs int) {
		now := n.run.Now()
		n.Slicer.Record(id, now, segs*mss)
		if pool != packet.PoolNone {
			n.Hangs.Touch(pool, now)
		}
	}

	// Forward path: sender → (access delay rtt/4 + jitter) → queue.
	f.Sender = tcp.NewSender(n.run, n.Cfg.TCP, id, pool, app, func(p *packet.Packet) {
		sim.After(n.run, n.accessDelay(f, rtt/4), func() {
			n.QueueArrivals++
			n.Link.Enqueue(p)
		})
	})

	f.deliver = f.Receiver.Deliver
	n.flows[id] = f
	n.Slicer.Register(id, startAt)
	if n.Census != nil {
		n.Census.Register(id)
	}
	if pool != packet.PoolNone {
		n.Hangs.Start(pool, startAt)
	}
	n.ScheduleAt(startAt, f.Sender.Start)
	return f
}

// AddTFRCFlow creates a TFRC (equation-rate-controlled) flow starting
// at startAt — the baseline the paper's introduction rules out for
// sub-packet regimes.
func (n *Network) AddTFRCFlow(pool packet.PoolID, startAt sim.Time) *Flow {
	id := n.nextID
	n.nextID++
	rtt := n.Cfg.PropRTT
	if j := n.Cfg.RTTJitter; j > 0 {
		rtt = sim.Time(float64(rtt) * (1 - j + 2*j*n.run.Rand().Float64()))
	}
	f := &Flow{ID: id, Pool: pool, RTT: rtt, Started: startAt}

	cfg := tfrc.DefaultConfig()
	cfg.MSS = n.Cfg.TCP.MSS
	cfg.InitialRTT = rtt
	f.TFRCReceiver = tfrc.NewReceiver(n.run, cfg, id, pool, func(p *packet.Packet) {
		sim.After(n.run, rtt/2, func() { f.TFRCSender.Deliver(p) })
	})
	mss := cfg.MSS
	f.TFRCReceiver.OnDeliver = func(pkts int) {
		now := n.run.Now()
		n.Slicer.Record(id, now, pkts*mss)
		if pool != packet.PoolNone {
			n.Hangs.Touch(pool, now)
		}
	}
	f.TFRCSender = tfrc.NewSender(n.run, cfg, id, pool, func(p *packet.Packet) {
		sim.After(n.run, n.accessDelay(f, rtt/4), func() {
			n.QueueArrivals++
			n.Link.Enqueue(p)
		})
	})
	f.deliver = f.TFRCReceiver.Deliver
	n.flows[id] = f
	n.Slicer.Register(id, startAt)
	if n.Census != nil {
		n.Census.Register(id)
	}
	if pool != packet.PoolNone {
		n.Hangs.Start(pool, startAt)
	}
	n.ScheduleAt(startAt, f.TFRCSender.Start)
	return f
}

// Flow returns a flow by ID, or nil.
func (n *Network) Flow(id packet.FlowID) *Flow { return n.flows[id] }

// NumFlows returns the number of flows added.
func (n *Network) NumFlows() int { return len(n.flows) }

// Now returns the driving runner's current time.
func (n *Network) Now() sim.Time { return n.run.Now() }

// ScheduleAt runs fn at time at on the driving runner (times in the
// past are clamped to now).
func (n *Network) ScheduleAt(at sim.Time, fn func()) {
	n.run.Schedule(at-n.run.Now(), fn)
}

// Run advances the simulation to the given virtual time. Only the
// discrete-event form (Engine non-nil) runs this way; a wall-clock
// runner advances on its own.
func (n *Network) Run(until sim.Time) { n.Engine.RunUntil(until) }

// LossRate returns the measured drop fraction at the bottleneck queue.
func (n *Network) LossRate() float64 {
	if n.QueueArrivals == 0 {
		return 0
	}
	return float64(n.QueueDrops) / float64(n.QueueArrivals)
}

// Utilization returns bottleneck utilization over [0, now].
func (n *Network) Utilization() float64 {
	return n.Link.Utilization(n.run.Now())
}

// Goodput returns the fraction of the bottleneck capacity delivered as
// useful (first-time, in-order) data over [0, now] — the §2.3 metric
// that "remains consistently high (greater than 90%)" even while
// fairness collapses. Unlike Utilization it excludes retransmitted
// and duplicate bytes.
func (n *Network) Goodput() float64 {
	elapsed := n.run.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	ids := make([]packet.FlowID, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var bytes float64
	for _, id := range ids {
		bytes += n.Slicer.FlowTotal(id)
	}
	return bytes * 8 / elapsed / float64(n.Cfg.Bandwidth)
}

// AggregateTimeouts sums sender timeout statistics across TCP flows.
func (n *Network) AggregateTimeouts() (timeouts, repetitive uint64) {
	for _, f := range n.flows {
		if f.Sender == nil {
			continue
		}
		timeouts += f.Sender.Stats.Timeouts
		repetitive += f.Sender.Stats.RepetitiveTimeouts
	}
	return
}

// FairSharePerFlow returns the ideal per-flow fair share in bits per
// second (C/N), the x-axis of Figs 2, 8 and 11.
func (n *Network) FairSharePerFlow() float64 {
	if len(n.flows) == 0 {
		return float64(n.Cfg.Bandwidth)
	}
	return float64(n.Cfg.Bandwidth) / float64(len(n.flows))
}
