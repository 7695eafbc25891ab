package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// stepDur is the virtual time one step advances: the unit of the
// step_p50_us and step_p99_us metrics on every workload.
const stepDur = 10 * sim.Millisecond

// outcome is what one repetition produced.
type outcome struct {
	// digest hashes the simulated outputs; two runs of the same code at
	// one seed must print the same digest.
	digest string
	// summary is a one-line human rendering of the simulated outputs.
	summary string
	// layer holds the per-layer values the workload reads out itself
	// (the rest come from the tracer and the profiles).
	layer map[string]float64
	// trackedFlows is the number of flows the middlebox tracks at the
	// end (0 without a middlebox), the base of core.live_bytes_per_flow.
	trackedFlows int
}

// A workload makes its inputs from a seed (gen) and returns the
// builder of the system under test. setup_s covers both.
type workloadDef struct {
	name string
	why  string
	gen  func(seed int64, tr *tracer) builder
}

type builder func(tr *tracer) (*simInstance, error)

var workloads = []workloadDef{
	{
		name: "bulk-droptail",
		why:  "fig2 point at the smallest fair share under DropTail; loads sim, tcp, topology, link, queue and metrics and bypasses core",
		gen:  bulkGen(topology.DropTail),
	},
	{
		name: "bulk-taq",
		why:  "the same scenario under the TAQ middlebox (fig8 point); minus bulk-droptail it prices TAQ in context",
		gen:  bulkGen(topology.TAQ),
	},
	{
		name: "web-admission",
		why:  "fig12-style access-log replay under TAQ admission control with the obs registry; thousands of handshakes and waiting pools",
		gen:  webGen,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The bulk scenario is Fig 2's smallest fair share at 1000 Kbps:
// 400 flows share 2.5 Kbps each, 0.125 packets per RTT.
const (
	bulkFlows    = 400
	bulkStagger  = 50 * sim.Millisecond // as workload.AddBulkFlows in fig2
	bulkDuration = 400 * sim.Second     // fig2's scale-1 run length
)

func bulkGen(q topology.QueueKind) func(int64, *tracer) builder {
	return func(seed int64, _ *tracer) builder {
		return func(tr *tracer) (*simInstance, error) {
			var net *topology.Network
			var err error
			tr.span("topology.New", func() {
				net, err = topology.New(topology.Config{
					Seed:      seed,
					Bandwidth: 1000 * link.Kbps,
					Queue:     q,
					RTTJitter: 0.25,
					TCP:       tcp.DefaultConfig(),
				})
			})
			if err != nil {
				return nil, err
			}
			for i := 0; i < bulkFlows; i++ {
				tr.span("topology.AddFlow", func() {
					net.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*bulkStagger)
				})
			}
			s := &simInstance{net: net, end: bulkDuration}
			s.readout = s.bulkReadout
			return s, nil
		}
	}
}

// The web scenario follows Fig 12: a peak-load access log replayed by
// ASAP sessions of up to four connections that retry SYNs until
// admitted, over 1000 Kbps. With 40 clients admission engages at every
// seed tried (at least 6 pools waited over 40 seeds; at 32 clients one
// seed in 40 had none), and the last object that completes does so
// about 1000 s before the drain ends.
const (
	webClients  = 40
	webDuration = 1800 * sim.Second
	webDrain    = 2700 * sim.Second
	webConns    = 4
)

func webGen(seed int64, tr *tracer) builder {
	gen := trace.DefaultGenConfig()
	gen.Seed = seed
	gen.Clients = webClients
	gen.Duration = webDuration
	gen.RequestsPerClientPerMin = 12
	gen.MaxSize = 200 * 1024
	var recs []trace.Record
	tr.span("trace.Generate", func() { recs = trace.Generate(gen) })

	return func(tr *tracer) (*simInstance, error) {
		tcpCfg := tcp.DefaultConfig()
		tcpCfg.MaxSynRetries = -1
		tcpCfg.MaxSynTimeout = 4 * sim.Second
		cfg := topology.Config{
			Seed:      seed,
			Bandwidth: 1000 * link.Kbps,
			Queue:     topology.TAQ,
			RTTJitter: 0.25,
			TCP:       tcpCfg,
		}
		taqCfg := core.DefaultConfig(cfg.Bandwidth, 0)
		taqCfg.AdmissionControl = true
		cfg.TAQ = &taqCfg
		var net *topology.Network
		var err error
		tr.span("topology.New", func() { net, err = topology.New(cfg) })
		if err != nil {
			return nil, err
		}
		var reg *obs.Registry
		tr.span("topology.EnableMetrics", func() { reg = net.EnableMetrics() })
		var sessions map[int]*workload.Session
		tr.span("workload.Replay", func() {
			sessions = workload.Replay(net, recs, webConns, workload.ReplayASAP)
		})
		s := &simInstance{net: net, end: webDuration + webDrain}
		s.readout = func(tr *tracer, h hash.Hash, o *outcome) error {
			return s.webReadout(tr, h, o, reg, sessions)
		}
		return s, nil
	}
}

// simInstance is one built network, run in stepDur chunks of RunUntil.
type simInstance struct {
	net        *topology.Network
	end, now   sim.Time
	pendingMax int
	// readout adds the workload's own outputs and checks.
	readout func(tr *tracer, h hash.Hash, o *outcome) error
}

// step advances stepDur of virtual time and reports whether the fixed
// input has more to run.
func (s *simInstance) step() bool {
	s.now += stepDur
	s.net.Run(s.now)
	if p := s.net.Engine.Pending(); p > s.pendingMax {
		s.pendingMax = p
	}
	return s.now < s.end
}

// offered counts the packets offered to the bottleneck discipline so
// far: the "pkt" of every per-packet metric.
func (s *simInstance) offered() uint64 { return s.net.QueueArrivals }

func (s *simInstance) numSteps() int { return int(s.end / stepDur) }

// finish reads the outputs after the timed phase and checks them. A
// non-nil error is a failed correctness check.
func (s *simInstance) finish(tr *tracer) (outcome, error) {
	net := s.net
	o := outcome{layer: map[string]float64{}}
	h := sha256.New()
	disc := net.Link.Discipline()
	fmt.Fprintf(h, "arrivals=%d drops=%d sent=%d len=%d events=%d\n",
		net.QueueArrivals, net.QueueDrops, net.Link.SentPackets, disc.Len(), net.Engine.Processed)

	var segs, rtx, repetitive uint64
	tr.span("topology.Flow", func() {
		for i := 0; i < net.NumFlows(); i++ {
			f := net.Flow(packet.FlowID(i))
			if f == nil || f.Sender == nil {
				continue
			}
			st := f.Sender.Stats
			segs += st.SegmentsSent
			rtx += st.Retransmits
			repetitive += st.RepetitiveTimeouts
			fmt.Fprintf(h, "flow %d %+v %g\n", i, st, net.Slicer.FlowTotal(f.ID))
		}
	})
	pkts := float64(net.QueueArrivals)
	o.layer["sim.events_per_pkt"] = float64(net.Engine.Processed) / pkts
	o.layer["sim.pending_max"] = float64(s.pendingMax)
	o.layer["tcp.retransmit_ratio"] = ratio(float64(rtx), float64(segs))
	o.layer["tcp.rep_timeouts_per_flow"] = float64(repetitive) / float64(net.NumFlows())
	o.layer["link.utilization"] = net.Utilization()

	err := checkBottleneck(net.QueueArrivals, net.Link.SentPackets, net.QueueDrops, disc.Len())
	if mb := net.Middlebox; mb != nil {
		st := mb.Stats
		fmt.Fprintf(h, "taq %+v\n", st)
		if err == nil {
			err = checkMiddlebox(st.Arrivals, st.Served, st.Drops, mb.Len())
		}
		o.layer["core.served_ratio"] = ratio(float64(st.Served), float64(st.Arrivals))
		o.layer["core.pools_waited"] = float64(st.PoolsWaited)
		for _, n := range mb.StateCensus() {
			o.trackedFlows += n
		}
	}
	if rerr := s.readout(tr, h, &o); err == nil {
		err = rerr
	}
	o.digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
	return o, err
}

func (s *simInstance) bulkReadout(tr *tracer, h hash.Hash, o *outcome) error {
	net := s.net
	var jfi float64
	tr.span("metrics.MeanSliceJFI", func() {
		// Skip the first slice (slow-start transient), as fig2 does.
		jfi = net.Slicer.MeanSliceJFI(1, int(s.end/net.Slicer.Width()))
	})
	o.layer["metrics.short_jfi"] = jfi
	fmt.Fprintf(h, "short_jfi=%v\n", jfi)
	o.summary = fmt.Sprintf("short_jfi=%.6f rep_timeouts_per_flow=%.4f loss=%.4f util=%.4f",
		jfi, o.layer["tcp.rep_timeouts_per_flow"], net.LossRate(), net.Utilization())
	return nil
}

func (s *simInstance) webReadout(tr *tracer, h hash.Hash, o *outcome, reg *obs.Registry, sessions map[int]*workload.Session) error {
	var snap *obs.MetricsSnapshot
	tr.span("obs.Snapshot", func() { snap = reg.Snapshot() })
	var prom []byte
	tr.span("obs.AppendText", func() { prom = snap.AppendText(nil) })
	h.Write(prom)
	o.layer["obs.prom_bytes"] = float64(len(prom))

	// Every requested object counts; an incomplete one is slower than
	// any completed one, so it sits above every percentile it reaches.
	clients := make([]int, 0, len(sessions))
	for c := range sessions {
		clients = append(clients, c)
	}
	sort.Ints(clients)
	var fct []float64
	for _, c := range clients {
		for _, r := range sessions[c].Results {
			d := math.Inf(1)
			if r.Done {
				d = r.DownloadTime().Seconds()
			}
			fct = append(fct, d)
			fmt.Fprintf(h, "obj %d %d %d %d %t\n", c, r.SizeBytes, r.Started, r.End, r.Done)
		}
	}
	sort.Float64s(fct)
	p50, ok50 := percentile(fct, 50)
	p99, ok99 := percentile(fct, 99)
	if !ok50 || !ok99 {
		return fmt.Errorf("%d objects are too few for an FCT p99", len(fct))
	}
	var done float64
	tr.span("workload.CompletedFraction", func() { done = workload.CompletedFraction(sessions) })
	// A percentile that lands on an incomplete object reads as the run
	// length, which no completed download reaches.
	o.layer["workload.fct_p50_s"] = finiteOr(p50, s.end.Seconds())
	o.layer["workload.fct_p99_s"] = finiteOr(p99, s.end.Seconds())
	o.layer["workload.completed_frac"] = done
	o.summary = fmt.Sprintf("objects=%d fct_p50_s=%.6f fct_p99_s=%.6f completed_frac=%.6f pools_waited=%v",
		len(fct), p50, p99, done, o.layer["core.pools_waited"])
	if o.layer["core.pools_waited"] == 0 {
		return fmt.Errorf("admission never engaged: PoolsWaited = 0")
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finiteOr(v, sentinel float64) float64 {
	if math.IsInf(v, 0) {
		return sentinel
	}
	return v
}
