package topology

import (
	"bytes"
	"strings"
	"testing"

	"taq/internal/core"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
)

// runTraced runs a small TAQ dumbbell with tracing and gauges enabled
// and returns the raw JSONL event stream and CSV gauge series.
func runTraced(t *testing.T, seed int64) (events, gauges []byte) {
	t.Helper()
	n := MustNew(Config{
		Seed:              seed,
		Queue:             TAQ,
		TwoWayObservation: true,
	})

	var evBuf bytes.Buffer
	sink := obs.NewJSONLSink(&evBuf)
	sink.ClassName = func(c int8) string { return core.Class(c).String() }
	sink.StateName = func(s int8) string { return core.FlowState(s).String() }
	rec := obs.NewRecorder(sink, 0)
	n.EnableObservability(rec)

	var gBuf bytes.Buffer
	g := n.EnableGauges(2*sim.Second, obs.NewCSVSeries(&gBuf))

	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	n.Run(40 * sim.Second)

	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if err := g.Stop(); err != nil {
		t.Fatalf("gauges stop: %v", err)
	}
	return evBuf.Bytes(), gBuf.Bytes()
}

// TestObservabilityDeterministicTrace is the tracing determinism gate:
// two same-seed runs must produce byte-identical JSONL event streams
// and gauge series. Any wall-clock or map-order leakage into the obs
// path diverges here.
func TestObservabilityDeterministicTrace(t *testing.T) {
	ev1, g1 := runTraced(t, 7)
	ev2, g2 := runTraced(t, 7)

	if !bytes.Equal(ev1, ev2) {
		t.Errorf("event streams diverged: %d vs %d bytes", len(ev1), len(ev2))
	}
	if !bytes.Equal(g1, g2) {
		t.Errorf("gauge series diverged:\n%s\nvs\n%s", g1, g2)
	}

	// The trace must actually cover the lifecycle: generic link events,
	// TAQ classification, and at least one drop with a victim class on
	// this deliberately tight scenario.
	trace := string(ev1)
	for _, want := range []string{`"ev":"enqueue"`, `"ev":"dequeue"`, `"ev":"class_change"`, `"ev":"drop"`, `"ev":"tracker_transition"`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	lines := strings.Count(trace, "\n")
	if lines < 100 {
		t.Errorf("suspiciously short trace: %d lines", lines)
	}

	gauge := string(g1)
	if !strings.HasPrefix(gauge, "t_ns,qlen,qbytes,arrivals,drops,utilization,") {
		t.Errorf("gauge header = %q", strings.SplitN(gauge, "\n", 2)[0])
	}
	if rows := strings.Count(gauge, "\n"); rows < 10 {
		t.Errorf("gauge series too short: %d rows", rows)
	}
}

// TestObservabilityIsPassive verifies tracing does not perturb the
// simulation: the same seed with and without the obs layer yields
// identical traffic counters. (Engine.Processed is excluded — gauge
// ticks are themselves events.)
func TestObservabilityIsPassive(t *testing.T) {
	run := func(withObs bool) (arrivals, drops uint64) {
		n := MustNew(Config{Seed: 11, Queue: TAQ, TwoWayObservation: true})
		if withObs {
			n.EnableObservability(obs.NewRecorder(&obs.NullSink{}, 0))
			n.EnableGauges(sim.Second, &obs.MemorySeries{})
		}
		for i := 0; i < 4; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
		}
		n.Run(30 * sim.Second)
		if withObs {
			n.Gauges.Stop()
		}
		return n.QueueArrivals, n.QueueDrops
	}

	aOn, dOn := run(true)
	aOff, dOff := run(false)
	if aOn != aOff || dOn != dOff {
		t.Errorf("obs perturbed the run: arrivals %d/%d drops %d/%d", aOn, aOff, dOn, dOff)
	}
}

// runMetered runs a small TAQ dumbbell with the metrics registry on
// and returns the final Prometheus exposition plus the middlebox
// stats.
func runMetered(t *testing.T, seed int64) ([]byte, core.Stats) {
	t.Helper()
	n := MustNew(Config{Seed: seed, Queue: TAQ, TwoWayObservation: true})
	reg := n.EnableMetrics()
	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	for i := 0; i < 8; i++ {
		workloadShortFlow(n, 3, sim.Time(10+i)*sim.Second)
	}
	n.Run(40 * sim.Second)
	return reg.Snapshot().AppendText(nil), n.Middlebox.Stats
}

// workloadShortFlow starts a sized transfer feeding the FCT histogram
// (a local stand-in for workload.AddShortFlow, which lives a package
// up and cannot be imported here).
func workloadShortFlow(n *Network, segments int, at sim.Time) {
	app := &tcp.SizedApp{Total: segments}
	f := n.AddFlow(packet.PoolNone, app, at)
	id, started := f.ID, f.Started
	app.OnComplete = func() {
		n.Slicer.Finish(id, n.Engine.Now())
		n.ObserveFCT(started, segments*n.Cfg.TCP.MSS)
	}
}

// TestMetricsRegistryMatchesStats cross-checks the registry against
// the Stats counters the middlebox already keeps, and gates snapshot
// determinism: same-seed runs must produce byte-identical expositions.
func TestMetricsRegistryMatchesStats(t *testing.T) {
	text1, stats := runMetered(t, 7)
	text2, _ := runMetered(t, 7)
	if !bytes.Equal(text1, text2) {
		t.Errorf("same-seed expositions diverged:\n%s\nvs\n%s", text1, text2)
	}

	n := MustNew(Config{Seed: 7, Queue: TAQ, TwoWayObservation: true})
	reg := n.EnableMetrics()
	for i := 0; i < 4; i++ {
		n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
	}
	for i := 0; i < 8; i++ {
		workloadShortFlow(n, 3, sim.Time(10+i)*sim.Second)
	}
	n.Run(40 * sim.Second)
	snap := reg.Snapshot()
	var drops, served uint64
	var fct uint64
	for i := range snap.Counters {
		switch snap.Counters[i].Name {
		case "taq_drops_total":
			for _, v := range snap.Counters[i].Values {
				drops += v
			}
		case "taq_served_total":
			for _, v := range snap.Counters[i].Values {
				served += v
			}
		}
	}
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "taq_fct_seconds" {
			for _, c := range snap.Histograms[i].Counts {
				fct += c
			}
		}
	}
	if drops != stats.Drops {
		t.Errorf("registry drops = %d, Stats.Drops = %d", drops, stats.Drops)
	}
	if served != stats.Served {
		t.Errorf("registry served = %d, Stats.Served = %d", served, stats.Served)
	}
	if fct == 0 {
		t.Error("FCT histogram recorded no completions")
	}
	if !strings.Contains(string(text1), "taq_link_tx_packets_total") {
		t.Error("exposition missing link metrics")
	}
}

// TestMetricsArePassive verifies the registry does not perturb the
// simulation, mirroring TestObservabilityIsPassive.
func TestMetricsArePassive(t *testing.T) {
	run := func(withMetrics bool) (arrivals, drops uint64) {
		n := MustNew(Config{Seed: 11, Queue: TAQ, TwoWayObservation: true})
		if withMetrics {
			n.EnableMetrics()
		}
		for i := 0; i < 4; i++ {
			n.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*sim.Second)
		}
		n.Run(30 * sim.Second)
		return n.QueueArrivals, n.QueueDrops
	}
	aOn, dOn := run(true)
	aOff, dOff := run(false)
	if aOn != aOff || dOn != dOff {
		t.Errorf("metrics perturbed the run: arrivals %d/%d drops %d/%d", aOn, aOff, dOn, dOff)
	}
}
