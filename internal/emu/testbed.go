package emu

import (
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/obs/obshttp"
	"taq/internal/sim"
	"taq/internal/topology"
)

// TestbedConfig describes a prototype/testbed scenario: hosts behind a
// middlebox that emulates a constrained bottleneck (the paper's §5.4
// setup: a middlebox with two NICs in front of an emulated 600 Kbps /
// 1 Mbps link).
type TestbedConfig struct {
	// Net is the dumbbell scenario, as in the simulator; Net.Seed
	// seeds the wall-clock engine. Two defaults differ from
	// topology's: the bandwidth is 600 Kbps, and access jitter is off
	// unless set positive.
	Net topology.Config
	// Speedup scales virtual against wall time (≤0 → real time).
	Speedup float64

	// Events, when non-nil, receives the structured bottleneck trace
	// (recorded under the engine lock; Stop flushes it).
	Events *obs.Recorder
	// GaugeSink, when non-nil, receives periodic gauge samples every
	// GaugeInterval of virtual time (default one virtual second).
	GaugeSink     obs.SeriesSink
	GaugeInterval sim.Time
	// HTTPAddr, when non-empty, serves the live introspection endpoint
	// (gauge snapshot + Prometheus /metrics + pprof) on that address,
	// e.g. "127.0.0.1:0". This is strictly an emu-side feature: the
	// discrete-event path never starts a listener.
	HTTPAddr string
	// EnableMetrics creates the network's metrics registry (also
	// implied by HTTPAddr); read it via Net.Metrics.
	EnableMetrics bool
}

// Testbed is a topology.Network running on a wall-clock Engine. Touch
// Net only under the engine lock: from its callbacks, Engine.Post or
// Snapshot.
type Testbed struct {
	Cfg    TestbedConfig
	Engine *Engine
	Net    *topology.Network
	// HTTP is the live introspection server (non-nil when HTTPAddr was
	// set and the listener started); HTTPErr records a failed start.
	HTTP    *obshttp.Server
	HTTPErr error
}

// NewTestbed builds the scenario (middlebox + emulated bottleneck). It
// returns topology's error for an invalid Net.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	if cfg.Net.Bandwidth == 0 {
		cfg.Net.Bandwidth = 600 * link.Kbps
	}
	if cfg.Net.AccessJitter == 0 {
		cfg.Net.AccessJitter = -1
	}
	t := &Testbed{Cfg: cfg, Engine: NewEngine(cfg.Net.Seed, cfg.Speedup)}
	var err error
	t.Engine.Post(func() {
		if t.Net, err = topology.NewOn(t.Engine, cfg.Net); err != nil {
			return
		}
		if cfg.EnableMetrics || cfg.HTTPAddr != "" {
			t.Net.EnableMetrics()
		}
		t.Net.EnableObservability(cfg.Events)
		if cfg.GaugeSink != nil || cfg.HTTPAddr != "" {
			t.Net.EnableGauges(cfg.GaugeInterval, cfg.GaugeSink)
		}
	})
	if err != nil {
		t.Engine.Stop()
		return nil, err
	}
	if cfg.HTTPAddr != "" {
		// The /vars callback runs on HTTP goroutines; Post serializes
		// the gauge reads against the engine's callbacks. The /metrics
		// snapshot needs no Post: registry cells are atomics, the
		// lock-free read edge.
		t.HTTP, t.HTTPErr = obshttp.Serve(cfg.HTTPAddr, obshttp.Options{
			Vars: func() (names []string, values []float64) {
				t.Engine.Post(func() { names, values = t.Net.Gauges.Snapshot() })
				return names, values
			},
			Metrics: t.Net.Metrics.Snapshot,
		})
	}
	return t, nil
}

// RunFor advances the testbed by the given virtual duration (blocking
// the calling goroutine in wall time).
func (t *Testbed) RunFor(virtual sim.Time) { t.Engine.RunFor(virtual) }

// Stop halts all activity, flushes the trace recorder and gauge sink,
// and closes the live endpoint.
func (t *Testbed) Stop() {
	t.Engine.Post(func() {
		t.Net.Gauges.Stop()
		t.Cfg.Events.Flush()
	})
	t.Engine.Stop()
	t.HTTP.Close()
}

// Snapshot runs fn serialized against the scenario so it can safely
// read Net's state.
func (t *Testbed) Snapshot(fn func()) { t.Engine.Post(fn) }
