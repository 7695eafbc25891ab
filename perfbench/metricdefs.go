package main

// metricDef declares one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd is what -trace 0 reports on every workload. The bounds
// follow the spread measured between runs at different seeds on a
// shared 2-vCPU host: timings move 8-28% from run to run, allocation
// counts and live heap up to 2%. Timing bounds are the largest allowed;
// the others are about three times the spread seen.
var endToEnd = []metricDef{
	{"pkt_rate", "pkt/s", "higher", 0.25},
	{"allocs_per_pkt", "count", "lower", 0.08},
	{"alloc_bytes_per_pkt", "B", "lower", 0.05},
	{"live_heap_bytes", "B", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// layers are the taq/internal packages a packet's cost is split across.
var layers = []string{"sim", "tcp", "topology", "link", "queue", "core", "obs", "metrics", "workload", "trace"}

// perLayer is what -trace 1 reports on every workload. A layer that
// does no work on a workload reads 0 there.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{name: l + ".cpu_ns_per_pkt", unit: "ns", better: "lower"},
			metricDef{name: l + ".allocs_per_pkt", unit: "count", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "runtime.gc.cpu_ns_per_pkt", unit: "ns", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "bench.cpu_ns_per_pkt", unit: "ns", better: "lower"},
		{name: "bench.pkt_rate_untraced", unit: "pkt/s", better: "higher"},
		{name: "bench.pkt_rate_traced", unit: "pkt/s", better: "higher"},
		{name: "bench.trace_slowdown", unit: "ratio", better: "lower"},
		{name: "step_p50_us", unit: "us", better: "lower"},
		{name: "step_p99_us", unit: "us", better: "lower"},
		{name: "sim.events_per_pkt", unit: "count", better: "lower"},
		{name: "sim.pending_max", unit: "count", better: "lower"},
		{name: "tcp.retransmit_ratio", unit: "ratio", better: "lower"},
		{name: "tcp.rep_timeouts_per_flow", unit: "count", better: "lower"},
		{name: "topology.build_ns", unit: "ns", better: "lower"},
		{name: "link.utilization", unit: "ratio", better: "higher"},
		{name: "core.live_bytes_per_flow", unit: "B", better: "lower"},
		{name: "core.served_ratio", unit: "ratio", better: "higher"},
		{name: "core.pools_waited", unit: "count", better: "lower"},
		{name: "obs.snapshot_ns", unit: "ns", better: "lower"},
		{name: "obs.prom_encode_ns", unit: "ns", better: "lower"},
		{name: "obs.prom_bytes", unit: "B", better: "lower"},
		{name: "metrics.readout_ns", unit: "ns", better: "lower"},
		{name: "metrics.short_jfi", unit: "ratio", better: "higher"},
		{name: "workload.replay_ns", unit: "ns", better: "lower"},
		{name: "workload.fct_p50_s", unit: "s", better: "lower"},
		{name: "workload.fct_p99_s", unit: "s", better: "lower"},
		{name: "workload.completed_frac", unit: "ratio", better: "higher"},
		{name: "trace.generate_ns", unit: "ns", better: "lower"},
	}...)
}()
