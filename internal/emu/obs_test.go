package emu

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/sim"
	"taq/internal/topology"
)

// TestTestbedObservability drives a TAQ testbed with tracing, gauges
// and the live endpoint all enabled — the emu-side integration of the
// obs layer, and a -race workout for the recorder under concurrent
// timer callbacks plus HTTP snapshot reads.
func TestTestbedObservability(t *testing.T) {
	rec := obs.NewRecorder(nil, 1024)
	var series obs.MemorySeries
	tb := newTestbed(t, TestbedConfig{
		Net:           topology.Config{Seed: 3, Bandwidth: 400 * link.Kbps, Queue: topology.TAQ},
		Speedup:       200,
		Events:        rec,
		GaugeSink:     &series,
		GaugeInterval: sim.Second,
		HTTPAddr:      "127.0.0.1:0",
	})
	if tb.HTTPErr != nil {
		t.Logf("live endpoint unavailable: %v", tb.HTTPErr)
	}
	addBulkFlows(tb, 2)
	tb.RunFor(10 * sim.Second)

	if tb.HTTP != nil {
		resp, err := http.Get("http://" + tb.HTTP.Addr() + "/vars")
		if err != nil {
			t.Fatalf("GET /vars: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, key := range []string{`"qlen"`, `"utilization"`, `"qlen_recovery"`, `"active_flows"`, `"loss_ewma"`} {
			if !strings.Contains(string(body), key) {
				t.Errorf("/vars missing %s: %s", key, body)
			}
		}
	}

	tb.Stop()

	var recorded uint64
	var enq, deq bool
	tb.Snapshot(func() {
		recorded = rec.Recorded
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case obs.KindEnqueue:
				enq = true
			case obs.KindDequeue:
				deq = true
			}
		}
	})
	if recorded == 0 {
		t.Fatal("no trace events recorded")
	}
	if !enq || !deq {
		t.Fatalf("missing lifecycle events: enqueue=%v dequeue=%v", enq, deq)
	}
	if len(series.Times) < 2 {
		t.Fatalf("gauge samples = %d, want ≥ 2", len(series.Times))
	}
	if len(series.Names) == 0 || series.Names[0] != "qlen" {
		t.Fatalf("gauge header = %v", series.Names)
	}
}

// TestTestbedStopWithoutObs checks Stop stays safe when no obs options
// are configured (nil gauge set, recorder and server).
func TestTestbedStopWithoutObs(t *testing.T) {
	tb := newTestbed(t, TestbedConfig{Net: topology.Config{Seed: 1, Bandwidth: 200 * link.Kbps}, Speedup: 500})
	addBulkFlows(tb, 1)
	tb.RunFor(sim.Second)
	tb.Stop()
}
