package emu

import (
	"strings"
	"testing"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/trace"
	"taq/internal/workload"
)

// newTestbed builds a testbed or fails the test.
func newTestbed(t *testing.T, cfg TestbedConfig) *Testbed {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// addBulkFlows starts n long-lived downloads under the engine lock.
func addBulkFlows(tb *Testbed, n int) {
	tb.Snapshot(func() { workload.AddBulkFlows(tb.Net, n, 0) })
}

func TestNewTestbedRejectsInvalidNet(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Net: topology.Config{Bandwidth: -1}, Speedup: 100})
	if err == nil || tb != nil {
		t.Fatalf("NewTestbed(-1 bps) = %v, %v; want nil and an error", tb, err)
	}
	if !strings.Contains(err.Error(), "bandwidth") {
		t.Errorf("error %q does not name the bandwidth", err)
	}
}

// TestTestbedKeepsScenario pins the testbed's own defaults on top of
// topology's: 600 Kbps, identical RTTs and no access jitter.
func TestTestbedKeepsScenario(t *testing.T) {
	tb := newTestbed(t, TestbedConfig{Speedup: 100})
	defer tb.Stop()
	c := tb.Net.Cfg
	if c.Bandwidth != 600*link.Kbps || c.AccessJitter != 0 || c.RTTJitter != 0 || c.PropRTT != 200*sim.Millisecond {
		t.Errorf("testbed scenario = %v bps, access jitter %v, RTT jitter %v, RTT %v",
			c.Bandwidth, c.AccessJitter, c.RTTJitter, c.PropRTT)
	}
	if tb.Net.Engine != nil {
		t.Error("a wall-clock testbed must not carry a discrete-event engine")
	}
}

// TestTestbedConservation checks packet conservation on the emu path
// once the engine is stopped: every packet offered to the bottleneck
// was sent, dropped, is still queued or is serializing, and — with
// TAQ — every middlebox arrival was served, dropped or is still held.
func TestTestbedConservation(t *testing.T) {
	for _, q := range []topology.QueueKind{topology.DropTail, topology.TAQ} {
		t.Run(string(q), func(t *testing.T) {
			tb := newTestbed(t, TestbedConfig{
				Net:     topology.Config{Seed: 5, Bandwidth: 400 * link.Kbps, Queue: q},
				Speedup: 200,
			})
			addBulkFlows(tb, 8)
			tb.RunFor(20 * sim.Second)
			tb.Stop()
			tb.Snapshot(func() {
				n := tb.Net
				queued := n.Link.Discipline().Len()
				var onWire uint64
				if n.Link.Busy() {
					onWire = 1
				}
				if n.QueueArrivals == 0 {
					t.Fatal("no packets reached the bottleneck")
				}
				if got := n.Link.SentPackets + n.QueueDrops + uint64(queued) + onWire; got != n.QueueArrivals {
					t.Errorf("arrivals %d != sent %d + drops %d + queued %d + on the wire %d",
						n.QueueArrivals, n.Link.SentPackets, n.QueueDrops, queued, onWire)
				}
				mb := n.Middlebox
				if (q == topology.TAQ) != (mb != nil) {
					t.Fatalf("queue %s: middlebox = %v", q, mb)
				}
				if mb == nil {
					return
				}
				st := mb.Stats
				if st.Arrivals != st.Served+st.Drops+uint64(mb.Len()) {
					t.Errorf("middlebox arrivals %d != served %d + drops %d + held %d",
						st.Arrivals, st.Served, st.Drops, mb.Len())
				}
			})
		})
	}
}

func TestSessionOnTestbed(t *testing.T) {
	// The same session machinery drives the real-time prototype: a
	// client fetches three small objects over an emulated 400 Kbps
	// link at 100x time compression.
	tb := newTestbed(t, TestbedConfig{Net: topology.Config{Seed: 9, Bandwidth: 400 * link.Kbps}, Speedup: 100})
	var s *workload.Session
	tb.Engine.Post(func() {
		s = workload.NewSession(tb.Net, 1, 2)
		for i := 0; i < 3; i++ {
			s.Request(4000, 0)
		}
	})
	tb.RunFor(30 * sim.Second)
	tb.Stop()
	done := 0
	tb.Snapshot(func() {
		for _, r := range s.Results {
			if r.Done {
				done++
			}
		}
	})
	if done != 3 {
		t.Fatalf("completed %d of 3 objects on testbed", done)
	}
}

func TestReplayOnTestbed(t *testing.T) {
	tb := newTestbed(t, TestbedConfig{Net: topology.Config{Seed: 10, Bandwidth: 400 * link.Kbps}, Speedup: 100})
	recs := []trace.Record{
		{Time: 0, Client: 1, Size: 3000},
		{Time: 0, Client: 2, Size: 3000},
	}
	var sessions map[int]*workload.Session
	tb.Engine.Post(func() {
		sessions = workload.Replay(tb.Net, recs, 4, workload.ReplayASAP)
	})
	tb.RunFor(20 * sim.Second)
	tb.Stop()
	var frac float64
	tb.Snapshot(func() { frac = workload.CompletedFraction(sessions) })
	if frac != 1 {
		t.Fatalf("testbed replay completed %.2f", frac)
	}
}
