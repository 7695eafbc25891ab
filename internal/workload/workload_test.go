package workload

import (
	"testing"

	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/trace"
)

func quickNet(seed int64, bw link.Bps, qk topology.QueueKind) *topology.Network {
	return topology.MustNew(topology.Config{Seed: seed, Bandwidth: bw, Queue: qk})
}

func TestAddBulkFlows(t *testing.T) {
	n := quickNet(1, 1000*link.Kbps, topology.DropTail)
	flows := AddBulkFlows(n, 5, 100*sim.Millisecond)
	if len(flows) != 5 || n.NumFlows() != 5 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[4].Started != 400*sim.Millisecond {
		t.Errorf("stagger wrong: %v", flows[4].Started)
	}
	n.Run(20 * sim.Second)
	for _, f := range flows {
		if n.Slicer.FlowTotal(f.ID) == 0 {
			t.Errorf("flow %d delivered nothing", f.ID)
		}
	}
}

func TestShortFlowCompletes(t *testing.T) {
	n := quickNet(2, 1000*link.Kbps, topology.DropTail)
	res := AddShortFlow(n, 10, sim.Second)
	n.Run(30 * sim.Second)
	if !res.Done {
		t.Fatal("short flow incomplete")
	}
	if res.Duration() <= 0 || res.Duration() > 10*sim.Second {
		t.Errorf("duration = %v", res.Duration())
	}
}

func TestSessionFetchesObjectsWithBoundedParallelism(t *testing.T) {
	n := quickNet(3, 1000*link.Kbps, topology.DropTail)
	s := NewSession(n, 1, 2)
	for i := 0; i < 5; i++ {
		s.Request(5000, 0)
	}
	// With 2 connections, at most 2 active at once; run and complete.
	n.Engine.RunUntil(100 * sim.Millisecond)
	if n.NumFlows() > 2 {
		t.Errorf("flows created early = %d, want ≤2 (maxConns)", n.NumFlows())
	}
	n.Run(60 * sim.Second)
	done := 0
	for _, r := range s.Results {
		if r.Done {
			done++
		}
	}
	if done != 5 {
		t.Fatalf("completed %d of 5", done)
	}
	if s.Outstanding() != 0 {
		t.Errorf("outstanding = %d", s.Outstanding())
	}
	// Objects requested together but serialized over 2 conns: later
	// objects must have Started after earlier ones ended... at least
	// the 5th object starts after the 1st completes.
	if s.Results[4].Started < s.Results[0].End {
		t.Error("5th object started before any slot freed")
	}
}

func TestReplayTimedVsASAP(t *testing.T) {
	recs := []trace.Record{
		{Time: 0, Client: 1, Size: 2000},
		{Time: 30 * sim.Second, Client: 1, Size: 2000},
		{Time: 0, Client: 2, Size: 2000},
	}
	// Timed: the second object of client 1 can't finish before 30s.
	n1 := quickNet(4, 1000*link.Kbps, topology.DropTail)
	s1 := Replay(n1, recs, 4, ReplayTimed)
	n1.Run(60 * sim.Second)
	if len(s1) != 2 {
		t.Fatalf("sessions = %d", len(s1))
	}
	if got := s1[1].Results[1].End; got < 30*sim.Second {
		t.Errorf("timed replay finished 2nd object at %v, before its request time", got)
	}
	// ASAP: everything can finish within seconds.
	n2 := quickNet(4, 1000*link.Kbps, topology.DropTail)
	s2 := Replay(n2, recs, 4, ReplayASAP)
	n2.Run(60 * sim.Second)
	if got := s2[1].Results[1].End; got > 20*sim.Second {
		t.Errorf("ASAP replay too slow: %v", got)
	}
	if CompletedFraction(s2) != 1 {
		t.Errorf("ASAP completion = %v", CompletedFraction(s2))
	}
}

func TestCollectObjectSamplesAndCDF(t *testing.T) {
	n := quickNet(5, 1000*link.Kbps, topology.DropTail)
	recs := []trace.Record{
		{Time: 0, Client: 1, Size: 15 * 1024},
		{Time: 0, Client: 2, Size: 105 * 1024},
	}
	sessions := Replay(n, recs, 4, ReplayASAP)
	n.Run(120 * sim.Second)
	samples := CollectObjectSamples(sessions)
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	small := DownloadCDF(sessions, 10*1024, 20*1024)
	if small.N() != 1 {
		t.Errorf("small-bucket CDF N = %d", small.N())
	}
	big := DownloadCDF(sessions, 100*1024, 110*1024)
	if big.N() != 1 {
		t.Errorf("big-bucket CDF N = %d", big.N())
	}
	if big.Median() <= small.Median() {
		t.Errorf("bigger object downloaded faster: %v vs %v", big.Median(), small.Median())
	}
}

func TestWebUserPool(t *testing.T) {
	n := quickNet(6, 1000*link.Kbps, topology.DropTail)
	WebUserPool(n, 10, 4, sim.Second)
	if n.NumFlows() != 40 {
		t.Fatalf("flows = %d, want 40", n.NumFlows())
	}
	n.Run(30 * sim.Second)
	n.Hangs.Finish(n.Engine.Now())
	if n.Hangs.NumPools() != 10 {
		t.Errorf("pools = %d, want 10", n.Hangs.NumPools())
	}
}

func TestSessionGivesUpWhenSynFails(t *testing.T) {
	// A tiny, swamped DropTail with MaxSynRetries=0 makes handshakes
	// fail; OnFail must free the connection slot (no deadlock).
	cfg := topology.Config{Seed: 7, Bandwidth: 50 * link.Kbps, BufferPackets: 2}
	tcpCfg := cfg.TCP
	_ = tcpCfg
	n := topology.MustNew(cfg)
	// Fill the link with background flows so SYNs drop.
	AddBulkFlows(n, 30, 0)
	s := NewSession(n, 1, 1)
	for i := 0; i < 3; i++ {
		s.Request(1000, sim.Second)
	}
	n.Run(300 * sim.Second)
	// All objects either completed or failed; none stuck pending
	// behind a dead slot.
	if s.Outstanding() > 1 {
		t.Errorf("outstanding = %d; session deadlocked", s.Outstanding())
	}
}
