package taq_test

import (
	"math"
	"testing"

	"taq"
)

// These tests exercise the public facade exactly as a downstream user
// would: only identifiers exported by package taq.

func TestFacadeQuickstartFlow(t *testing.T) {
	net := taq.NewNetwork(taq.NetworkConfig{
		Seed:      1,
		Bandwidth: 600 * taq.Kbps,
		Queue:     taq.QueueTAQ,
		RTTJitter: 0.25,
	})
	taq.AddBulkFlows(net, 30, 50*taq.Millisecond)
	net.Run(100 * taq.Second)
	if net.Middlebox == nil {
		t.Fatal("middlebox missing")
	}
	slices := int(100 * taq.Second / net.Slicer.Width())
	if j := net.Slicer.MeanSliceJFI(1, slices); j <= 0 || j > 1 {
		t.Errorf("JFI = %v", j)
	}
	if u := net.Utilization(); u < 0.9 {
		t.Errorf("utilization = %v", u)
	}
}

func TestFacadeMarkovModel(t *testing.T) {
	chain, err := taq.PartialModel(0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := chain.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary sums to %v", sum)
	}
	if got := taq.ExpectedIdleEpochs(0.25); math.Abs(got-2) > 1e-12 {
		t.Errorf("ExpectedIdleEpochs(0.25) = %v, want 2", got)
	}
	tp, err := taq.TippingPoint(0.5, 6)
	if err != nil || tp <= 0 {
		t.Errorf("TippingPoint = %v, %v", tp, err)
	}
	if _, err := taq.FullModel(0.1, 6, 3); err != nil {
		t.Errorf("FullModel: %v", err)
	}
}

func TestFacadeStandaloneMiddlebox(t *testing.T) {
	e := taq.NewEngine(1)
	mb := taq.NewMiddlebox(e, taq.DefaultMiddleboxConfig(600*taq.Kbps, 30))
	mb.Start()
	mb.Enqueue(&taq.Packet{Flow: 1, Kind: taq.KindSyn, Size: 40})
	if mb.Len() != 1 {
		t.Errorf("Len = %d", mb.Len())
	}
	if p := mb.Dequeue(); p == nil || p.Flow != 1 {
		t.Errorf("Dequeue = %v", p)
	}
	if st, ok := mb.FlowStateOf(1); !ok || st != taq.StateNew {
		t.Errorf("state = %v ok=%v, want New", st, ok)
	}
	mb.Stop()
}

func TestFacadeTraceAndSessions(t *testing.T) {
	gen := taq.DefaultTraceConfig()
	gen.Clients = 5
	gen.Duration = 60 * taq.Second
	recs := taq.GenerateTrace(gen)
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	net := taq.NewNetwork(taq.NetworkConfig{Seed: 2, Bandwidth: 1 * taq.Mbps})
	sessions := taq.Replay(net, recs, 4, taq.ReplayASAP)
	net.Run(300 * taq.Second)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	done := 0
	for _, s := range sessions {
		for _, r := range s.Results {
			if r.Done {
				done++
				if r.DownloadTime() <= 0 {
					t.Error("non-positive download time")
				}
			}
		}
	}
	if done == 0 {
		t.Error("no objects completed")
	}
}

func TestFacadeJainIndex(t *testing.T) {
	if j := taq.JainIndex([]float64{1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("JFI = %v", j)
	}
}

func TestFacadeSessionAPI(t *testing.T) {
	net := taq.NewNetwork(taq.NetworkConfig{Seed: 3, Bandwidth: 1 * taq.Mbps})
	s := taq.NewSession(net, 1, 2)
	res := s.Request(10*1024, taq.Second)
	net.Run(60 * taq.Second)
	if !res.Done {
		t.Fatal("object incomplete")
	}
	if s.Outstanding() != 0 {
		t.Errorf("outstanding = %d", s.Outstanding())
	}
}

func TestFacadeTestbed(t *testing.T) {
	tb, err := taq.NewTestbed(taq.TestbedConfig{
		Net:     taq.NetworkConfig{Seed: 4, Bandwidth: 200 * taq.Kbps, Queue: taq.QueueTAQ},
		Speedup: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Snapshot(func() { taq.AddBulkFlows(tb.Net, 1, 0) })
	tb.RunFor(5 * taq.Second)
	tb.Stop()
	var total float64
	tb.Snapshot(func() { total = tb.Net.Slicer.FlowTotal(0) })
	if total == 0 {
		t.Error("testbed flow delivered nothing")
	}
}

func TestFacadeTFRC(t *testing.T) {
	cfg := taq.DefaultTFRCConfig()
	if cfg.MSS != 500 {
		t.Errorf("MSS = %d", cfg.MSS)
	}
	net := taq.NewNetwork(taq.NetworkConfig{Seed: 5, Bandwidth: 400 * taq.Kbps})
	f := net.AddTFRCFlow(taq.PoolNone, 0)
	net.Run(30 * taq.Second)
	if f.TFRCSender.Rate() <= 0 {
		t.Error("TFRC sender rate not positive")
	}
	if net.Slicer.FlowTotal(f.ID) == 0 {
		t.Error("TFRC delivered nothing")
	}
}
