package core

import (
	"bytes"
	"math/rand"
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// repeatRunner returns n copies of run: the sim form of a sharded
// middlebox, every shard driven by one engine.
func repeatRunner(run sim.Runner, n int) []sim.Runner {
	runs := make([]sim.Runner, n)
	for i := range runs {
		runs[i] = run
	}
	return runs
}

// TestGoldenTracesOneShard is the sharding no-regression gate: a
// Sharded middlebox with exactly one shard must reproduce every pinned
// single-TAQ golden hash byte for byte. Any divergence means the shard
// path (NewShardedOn + shared Aggregator) is not the identity it
// claims to be.
func TestGoldenTracesOneShard(t *testing.T) {
	want := loadGolden(t)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			events, reads, _ := runGolden(t, sc, 1)
			w, ok := want[sc.name]
			if !ok {
				t.Fatalf("no golden hash for scenario %q", sc.name)
			}
			if g := hashHex(events); g != w[0] {
				t.Errorf("one-shard event trace diverged from the single-TAQ golden:\n got  %s\n want %s", g, w[0])
			}
			if g := hashHex(reads); g != w[1] {
				t.Errorf("one-shard read-out diverged from the single-TAQ golden:\n got  %s\n want %s", g, w[1])
			}
		})
	}
}

// TestShardedDeterministicTrace: with all shards on one engine, a
// multi-shard middlebox stays fully deterministic — two runs produce
// byte-identical event and read-out streams.
func TestShardedDeterministicTrace(t *testing.T) {
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			ev1, rd1, _ := runGolden(t, sc, 4)
			ev2, rd2, _ := runGolden(t, sc, 4)
			if len(ev1) == 0 {
				t.Fatal("4-shard run produced no events")
			}
			if !bytes.Equal(ev1, ev2) {
				t.Errorf("4-shard event streams diverged: %d vs %d bytes", len(ev1), len(ev2))
			}
			if !bytes.Equal(rd1, rd2) {
				t.Error("4-shard read-outs diverged")
			}
		})
	}
}

// TestShardedAggregateAccounting drives a 4-shard middlebox on one
// engine and checks the cross-shard reductions: every offered packet
// is an arrival on exactly one shard, every drop reaches the hook
// once, packets are conserved, and the aggregate gauges see the flows.
func TestShardedAggregateAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	sh := NewShardedOn(repeatRunner(eng, 4), DefaultConfig(600*link.Kbps, 16))
	var hookDrops uint64
	sh.AddDropHook(func(*packet.Packet) { hookDrops++ })
	sh.Start()
	defer sh.Stop()

	const flows = 8
	rng := rand.New(rand.NewSource(3))
	seqs := make([]int, flows)
	var offered, dequeued uint64
	for now := sim.Time(0); now < 20*sim.Second; now += 10 * sim.Millisecond {
		eng.RunUntil(now)
		for k := 0; k < 3; k++ {
			i := rng.Intn(flows)
			sh.Enqueue(&packet.Packet{Flow: packet.FlowID(i + 1), Kind: packet.Data, Seq: seqs[i], Size: 500})
			seqs[i]++
			offered++
		}
		if sh.Dequeue() != nil {
			dequeued++
		}
	}

	st := sh.Stats()
	if hookDrops == 0 {
		t.Fatal("scenario made no drops; the buffer is not contended")
	}
	if st.Arrivals != offered {
		t.Errorf("summed shard arrivals = %d, offered %d", st.Arrivals, offered)
	}
	if st.Drops != hookDrops {
		t.Errorf("summed shard drops = %d, drop hook counted %d", st.Drops, hookDrops)
	}
	if st.Served != dequeued {
		t.Errorf("summed shard served = %d, dequeued %d", st.Served, dequeued)
	}
	if st.Arrivals != st.Served+st.Drops+uint64(sh.Len()) {
		t.Errorf("arrivals %d != served %d + drops %d + held %d", st.Arrivals, st.Served, st.Drops, sh.Len())
	}
	if got := sh.ActiveFlows(); got == 0 || got > flows {
		t.Errorf("aggregate active flows = %d, want in (0,%d]", got, flows)
	}
	// The flows must actually be spread: with 8 flows and the
	// Fibonacci shard hash, more than one shard sees traffic.
	busy := 0
	for i := 0; i < sh.NumShards(); i++ {
		if sh.Shard(i).Stats.Arrivals > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of 4 shards saw traffic; flows are not partitioned", busy)
	}
}

// TestAdmissionCountedInAdmittingShard: the shared admission
// controller counts each admission in the Stats of the shard whose SYN
// it admitted, so Sharded.Stats is a plain sum of the shards' Stats.
func TestAdmissionCountedInAdmittingShard(t *testing.T) {
	t.Run("per SYN", func(t *testing.T) {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig(600*link.Kbps, 32)
		cfg.AdmissionControl = true
		sh := NewShardedOn(repeatRunner(eng, 4), cfg)
		for f := packet.FlowID(1); f <= 16; f++ {
			owner := ShardOf(f, sh.NumShards())
			var before [4]uint64
			for i := range before {
				before[i] = sh.Shard(i).Stats.PoolsAdmitted
			}
			// Zero loss: every head-of-line SYN of a fresh pool admits.
			sh.Enqueue(&packet.Packet{Flow: f, Pool: packet.PoolID(f), Kind: packet.Syn, Size: 40})
			for i := range before {
				want := before[i]
				if i == owner {
					want++
				}
				if got := sh.Shard(i).Stats.PoolsAdmitted; got != want {
					t.Fatalf("flow %d (shard %d): shard %d PoolsAdmitted = %d, want %d", f, owner, i, got, want)
				}
			}
		}
	})

	var admission goldenScenario
	for _, sc := range goldenScenarios {
		if sc.name == "admission" {
			admission = sc
		}
	}
	for _, shards := range []int{1, 4} {
		_, _, q := runGolden(t, admission, shards)
		sh := q.(*Sharded)
		var sum Stats
		for i := 0; i < sh.NumShards(); i++ {
			sum.Add(&sh.Shard(i).Stats)
		}
		if got := sh.Stats(); got != sum {
			t.Errorf("%d shards: Stats() = %+v, sum of shards %+v", shards, got, sum)
		}
		if sum.PoolsWaited == 0 {
			t.Errorf("%d shards: admission scenario made no pool wait (PoolsAdmitted %d)", shards, sum.PoolsAdmitted)
		}
	}
}
