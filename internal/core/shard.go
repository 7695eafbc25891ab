package core

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
)

// ShardOf maps a flow to its owning shard among n: a Fibonacci hash of
// the flow id reduced mod n. The multiplicative mix keeps structured
// id spaces (sequential ids, per-host strides) spread evenly; the same
// function is exported so drivers that partition work per shard (the
// emu shard bank, the shard-scaling experiment) agree with the
// middlebox about ownership.
func ShardOf(f packet.FlowID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint32(f) * 0x9E3779B9 % uint32(n))
}

// Sharded is an N-way flow-hash-partitioned TAQ middlebox (ROADMAP
// item 1; DESIGN.md §12). Each shard is a complete TAQ — its own
// tracker, flow store, class queues, and scheduler accounting, all
// //taq:shardowned — and the shards share exactly one thing: the
// Aggregator's loss window and admission controller, reached only
// through //taq:crossshard seams.
//
// Sharded itself implements queue.Discipline, so it drops in wherever
// a single TAQ does (the sim path drives all shards from one engine
// and stays deterministic; the emu shard bank gives each shard its own
// engine and lock domain). With n=1 every method delegates straight to
// the single shard, whose code path is byte-identical to a standalone
// TAQ.
type Sharded struct {
	shards []*TAQ
	agg    *Aggregator
	rr     int
}

// NewShardedOn builds one shard per runner. The emu form gives each
// shard its own engine (its own lock domain and timers); the sim form
// repeats one runner, driving every shard from one engine. The
// aggregator's window opens at the first runner's clock.
func NewShardedOn(runs []sim.Runner, cfg Config) *Sharded {
	agg := NewAggregator(cfg, runs[0].Now())
	s := &Sharded{
		shards: make([]*TAQ, len(runs)),
		agg:    agg,
	}
	for i, run := range runs {
		s.shards[i] = NewShard(run, cfg, agg)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i, for drivers that address shards directly
// (each emu shard goroutine feeds exactly its own shard).
func (s *Sharded) Shard(i int) *TAQ { return s.shards[i] }

// Aggregator returns the shared cross-shard state.
func (s *Sharded) Aggregator() *Aggregator { return s.agg }

// Start starts every shard's periodic scan.
func (s *Sharded) Start() {
	for _, sh := range s.shards {
		sh.Start()
	}
}

// Stop cancels every shard's periodic scan.
func (s *Sharded) Stop() {
	for _, sh := range s.shards {
		sh.Stop()
	}
}

// Enqueue implements queue.Discipline: the packet goes to the shard
// that owns its flow.
func (s *Sharded) Enqueue(p *packet.Packet) {
	s.shards[ShardOf(p.Flow, len(s.shards))].Enqueue(p)
}

// Dequeue implements queue.Discipline: shards are served round-robin,
// each running its own 3-level hierarchical scheduler internally. With
// one shard this is exactly the single TAQ scheduler.
func (s *Sharded) Dequeue() *packet.Packet {
	n := len(s.shards)
	for i := 0; i < n; i++ {
		sh := s.shards[(s.rr+i)%n]
		if p := sh.Dequeue(); p != nil {
			s.rr = (s.rr + i + 1) % n
			return p
		}
	}
	return nil
}

// Len implements queue.Discipline: total packets across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Bytes implements queue.Discipline: total bytes across shards.
func (s *Sharded) Bytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Bytes()
	}
	return n
}

// SetDropHook implements queue.Discipline on every shard.
func (s *Sharded) SetDropHook(fn func(*packet.Packet)) {
	for _, sh := range s.shards {
		sh.SetDropHook(fn)
	}
}

// AddDropHook implements queue.Discipline on every shard.
func (s *Sharded) AddDropHook(fn func(*packet.Packet)) {
	for _, sh := range s.shards {
		sh.AddDropHook(fn)
	}
}

// ObserveReverse routes an ack-path packet to the shard owning its
// flow (§3.3 two-way deployments).
func (s *Sharded) ObserveReverse(p *packet.Packet) {
	s.shards[ShardOf(p.Flow, len(s.shards))].ObserveReverse(p)
}

// SetRecorder installs one trace recorder on every shard (and, through
// the first shard, on the shared admission controller). Only safe when
// all shards run on one engine — the sim path; per-engine emu shards
// must keep recorders per shard.
func (s *Sharded) SetRecorder(rec *obs.Recorder) {
	for _, sh := range s.shards {
		sh.SetRecorder(rec)
	}
}

// SetMetrics installs one instrument bundle on every shard. Registry
// cells are atomics, so this is safe even with per-engine shards; the
// emu shard bank instead gives each shard its own registry and merges
// snapshots at the edge.
func (s *Sharded) SetMetrics(mx *Metrics) {
	for _, sh := range s.shards {
		sh.SetMetrics(mx)
	}
}

// Stats sums the per-shard counters into one middlebox view; each
// shard counts the pools it admitted.
func (s *Sharded) Stats() Stats {
	var sum Stats
	for _, sh := range s.shards {
		sum.Add(&sh.Stats)
	}
	return sum
}

// ActiveFlows sums the shards' active flow counts.
func (s *Sharded) ActiveFlows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.ActiveFlows()
	}
	return n
}

// RecoveringFlows sums the shards' recovering flow counts.
func (s *Sharded) RecoveringFlows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.RecoveringFlows()
	}
	return n
}

// StateCensus sums the shards' per-state flow censuses.
func (s *Sharded) StateCensus() Census {
	var c Census
	for _, sh := range s.shards {
		sc := sh.StateCensus()
		for i := range c {
			c[i] += sc[i]
		}
	}
	return c
}

// QueueLen sums one class's queue length across shards.
func (s *Sharded) QueueLen(c Class) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.QueueLen(c)
	}
	return n
}

// LossRate reads the shared loss window (identical on every shard).
func (s *Sharded) LossRate() float64 { return s.agg.lossRate() }

// LossEWMA reads the shared smoothed loss rate.
func (s *Sharded) LossEWMA() float64 { return s.agg.lossEWMAValue() }

// WaitingPools reads the shared admission queue length.
func (s *Sharded) WaitingPools() int { return s.agg.waitingPools() }

var _ queue.Discipline = (*Sharded)(nil)
