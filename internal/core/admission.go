package core

import (
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// poolInfo tracks one flow pool (a set of inter-related flows from the
// same application session, §4.3). Records live in the admission
// controller's flat table, not behind individual heap pointers.
type poolInfo struct {
	waitingSince sim.Time
	lastActive   sim.Time
	key          packet.PoolID
	admitted     bool
	waited       bool
	inUse        bool
}

// admPoolTable is the admission controller's pool state in the same
// flat open-addressed shape as the tracker's stores (flowstore.go):
// poolInfo records in a slice, a free list of expired slots, and an
// oaIndex from PoolID → slot, so the admission decision on the packet
// path does no Go map access.
//
// Pointer discipline: create can grow recs and relocate every record,
// so a *poolInfo must never be held across a create — work with slots
// and re-derive &recs[slot] after any call that may file a record
// (TestPoolRecordPointersMoveOnCreate pins the hazard; flowstore.go
// states the same rule for flow records).
type admPoolTable struct {
	recs []poolInfo
	free []int32
	idx  oaIndex // PoolID → slot
}

// lookup returns pool's record, or nil. The pointer is valid only
// until the next create (see the type comment).
func (pt *admPoolTable) lookup(pool packet.PoolID) *poolInfo {
	slot, ok := pt.idx.get(int32(pool))
	if !ok {
		return nil
	}
	return &pt.recs[slot]
}

// create files a zeroed record for pool (which must be absent) and
// returns its slot. It returns the slot, not a pointer, precisely
// because the append below may have moved every existing record.
func (pt *admPoolTable) create(pool packet.PoolID) int32 {
	var slot int32
	if n := len(pt.free); n > 0 {
		slot = pt.free[n-1]
		pt.free = pt.free[:n-1]
		pt.recs[slot] = poolInfo{}
	} else {
		slot = int32(len(pt.recs))
		pt.recs = append(pt.recs, poolInfo{}) //taq:allow noalloc amortized pool-array growth; expired slots are free-list recycled
	}
	pi := &pt.recs[slot]
	pi.key, pi.inUse = pool, true
	pt.idx.put(int32(pool), slot)
	return slot
}

// releaseSlot unfiles the record in slot and recycles it.
func (pt *admPoolTable) releaseSlot(slot int32) {
	pi := &pt.recs[slot]
	pt.idx.del(int32(pi.key))
	pi.inUse = false
	pt.free = append(pt.free, slot)
}

// admission implements §4.3 flow-pool admission control: a flow is
// admitted if its pool is already admitted, or if the pool is new and
// the loss rate sits below a threshold slightly under p_thresh. Pools
// that wait are admitted in FIFO order, and every pool is guaranteed
// admission within Twait (chosen below the TCP SYN timeout so a
// retried SYN of a waiting pool gets through).
//
// The controller is clock-free: every entry point takes now from the
// caller. In a sharded middlebox the shards may run on separate
// engines, and the shared controller (owned by the Aggregator, under
// admMu) must do its Twait arithmetic on the calling shard's timeline.
type admission struct {
	cfg     Config
	pools   admPoolTable
	waiting []packet.PoolID
	// lastForceAdmit paces Twait-guaranteed admissions to one pool
	// per Twait while the loss rate stays above the threshold.
	lastForceAdmit sim.Time
	// rec, when non-nil, receives AdmissionDecision trace events
	// (installed via TAQ.SetRecorder).
	rec *obs.Recorder
	// mx, when non-nil, counts decisions (installed via
	// TAQ.SetMetrics).
	mx *Metrics
}

// threshold is the admit-below loss rate: p_thresh shaved by the
// congestion-avoidance margin.
func (a *admission) threshold() float64 {
	return a.cfg.PThresh * (1 - a.cfg.AdmitMargin)
}

// allowSyn decides whether the SYN of the given pool may proceed; an
// admission is counted in st.
func (a *admission) allowSyn(now sim.Time, pool packet.PoolID, lossRate float64, st *Stats) bool {
	if pool == packet.PoolNone {
		return true
	}
	slot, ok := a.pools.idx.get(int32(pool))
	if !ok {
		// create may relocate the whole record array; it returns the
		// slot and the record pointer is derived only afterward.
		slot = a.pools.create(pool)
		a.pools.recs[slot].waitingSince = now
	}
	pi := &a.pools.recs[slot]
	pi.lastActive = now
	if pi.admitted {
		return true
	}
	headOfLine := len(a.waiting) == 0 || a.waiting[0] == pool
	switch {
	case headOfLine && now-pi.waitingSince >= a.cfg.Twait && now-a.lastForceAdmit >= a.cfg.Twait:
		// The Twait guarantee admits one waiting pool per Twait (the
		// head of the FIFO), pacing admissions under persistent
		// overload rather than opening the floodgates.
		a.lastForceAdmit = now
		a.admit(pool, pi, st)
		a.mx.observeAdmission(obs.AdmissionForced)
		a.rec.AdmissionDecision(now, pool, obs.AdmissionForced)
		return true
	case headOfLine && lossRate < a.threshold():
		// Loss is low and this pool is next in line (or nobody waits).
		a.admit(pool, pi, st)
		a.mx.observeAdmission(obs.AdmissionAdmitted)
		a.rec.AdmissionDecision(now, pool, obs.AdmissionAdmitted)
		return true
	default:
		a.enqueueWaiting(pool)
		pi.waited = true
		a.mx.observeAdmission(obs.AdmissionBlocked)
		a.rec.AdmissionDecision(now, pool, obs.AdmissionBlocked)
		return false
	}
}

// poolAdmitted reports whether the pool may send data packets.
func (a *admission) poolAdmitted(now sim.Time, pool packet.PoolID) bool {
	if pool == packet.PoolNone {
		return true
	}
	pi := a.pools.lookup(pool)
	if pi == nil {
		return false
	}
	pi.lastActive = now
	return pi.admitted
}

// admit marks the pool admitted and counts it in st. pi must have been
// derived after the last create (no create happens between derivation
// in allowSyn and this call).
func (a *admission) admit(pool packet.PoolID, pi *poolInfo, st *Stats) {
	pi.admitted = true
	a.removeWaiting(pool)
	st.PoolsAdmitted++
	if pi.waited {
		st.PoolsWaited++
	}
}

func (a *admission) enqueueWaiting(pool packet.PoolID) {
	for _, w := range a.waiting {
		if w == pool {
			return
		}
	}
	a.waiting = append(a.waiting, pool) //taq:allow noalloc bounded by waiting pools; amortized growth
}

func (a *admission) removeWaiting(pool packet.PoolID) {
	for i, w := range a.waiting {
		if w == pool {
			a.waiting = append(a.waiting[:i], a.waiting[i+1:]...)
			return
		}
	}
}

// expire evicts pools inactive longer than the flow expiry (waiting
// pools are kept: their Twait guarantee must survive). The walk runs in
// slot order over the flat table — deterministic, unlike the map
// iteration it replaced — and doubles as the index's off-packet-path
// growth point.
func (a *admission) expire(now sim.Time) {
	a.pools.idx.maybeGrow()
	for i := range a.pools.recs {
		pi := &a.pools.recs[i]
		if pi.inUse && pi.admitted && now-pi.lastActive > a.cfg.FlowExpiry {
			a.pools.releaseSlot(int32(i))
		}
	}
}

// WaitingPools returns how many pools are queued for admission.
func (a *admission) waitingPools() int { return len(a.waiting) }

// expectedWait estimates how long the pool will wait before
// admission, assuming the loss rate stays above the threshold so
// admissions are Twait-paced FIFO. Zero for admitted or unknown pools.
// §4.3: a proxy-mode middlebox can surface this to the user as "a
// visible queue of requests with expected wait times".
func (a *admission) expectedWait(now sim.Time, pool packet.PoolID) sim.Time {
	pi := a.pools.lookup(pool)
	if pi == nil || pi.admitted {
		return 0
	}
	pos := -1
	for i, w := range a.waiting {
		if w == pool {
			pos = i
			break
		}
	}
	if pos < 0 {
		return 0
	}
	// Head of line: the remainder of its own (and the pacer's) Twait.
	headWait := a.cfg.Twait - (now - a.pools.lookup(a.waiting[0]).waitingSince)
	if pace := a.cfg.Twait - (now - a.lastForceAdmit); pace > headWait {
		headWait = pace
	}
	if headWait < 0 {
		headWait = 0
	}
	return headWait + sim.Time(pos)*a.cfg.Twait
}
