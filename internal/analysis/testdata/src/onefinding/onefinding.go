// Package onefinding plants one defect for each pair of checks that
// see it: a wall-clock read in a hot-path root of a deterministic
// package (wallclock and noblock), and a discarded Reschedule result in
// a type with a teardown path (handle ownership and timer teardown).
// Each defect must yield exactly one diagnostic.
package onefinding

import (
	"time"

	"taq/internal/sim"
)

// Hot is a hot-path root that reads the host clock.
//
//taq:hotpath
func Hot() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now in deterministic package onefinding`
}

type conn struct {
	run   sim.Runner
	timer *sim.Timer
}

// Rearm drops the handle Reschedule returns; conn has a teardown path,
// so nothing could cancel the dropped timer either.
func (c *conn) Rearm() {
	sim.Reschedule(c.run, c.timer, sim.Millisecond, func() {}) // want `discarded Reschedule result`
}

// Stop is the teardown path.
func (c *conn) Stop() { c.timer.Cancel() }
