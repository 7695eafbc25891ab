// Package timerleak exercises the timerleak analyzer: a type with a
// teardown path must not discard *sim.Timer results; a type without
// one may fire-and-forget.
package timerleak

import "taq/internal/sim"

// Stoppable has a teardown path (Stop), so every timer must be
// cancellable from it.
type Stoppable struct {
	run   sim.Runner
	timer *sim.Timer
}

// Kick discards the timer: unstoppable after Stop.
func (s *Stoppable) Kick() {
	s.run.Schedule(1, func() {}) // want `discarded \*sim\.Timer`
}

// KickNested discards inside a closure; the enclosing method's type
// still owns the teardown path.
func (s *Stoppable) KickNested() {
	fn := func() {
		s.run.Schedule(1, func() {}) // want `discarded \*sim\.Timer`
	}
	fn()
}

// KickKept retains the handle; Stop can cancel it.
func (s *Stoppable) KickKept() {
	s.timer = s.run.Schedule(1, func() {})
}

// KickAllowed demonstrates suppression.
func (s *Stoppable) KickAllowed() {
	//taq:allow timerown (fire-once timer gated by the engine stop flag)
	s.run.Schedule(1, func() {})
}

// Stop is the teardown path.
func (s *Stoppable) Stop() { s.timer.Cancel() }

// FireAndForget has no teardown path: it runs to quiescence, so
// discarding timers is fine.
type FireAndForget struct{ run sim.Runner }

// Kick is legal here.
func (f *FireAndForget) Kick() {
	f.run.Schedule(1, func() {})
}
