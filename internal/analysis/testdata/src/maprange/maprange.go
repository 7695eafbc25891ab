// Package maprange exercises the maprange analyzer: order-sensitive
// loop bodies (calls, float accumulation, unsorted appends, last-writer
// overwrites, channel sends) versus order-insensitive ones (integer
// counting, per-key writes, deletes, collect-then-sort).
package maprange

import "sort"

type sched struct{}

func (sched) Schedule(k int) {}

// Calls inside the body run in map order.
func calls(m map[int]int, s sched) {
	for k := range m { // want `calls s\.Schedule`
		s.Schedule(k)
	}
}

// Floating-point accumulation is not associative.
func floatAcc(m map[int]float64) float64 {
	t := 0.0
	for _, v := range m { // want `accumulates floating-point into t`
		t += v
	}
	return t
}

// Appending without sorting inherits map order.
func appendNoSort(m map[int]int) []int {
	var out []int
	for k := range m { // want `appends to out`
		out = append(out, k)
	}
	return out
}

// Plain overwrite of an outer variable: last writer wins in map order.
func lastWriter(m map[int]int) int {
	last := 0
	for k := range m { // want `overwrites last`
		last = k
	}
	return last
}

// Channel sends happen in map order.
func sends(m map[int]int, ch chan int) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

// The canonical fix: collect keys, sort, then iterate.
func collectThenSort(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Integer counting commutes; no finding.
func intCount(m map[int]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// Writes indexed by the loop key touch disjoint slots; no finding.
func perKeyWrite(m, out map[int]int) {
	for k, v := range m {
		out[k] = v * 2
	}
}

// delete of visited keys is explicitly permitted by the spec.
func drain(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}

// Ranging a slice is never flagged.
func sliceRange(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}

// Suppression with a determinism argument.
func allowed(m map[int]float64) float64 {
	t := 0.0
	//taq:allow maprange (coarse tolerance; order error below reporting precision)
	for _, v := range m {
		t += v
	}
	return t
}

// A map range inside a function literal is checked like any other.
func inClosure(m map[int]int, s sched) func() {
	return func() {
		for k := range m { // want `calls s\.Schedule`
			s.Schedule(k)
		}
	}
}

// The sort must follow the loop inside the closure that runs it: a
// sort in the enclosing function does not order the closure's appends.
func sortOutsideClosure(m map[int]int) []int {
	var out []int
	collect := func() {
		for k := range m { // want `appends to out without sorting it afterwards`
			out = append(out, k)
		}
	}
	collect()
	sort.Ints(out)
	return out
}

// Closures in an increment's operand, a type switch guard, and a
// package-level initializer are checked too.
func inIncDec(m map[int]int, s sched, counts map[int]int) {
	counts[func() int {
		for k := range m { // want `calls s\.Schedule`
			s.Schedule(k)
		}
		return 0
	}()]++
}

func inTypeSwitch(m map[int]int, s sched) {
	switch func() any {
		for k := range m { // want `calls s\.Schedule`
			s.Schedule(k)
		}
		return nil
	}().(type) {
	case nil:
	}
}

var pkgLevel = func(m map[int]int, s sched) {
	for k := range m { // want `calls s\.Schedule`
		s.Schedule(k)
	}
}
