package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestLayerOfChargesInnermostTaqFrame(t *testing.T) {
	cases := []struct {
		funcs []string // innermost first
		want  string
	}{
		// Time inside the runtime's map code, called from TCP, called
		// from the engine: TCP pays, not the runtime or the engine.
		{[]string{"internal/runtime/maps.(*Map).putSlotSmall", "runtime.mapassign_fast64",
			"taq/internal/tcp.(*Sender).send", "taq/internal/sim.(*Engine).Step", "main.main"}, "tcp"},
		{[]string{"runtime.mallocgc", "taq/internal/topology.(*Network).AddFlow.func1.1",
			"taq/internal/sim.(*Engine).Step"}, "topology"},
		{[]string{"taq/internal/obs/obshttp.serve"}, "obs"},
		{[]string{"time.Now", "main.(*tracer).span", "main.(*simInstance).finish"}, benchBucket},
		// A benchmark callback run by the program is the benchmark's.
		{[]string{"main.(*measurement).rep.func1", "taq/internal/sim.(*Engine).Step"}, benchBucket},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, gcBucket},
		{nil, gcBucket},
	}
	for _, c := range cases {
		if got := layerOf(c.funcs); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.funcs, got, c.want)
		}
	}
}

// pb builds protobuf wire bytes for the synthetic profile below.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = appendUvarint(b, uint64(num)<<3)
	return appendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = appendUvarint(b, uint64(num)<<3|2)
	b = appendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = appendUvarint(b, v)
	}
	return b
}

func TestFoldCPUOnSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "taq/internal/tcp.(*Sender).send", "taq/internal/sim.(*Engine).Step",
		"runtime.gcBgMarkWorker", "taq/internal/core.(*TAQ).Enqueue"}
	var p pb
	p = p.bytes(pbProfileSampleType, pb(nil).varint(pbValueTypeType, 1).varint(pbValueTypeUnit, 2))
	p = p.bytes(pbProfileSampleType, pb(nil).varint(pbValueTypeType, 3).varint(pbValueTypeUnit, 4))
	// Location 1 holds mallocgc; location 2 holds TCP's send inlined
	// into the engine (innermost line first); location 3 the GC worker;
	// location 4 the middlebox.
	p = p.bytes(pbProfileLocation, pb(nil).varint(pbLocationID, 1).bytes(pbLocationLine, pb(nil).varint(pbLineFunction, 1)))
	p = p.bytes(pbProfileLocation, pb(nil).varint(pbLocationID, 2).
		bytes(pbLocationLine, pb(nil).varint(pbLineFunction, 2)).
		bytes(pbLocationLine, pb(nil).varint(pbLineFunction, 3)))
	p = p.bytes(pbProfileLocation, pb(nil).varint(pbLocationID, 3).bytes(pbLocationLine, pb(nil).varint(pbLineFunction, 4)))
	p = p.bytes(pbProfileLocation, pb(nil).varint(pbLocationID, 4).bytes(pbLocationLine, pb(nil).varint(pbLineFunction, 5)))
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		p = p.bytes(pbProfileFunction, pb(nil).varint(pbFunctionID, uint64(id+1)).varint(pbFunctionName, name))
	}
	// Packed and unpacked repeated fields both occur in real profiles.
	p = p.bytes(pbProfileSample, pb(nil).bytes(pbSampleLocation, packed(1, 2)).bytes(pbSampleValue, packed(3, 30_000_000)))
	p = p.bytes(pbProfileSample, pb(nil).varint(pbSampleLocation, 3).varint(pbSampleValue, 1).varint(pbSampleValue, 10_000_000))
	p = p.bytes(pbProfileSample, pb(nil).varint(pbSampleLocation, 4).varint(pbSampleLocation, 2).
		varint(pbSampleValue, 2).varint(pbSampleValue, 20_000_000))
	for _, s := range strs {
		p = p.bytes(pbProfileString, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := foldCPU(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tcp": 30_000_000, gcBucket: 10_000_000, "core": 20_000_000}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // ranks 991..1000 lie beyond: exactly ten
		{999, 99, 990, false}, // only nine beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(sorted(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%g) = %v, %t; want %v, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestConservationChecksFireOnDoctoredCounts(t *testing.T) {
	if err := checkBottleneck(100, 60, 30, 10); err != nil {
		t.Errorf("balanced bottleneck: %v", err)
	}
	if err := checkBottleneck(101, 60, 30, 10); err != nil {
		t.Errorf("one packet on the wire: %v", err)
	}
	if err := checkBottleneck(102, 60, 30, 10); err == nil {
		t.Error("bottleneck check passed with two packets unaccounted for")
	}
	if err := checkBottleneck(99, 60, 30, 10); err == nil {
		t.Error("bottleneck check passed with more packets out than in")
	}
	if err := checkMiddlebox(100, 60, 30, 10); err != nil {
		t.Errorf("balanced middlebox: %v", err)
	}
	if err := checkMiddlebox(100, 61, 30, 10); err == nil {
		t.Error("middlebox check passed a doctored served count")
	}
}

// TestSmokeEachWorkload runs one scenario of every workload at a seed
// other than the default, untraced and then traced, and requires its
// checks to pass and tracing to leave the outputs alone.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m := newMeasurement()
			cfg := runConfig{w: w, seed: 7}
			for _, traced := range []bool{false, true} {
				if _, err := m.rep(cfg, 0, traced); err != nil {
					t.Fatal(err)
				}
			}
			if len(m.failures) > 0 {
				t.Fatalf("checks failed: %v", m.failures)
			}
			if m.attempts != 2 || m.outcomes[0].digest == "" {
				t.Fatalf("attempts = %d, digest %q", m.attempts, m.outcomes[0].digest)
			}
			values := m.endToEndValues()
			for _, d := range endToEnd {
				if v := values[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
			if v := m.perLayerValues()["core.cpu_ns_per_pkt"]; (w.name == "bulk-droptail") != (v == 0) {
				t.Errorf("core.cpu_ns_per_pkt = %v on %s", v, w.name)
			}
		})
	}
}

// TestResultLine checks the last line of a short run: exactly the
// declared metrics, with their units.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "bulk-droptail", "--seed", "3", "--seconds", "0.1",
			"--trace", trace, "-out", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < variants || len(r.Metrics) != len(defs) {
			t.Fatalf("trace %s: correct=%t attempted=%d failed=%d metrics=%d, want %d",
				trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := r.Metrics[d.name]; !ok || got.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, d.name, got, d.unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json
// and the metrics this command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, got, w.name, w.why)
		}
	}
	match := func(kind string, js []def, code []metricDef, bounded bool) {
		if len(js) != len(code) {
			t.Fatalf("%s: json has %d metrics, code %d", kind, len(js), len(code))
		}
		for i, d := range code {
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || (j.Bound != nil) != bounded ||
				(bounded && *j.Bound != d.bound) {
				t.Errorf("%s %d: json %+v, code %+v", kind, i, j, d)
			}
		}
	}
	match("end_to_end", bj.EndToEnd, endToEnd, true)
	match("per_layer", bj.PerLayer, perLayer, false)
}
