package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"taq/internal/sim"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGenConfig()
	recs := Generate(cfg)
	if len(recs) == 0 {
		t.Fatal("empty log")
	}
	// Sorted by time, inside the window.
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time }) {
		t.Error("log not sorted")
	}
	for _, r := range recs {
		if r.Time < 0 || r.Time >= cfg.Duration {
			t.Fatalf("record outside window: %v", r.Time)
		}
		if r.Size < cfg.MinSize || r.Size > cfg.MaxSize {
			t.Fatalf("size out of bounds: %d", r.Size)
		}
	}
	// Client coverage near the configured population.
	if c := Clients(recs); c < cfg.Clients*9/10 {
		t.Errorf("clients = %d, want ≈%d", c, cfg.Clients)
	}
	// Aggregate volume in the right ballpark (paper: ~1.5 GB over 2h;
	// heavy tails make this noisy — accept a broad band).
	gb := float64(TotalBytes(recs)) / (1 << 30)
	if gb < 0.2 || gb > 30 {
		t.Errorf("total = %.2f GB, want O(1 GB)", gb)
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	cfg := DefaultGenConfig()
	recs := Generate(cfg)
	small, large := 0, 0
	for _, r := range recs {
		if r.Size < 100*1024 {
			small++
		}
		if r.Size > 1<<20 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("size distribution not heavy-tailed: %d small, %d large of %d", small, large, len(recs))
	}
	// Most objects are small (web-like).
	if float64(small)/float64(len(recs)) < 0.8 {
		t.Errorf("small-object fraction %f, want ≥0.8", float64(small)/float64(len(recs)))
	}
	// Sizes must span several orders of magnitude.
	minS, maxS := math.MaxInt, 0
	for _, r := range recs {
		if r.Size < minS {
			minS = r.Size
		}
		if r.Size > maxS {
			maxS = r.Size
		}
	}
	if math.Log10(float64(maxS)/float64(minS)) < 3 {
		t.Errorf("size span %d..%d too narrow", minS, maxS)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a, b := Generate(cfg), Generate(cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	cfg.Seed = 2
	c := Generate(cfg)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateDegenerate(t *testing.T) {
	if Generate(GenConfig{}) != nil {
		t.Error("zero config should generate nil")
	}
}

func TestRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Duration = 60 * sim.Second
	cfg.Clients = 10
	recs := Generate(cfg)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Client != recs[i].Client || got[i].Size != recs[i].Size {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		// Time round-trips through microsecond-precision text.
		if d := got[i].Time - recs[i].Time; d < -sim.Microsecond || d > sim.Microsecond {
			t.Fatalf("record %d time drift %v", i, d)
		}
	}
}

func TestParseErrorsAndComments(t *testing.T) {
	if _, err := Parse(strings.NewReader("not a record\n")); err == nil {
		t.Error("malformed line accepted")
	}
	recs, err := Parse(strings.NewReader("# comment\n\n1.5 3 1000\n"))
	if err != nil || len(recs) != 1 || recs[0].Client != 3 || recs[0].Size != 1000 {
		t.Errorf("parse = %v, %v", recs, err)
	}
}

func TestParseRejectsOutOfRange(t *testing.T) {
	cases := []struct{ name, record, want string }{
		{"NaN time", "NaN 1 100", "time NaN"},
		{"infinite time", "Inf 1 100", "time +Inf"},
		{"negative infinite time", "-Inf 1 100", "time -Inf"},
		{"time past sim.Time", "1e300 1 100", "time 1e+300"},
		{"negative time", "-5 1 100", "time -5"},
		{"negative client", "1 -3 100", "negative client -3"},
		{"negative size", "1 3 -100", "size -100"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			recs, err := Parse(strings.NewReader("# header\n0.5 1 10\n" + c.record + "\n"))
			if err == nil {
				t.Fatalf("Parse accepted %q as %+v", c.record, recs)
			}
			if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q, want line 3 and %q", err, c.want)
			}
		})
	}
	// The range edges that stay legal.
	recs, err := Parse(strings.NewReader("0 0 0\n9223372036 1 1\n"))
	if err != nil || len(recs) != 2 || recs[1].Time != 9223372036*sim.Second {
		t.Errorf("edge records: %v, %v", recs, err)
	}
}

// FuzzParse feeds arbitrary text to Parse: it never panics, and every
// record it accepts has a non-negative time (a time that overflowed
// sim.Time would be negative), client, and size.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"0.5 1 100\n",
		"# comment\n\n1.5 3 1000\n2 4 5\n",
		"NaN 1 100\n",
		"1e300 1 100\n",
		"-5 1 100\n",
		"1 -3 -100\n",
		"9223372036.854775 1 1\n",
		"not a record\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, r := range recs {
			if r.Time < 0 || r.Client < 0 || r.Size < 0 {
				t.Fatalf("record %d accepted out of range: %+v", i, r)
			}
		}
	})
}

func TestWindow(t *testing.T) {
	recs := []Record{
		{Time: 1 * sim.Second}, {Time: 5 * sim.Second}, {Time: 9 * sim.Second},
	}
	got := Window(recs, 2*sim.Second, 9*sim.Second)
	if len(got) != 1 || got[0].Time != 5*sim.Second {
		t.Errorf("Window = %v", got)
	}
}
