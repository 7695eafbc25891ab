package main

import (
	"bytes"
	"strings"
	"testing"
)

const threeRecords = "0.5 1 100\n10 2 200\n99.25 3 300\n"

// TestWindowDefaultTo pins the window mode with the default -to: every
// record at or after -from is written. The default, math.MaxFloat64
// seconds, lies far past the largest sim.Time, so the bound must
// saturate rather than overflow to a negative time.
func TestWindowDefaultTo(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-from", "0"}, 3},
		{[]string{"-from", "5"}, 2},
		{[]string{"-from", "0", "-to", "1e6"}, 3},
		{[]string{"-from", "0", "-to", "10"}, 1},
		{[]string{"-from", "1e300"}, 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader(threeRecords), &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d; stderr: %s", c.args, code, stderr.String())
		}
		if got := strings.Count(stdout.String(), "\n"); got != c.want {
			t.Errorf("run(%v) wrote %d records, want %d:\n%s", c.args, got, c.want, stdout.String())
		}
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args  []string
		stdin string
		want  int
	}{
		{[]string{"-stat"}, threeRecords, 0},
		{[]string{"-stat"}, "-5 1 100\n", 1},
		{[]string{"-from", "0"}, "not a record\n", 1},
		{nil, "", 2},
		{[]string{"-nosuchflag"}, "", 2},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr); code != c.want {
			t.Errorf("run(%v) = %d, want %d; stderr: %s", c.args, code, c.want, stderr.String())
		}
	}
}
