package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins the scenario flags that must exit 2 rather than
// run on a silent default (-bw 0 used to become 1000 Kbps).
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		bw, rtt  float64
		buffer   int
		duration float64
		wantErr  string // "" for valid
	}{
		{"defaults", 600e3, 0.2, 0, 400, ""},
		{"explicit buffer", 600e3, 0.2, 30, 1, ""},
		{"zero bandwidth", 0, 0.2, 0, 400, "-bw"},
		{"negative bandwidth", -1000, 0.2, 0, 400, "-bw"},
		{"zero rtt", 600e3, 0, 0, 400, "-rtt"},
		{"negative rtt", 600e3, -0.1, 0, 400, "-rtt"},
		{"negative buffer", 600e3, 0.2, -5, 400, "-buffer"},
		{"zero duration", 600e3, 0.2, 0, 0, "-duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.bw, tc.rtt, tc.buffer, tc.duration)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error = %v, want one naming %s", err, tc.wantErr)
			}
		})
	}
}
