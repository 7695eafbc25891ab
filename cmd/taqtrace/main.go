// Command taqtrace generates, inspects and windows synthetic access
// logs in the text format used by the trace-driven experiments
// (Figs 1 and 12). Real proxy logs converted to the same
// "seconds client bytes" format can be substituted anywhere the
// experiments take a trace.
//
// Examples:
//
//	taqtrace -gen -clients 221 -hours 2 > peak.log
//	taqtrace -stat < peak.log
//	taqtrace -from 600 -to 1200 < peak.log > window.log
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"taq/internal/sim"
	"taq/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("taqtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen     = fs.Bool("gen", false, "generate a synthetic log to stdout")
		stat    = fs.Bool("stat", false, "summarize a log from stdin")
		clients = fs.Int("clients", 221, "gen: number of clients")
		hours   = fs.Float64("hours", 2, "gen: log duration in hours")
		rate    = fs.Float64("rate", 1.5, "gen: requests per client per minute")
		seed    = fs.Int64("seed", 1, "gen: random seed")
		from    = fs.Float64("from", -1, "window: start seconds (stdin→stdout)")
		to      = fs.Float64("to", math.MaxFloat64, "window: end seconds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *gen:
		cfg := trace.DefaultGenConfig()
		cfg.Seed = *seed
		cfg.Clients = *clients
		cfg.Duration = sim.FromSeconds(*hours * 3600)
		cfg.RequestsPerClientPerMin = *rate
		err = trace.Write(stdout, trace.Generate(cfg))
	case *stat:
		var recs []trace.Record
		if recs, err = trace.Parse(stdin); err == nil {
			summarize(stdout, recs)
		}
	case *from >= 0:
		var recs []trace.Record
		if recs, err = trace.Parse(stdin); err == nil {
			err = trace.Write(stdout, trace.Window(recs, windowBound(*from), windowBound(*to)))
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "taqtrace:", err)
		return 1
	}
	return 0
}

// windowBound converts a -from/-to value in seconds to sim.Time,
// saturating at the largest sim.Time instead of overflowing: the
// default -to, math.MaxFloat64, would otherwise wrap to a negative
// time and empty the window.
func windowBound(secs float64) sim.Time {
	if ns := secs * float64(sim.Second); !(ns < math.MaxInt64) {
		return sim.Time(math.MaxInt64)
	}
	return sim.FromSeconds(secs)
}

func summarize(w io.Writer, recs []trace.Record) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "empty log")
		return
	}
	total := trace.TotalBytes(recs)
	minS, maxS := recs[0].Size, recs[0].Size
	var last sim.Time
	for _, r := range recs {
		if r.Size < minS {
			minS = r.Size
		}
		if r.Size > maxS {
			maxS = r.Size
		}
		if r.Time > last {
			last = r.Time
		}
	}
	fmt.Fprintf(w, "records : %d\n", len(recs))
	fmt.Fprintf(w, "clients : %d\n", trace.Clients(recs))
	fmt.Fprintf(w, "span    : %.0f seconds\n", last.Seconds())
	fmt.Fprintf(w, "volume  : %.2f GB\n", float64(total)/(1<<30))
	fmt.Fprintf(w, "sizes   : %d B .. %d B (mean %.0f B)\n", minS, maxS, float64(total)/float64(len(recs)))
}
