package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Samples are charged to layers by the innermost frame that belongs to
// either a taq/internal/<pkg> package (the layer <pkg>) or to the
// benchmark itself (benchBucket: its own loop and tracing). A sample
// with neither, such as a background GC worker, goes to gcBucket.
const (
	internalPrefix = "taq/internal/"
	benchBucket    = "bench"
	gcBucket       = "runtime.gc"
)

// layerOf returns the bucket of a stack given its function names,
// innermost first.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			return benchBucket
		}
	}
	return gcBucket
}

// foldCPU reads a gzipped CPU profile as runtime/pprof writes it and
// returns the CPU nanoseconds charged to each bucket.
func foldCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	out := map[string]float64{}
	var funcs []string
	for _, s := range p.samples {
		funcs = funcs[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				funcs = append(funcs, p.str(p.funcNames[fid]))
			}
		}
		if vi < len(s.values) {
			out[layerOf(funcs)] += float64(s.values[vi])
		}
	}
	return out, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes [][2]int64 // string-table indexes of (type, unit)
	samples     []sample
	locLines    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → string-table index
	strings     []string
}

type sample struct {
	locs   []uint64 // innermost first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	pbProfileSampleType = 1
	pbProfileSample     = 2
	pbProfileLocation   = 4
	pbProfileFunction   = 5
	pbProfileString     = 6
	pbSampleLocation    = 1
	pbSampleValue       = 2
	pbLocationID        = 1
	pbLocationLine      = 4
	pbLineFunction      = 1
	pbFunctionID        = 1
	pbFunctionName      = 2
	pbValueTypeType     = 1
	pbValueTypeUnit     = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case pbProfileSampleType:
			var st [2]int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case pbValueTypeType:
					st[0] = int64(v)
				case pbValueTypeUnit:
					st[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case pbProfileSample:
			var s sample
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case pbSampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case pbSampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case pbProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case pbProfileString:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// eachField walks the fields of one protobuf message. Varint and
// fixed fields pass their value; length-delimited fields pass their
// bytes (and a value of 0).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("protobuf: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("protobuf: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("protobuf: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("protobuf: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("protobuf: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf: wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: one
// value per field, or a packed run of varints.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("protobuf: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// memStack keys a heap-profile record by its call stack.
type memStack [32]uintptr

// memCounts are one stack's cumulative allocation and free counts.
type memCounts struct{ allocObjs, allocBytes, freeObjs, freeBytes int64 }

// memSnapshot reads the heap profile, which runtime.MemProfile
// publishes as of the last completed GC: callers run runtime.GC first.
func memSnapshot() map[memStack]memCounts {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[memStack]memCounts, n)
	for _, r := range recs[:n] {
		c := out[r.Stack0]
		c.allocObjs += r.AllocObjects
		c.allocBytes += r.AllocBytes
		c.freeObjs += r.FreeObjects
		c.freeBytes += r.FreeBytes
		out[r.Stack0] = c
	}
	return out
}

// memFold charges, per bucket, the objects allocated between before
// and after and the bytes still in use at after, both unsampled at the
// profiling rate the samples were taken at.
type memFold struct {
	allocObjs  map[string]float64
	inuseBytes map[string]float64
}

func foldMem(before, after map[memStack]memCounts, rate int, names *frameCache) memFold {
	f := memFold{allocObjs: map[string]float64{}, inuseBytes: map[string]float64{}}
	for stk, a := range after {
		b := before[stk]
		layer := names.layer(stk)
		if objs, bytes := a.allocObjs-b.allocObjs, a.allocBytes-b.allocBytes; objs > 0 {
			f.allocObjs[layer] += float64(objs) * unsample(objs, bytes, rate)
		}
		if objs, bytes := a.allocObjs-a.freeObjs, a.allocBytes-a.freeBytes; objs > 0 {
			f.inuseBytes[layer] += float64(bytes) * unsample(objs, bytes, rate)
		}
	}
	return f
}

// unsample is the factor pprof applies to heap samples taken every
// rate bytes on average: an object of size s is sampled with
// probability 1-exp(-s/rate).
func unsample(objs, bytes int64, rate int) float64 {
	if rate <= 1 || objs == 0 {
		return 1
	}
	avg := float64(bytes) / float64(objs)
	return 1 / (1 - math.Exp(-avg/float64(rate)))
}

// frameCache symbolizes heap-profile stacks once each.
type frameCache map[memStack]string

func (c *frameCache) layer(stk memStack) string {
	if l, ok := (*c)[stk]; ok {
		return l
	}
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	var funcs []string
	frames := runtime.CallersFrames(stk[:n])
	for {
		fr, more := frames.Next()
		funcs = append(funcs, fr.Function)
		if !more {
			break
		}
	}
	l := layerOf(funcs)
	(*c)[stk] = l
	return l
}
