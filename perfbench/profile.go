package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// This file turns the benchmark process's own profiles into per-layer
// figures. Every sample is charged to the innermost munin/... frame on
// its stack, so runtime malloc, channel and syscall frames count against
// the layer that called them. Frames of the benchmark itself (package
// main) that run inside the program — the trace-capture callback — charge
// the whole sample to "bench"; a stack with no munin frame at all is
// "runtime.unattributed" (GC workers, the scheduler, idle network
// polling).

const (
	bucketBench        = "bench"
	bucketUnattributed = "runtime.unattributed"
)

// packageLayer maps a munin package to its reporting layer.
func packageLayer(pkg string) string {
	switch pkg {
	case "munin":
		return "views"
	case "apps", "sim", "core", "lrc", "duq", "diffenc", "directory", "vm",
		"network", "wire", "rt", "obs", "nodeset":
		return pkg
	}
	// adapt, model, protocol and the rest: small helpers, reported
	// together.
	return "other"
}

// framePackage returns the munin package a function belongs to
// ("munin" for the root package) or "" for code outside the module.
func framePackage(fn string) string {
	var rest string
	switch {
	case strings.HasPrefix(fn, "munin/internal/"):
		rest = fn[len("munin/internal/"):]
	case strings.HasPrefix(fn, "munin."):
		return "munin"
	default:
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute charges one stack (innermost frame first) to a bucket.
func attribute(stack []string) string {
	sawMunin := false
	for i := len(stack) - 1; i >= 0; i-- {
		fn := stack[i]
		if framePackage(fn) != "" {
			sawMunin = true
		} else if sawMunin && strings.HasPrefix(fn, "main.") {
			// Benchmark code called back from inside the program.
			return bucketBench
		}
	}
	for _, fn := range stack {
		if pkg := framePackage(fn); pkg != "" {
			return packageLayer(pkg)
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	return bucketUnattributed
}

// hasFrame reports whether any frame's function starts with one of the
// prefixes.
func hasFrame(stack []string, prefixes ...string) bool {
	for _, fn := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// syscallFrames identify CPU spent entering the kernel.
var syscallFrames = []string{"syscall.", "internal/poll.", "internal/runtime/syscall.", "runtime/internal/syscall."}

// cpuSample is one CPU profile sample: its stack (innermost first) and
// the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// pcStack symbolizes a runtime stack record, inlined frames expanded,
// innermost first.
func pcStack(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// --- CPU profile decoding ---
//
// runtime/pprof writes the gzipped profile.proto format; the standard
// library has no reader for it, so this is the minimal protobuf walk the
// CPU profile needs: samples (location ids, values), locations (line
// entries, innermost inlined function first), functions (name index) and
// the string table.

var errProto = errors.New("perfbench: malformed profile")

// protoFields calls fn for every field of a protobuf message. For
// varint fields v holds the value; for length-delimited ones (delimited
// set) data.
func protoFields(b []byte, fn func(num int, v uint64, data []byte, delimited bool) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil, false); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)], true); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// protoUints appends a repeated varint field's values, packed
// (delimited) or not.
func protoUints(dst []uint64, v uint64, data []byte, delimited bool) ([]uint64, error) {
	if !delimited {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// decodeCPUProfile parses a runtime/pprof CPU profile into samples.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte, delimited bool) error {
		if !delimited {
			return nil
		}
		switch num {
		case 2: // sample
			var s rawSample
			err := protoFields(data, func(num int, v uint64, d []byte, p bool) (err error) {
				switch num {
				case 1:
					s.locs, err = protoUints(s.locs, v, d, p)
				case 2:
					s.vals, err = protoUints(s.vals, v, d, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte, p bool) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(num int, v uint64, _ []byte, _ bool) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(data, func(num int, v uint64, _ []byte, _ bool) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errProto
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, cpuSample{stack: stack, nanos: int64(s.vals[1])})
	}
	return out, nil
}

// --- Allocation, block and mutex profiles ---
//
// These come straight from the runtime's record APIs, diffed between a
// snapshot before and after the traced runs.

// stackKey identifies a record's stack.
type stackKey [32]uintptr

type profileEntry struct {
	count int64
	value int64 // bytes allocated, or contention cycles
	stack []uintptr
}

type profileSnapshot map[stackKey]profileEntry

func memSnapshot() profileSnapshot {
	// The allocation profile publishes at GC boundaries; two cycles make
	// every allocation so far visible.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	snap := profileSnapshot{}
	for _, r := range recs {
		snap[stackKey(r.Stack0)] = profileEntry{count: r.AllocObjects, value: r.AllocBytes, stack: r.Stack()}
	}
	return snap
}

func contentionSnapshot(read func([]runtime.BlockProfileRecord) (int, bool)) profileSnapshot {
	var recs []runtime.BlockProfileRecord
	for {
		n, ok := read(recs)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.BlockProfileRecord, n+64)
	}
	snap := profileSnapshot{}
	for _, r := range recs {
		snap[stackKey(r.Stack0)] = profileEntry{count: r.Count, value: r.Cycles, stack: r.Stack()}
	}
	return snap
}

// since returns the records' growth from an earlier snapshot.
func (s profileSnapshot) since(before profileSnapshot) []profileEntry {
	var out []profileEntry
	for k, e := range s {
		b := before[k]
		if d := (profileEntry{count: e.count - b.count, value: e.value - b.value, stack: e.stack}); d.count > 0 {
			out = append(out, d)
		}
	}
	return out
}

// scaledAllocs estimates the allocations one sampled record stands for,
// undoing the runtime's size-biased sampling the way pprof does.
func scaledAllocs(e profileEntry, rate int) float64 {
	if e.count == 0 || rate <= 1 {
		return float64(e.count)
	}
	avg := float64(e.value) / float64(e.count)
	return float64(e.count) / (1 - math.Exp(-avg/float64(rate)))
}
