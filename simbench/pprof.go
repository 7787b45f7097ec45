package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded by hand (the profile.proto wire format:
// gzip around protobuf) so the benchmark needs nothing outside the
// standard library. Only the fields the share computation reads are
// kept.

// profSample is one stack (leaf first) and its CPU time.
type profSample struct {
	stack []string
	nanos int64
}

// readVarint decodes one protobuf varint.
func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// fields walks one protobuf message, calling fn with each field number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func fields(b []byte, fn func(num int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n, err = readVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errors.New("pprof: short field")
			}
			payload, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n, err := readVarint(payload)
		if err != nil {
			return nil, err
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile into leaf-first stacks
// of function names weighted by CPU nanoseconds.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = fields(raw, func(num, wire int, v uint64, p []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(p, func(num, wire int, v uint64, p []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, p)
				case 2:
					s.vals, err = varints(s.vals, wire, v, p)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(p, func(num, wire int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(num, wire int, v uint64, p []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(p, func(num, wire int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, nanos: int64(s.vals[1])})
	}
	return out, nil
}

// shareLayers are the layers whose CPU share the traced run reports.
var shareLayers = []string{"des", "resource", "noc", "npu", "collectives", "graph", "trace", "power", "gc"}

// gcRoots mark a stack as garbage-collector work wherever it sits.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// sampleLayer attributes one stack to a layer: garbage collection when
// any frame is collector work, else the innermost acesim package, so a
// runtime allocation or map lookup counts against the layer that asked
// for it. Stacks with no acesim frame return "".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	const prefix = "acesim/internal/"
	for _, fn := range stack {
		if !strings.HasPrefix(fn, prefix) {
			continue
		}
		rest := fn[len(prefix):]
		pkg := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "des", "resource", "noc", "collectives", "graph", "trace", "power":
			return pkg
		case "npu", "core":
			return "npu"
		case "training":
			// The training loop is a front end that lowers onto the
			// graph executor.
			return "graph"
		case "stats":
			// Windowed power timelines live in stats; the rest is the
			// busy/byte accounting of resource servers and links.
			if strings.Contains(rest, "PowerTrace") {
				return "power"
			}
			return "resource"
		}
		return "other"
	}
	return ""
}

// cpuShares returns each reported layer's share of the profile's CPU
// time.
func cpuShares(samples []profSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		total += s.nanos
		by[sampleLayer(s.stack)] += s.nanos
	}
	out := map[string]float64{}
	for _, l := range shareLayers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
