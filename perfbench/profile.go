package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer host roll-up reads runtime/pprof output directly: a gzipped
// perftools.profiles.Profile protobuf. Only the fields the roll-up needs are
// decoded, so the benchmark depends on the standard library alone.

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string
	samples     []profSample
	// frames maps a location id to its function names, innermost inlined
	// frame first.
	frames map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64  // one per sample type
}

var errTruncated = errors.New("profile: truncated protobuf")

// protoField calls fn for every field of one protobuf message. For varint
// fields v holds the value; for length-delimited fields data holds the
// bytes. Fixed-width fields are skipped: the roll-up reads none.
func protoField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends one repeated scalar field occurrence, which the
// encoder may write either packed (wire type 2) or as a single varint.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []uint64
		funcName  = map[uint64]uint64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{frames: map[uint64][]string{}}
		rawValues [][]uint64
	)
	err = protoField(raw, func(num, wire int, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return protoField(data, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var vals []uint64
			err := protoField(data, func(num, wire int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, d)
				case 2:
					vals, err = appendVarints(vals, wire, v, d)
				}
				return err
			})
			p.samples = append(p.samples, s)
			rawValues = append(rawValues, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoField(d, func(num, _ int, v uint64, _ []byte) error {
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
			var id, name uint64
			err := protoField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for i, vals := range rawValues {
		if len(vals) != len(p.sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(vals), len(p.sampleTypes))
		}
		p.samples[i].values = make([]int64, len(vals))
		for j, v := range vals {
			p.samples[i].values[j] = int64(v)
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			s, err := str(funcName[f])
			if err != nil {
				return nil, err
			}
			names[i] = s
		}
		p.frames[id] = names
	}
	return p, nil
}

// hostLayers are the buckets of the host roll-up: the simulator's layers,
// the runtime's collector and scheduler, and "other" for every remaining
// repro/internal package (harness, mpe, fault, trace, metrics, ...).
var (
	simLayers = []string{
		"sim", "netsim", "mpi", "adio", "mpiio", "core", "nvm", "pfs",
		"extent", "store", "workloads",
	}
	hostLayers = append(append([]string{}, simLayers...), "runtime.gc", "runtime.sched", "other")
)

const modulePrefix = "repro/internal/"

// layerOf charges one stack to a bucket: the innermost repro/internal/<pkg>
// frame names the layer; a stack without one is the collector's when any
// frame belongs to it, and otherwise the scheduler's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		pkg := fn[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range simLayers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime._GC" {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// rollup sums the named sample value per layer. It fails unless the buckets
// add up exactly to the profile's total, the exact-attribution rule the
// critical-path analyzer also keeps.
func rollup(p *profile, sampleType string) (map[string]int64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no %q samples (have %v)", sampleType, p.sampleTypes)
	}
	out := make(map[string]int64, len(hostLayers))
	for _, l := range hostLayers {
		out[l] = 0
	}
	var total int64
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.frames[id]...)
		}
		out[layerOf(stack)] += s.values[vi]
		total += s.values[vi]
	}
	var sum int64
	for _, l := range hostLayers {
		sum += out[l]
	}
	if sum != total || len(out) != len(hostLayers) {
		return nil, fmt.Errorf("profile: layers sum to %d of %d %s", sum, total, sampleType)
	}
	return out, nil
}
