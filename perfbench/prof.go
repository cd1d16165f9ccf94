package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profPackages are the layers CPU samples are attributed to: the
// repository's internal packages a workload can reach, the benchmark's own
// code, the Go runtime (scheduler, GC, allocator) and everything else
// (standard library outside a repository frame).
var profPackages = []string{
	"cache", "core", "dvs", "experiments", "fault", "isa", "jobs", "loc", "npu", "obs",
	"plot", "policy", "power", "server", "sim", "stats", "trace", "traffic", "workload",
	"bench", "runtime", "other",
}

const modulePrefix = "nepdvs/internal/"

// cpuProfile records a runtime/pprof CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and returns each layer's share of the samples, keyed
// "prof.share.<layer>". A sample belongs to the innermost frame of a
// repository package on its stack, so standard-library work a layer calls
// (container/heap under sim, encoding/json under server) counts as that
// layer's; samples with no repository frame go to runtime or other.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	counts, err := profileLayerCounts(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	out := make(map[string]float64, len(profPackages))
	for _, pkg := range profPackages {
		out["prof.share."+pkg] = ratio(float64(counts[pkg]), float64(total))
	}
	return out, nil
}

// layerOf maps a fully qualified function name to its profile layer.
func layerOf(fn string) (layer string, repo bool) {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, known := range profPackages {
			if known == pkg {
				return pkg, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime", false
	}
	return "other", false
}

// profileLayerCounts decodes a gzipped pprof profile far enough to count
// samples per layer. Only the fields needed are read: samples (location
// IDs and the sample count), locations (their innermost-first line
// entries) and functions (their names in the string table).
func profileLayerCounts(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location ID → function IDs, innermost first
		fnName  = map[uint64]int64{}    // function ID → string-table index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		i := fnName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	counts := map[string]int64{}
	for _, s := range samples {
		layer := ""
		leaf := ""
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				if leaf == "" {
					leaf = n
				}
				if l, repo := layerOf(n); repo {
					layer = l
					break stack
				}
			}
		}
		if layer == "" {
			layer, _ = layerOf(leaf)
		}
		counts[layer] += s.count
	}
	return counts, nil
}

// appendVarints appends a repeated integer field's values, which the
// encoder writes either one per field (v) or packed into b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// protoFields walks the top-level fields of a protobuf message, calling fn
// with the varint value (wire type 0) or the bytes (wire type 2; b is
// non-nil, possibly empty). Fixed-width fields are skipped.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
