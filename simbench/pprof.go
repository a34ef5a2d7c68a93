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

// sharePackages are the layers a CPU profile is folded into. Every
// sample lands in exactly one of them or in "other", so the shares sum
// to one.
var sharePackages = []string{
	"xrand", "cache", "cpu", "workload", "buffercache", "go_maps", "gc",
	"sim", "osker", "odb", "engine", "storage", "bus", "system", "campaign",
	"other",
}

// profileSample is one decoded CPU-profile sample: its stack, leaf
// first, as function names (inlined frames expanded), and its weight.
type profileSample struct {
	stack []string
	value int64
}

// decodeProfile parses a gzipped pprof protobuf as runtime/pprof writes
// it, keeping only what the package fold needs: each sample's last
// value (CPU nanoseconds for a CPU profile) and its function names.
func decodeProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, b)
				case 2:
					s.values, err = appendUints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profileSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// eachField walks the fields of one protobuf message, handing varints
// as v and length-delimited payloads as b. Fixed-width fields are
// skipped; groups do not occur in profile.proto.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// foldShares attributes each sample's flat weight to one layer and
// returns each layer's share of the total. A sample counts as gc when
// any frame of its stack is collector work; otherwise its leaf
// function's package decides.
func foldShares(samples []profileSample) map[string]float64 {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.value <= 0 || len(s.stack) == 0 {
			continue
		}
		layer := packageLayer(s.stack[0])
		for _, fn := range s.stack {
			if isGCFrame(fn) {
				layer = "gc"
				break
			}
		}
		weights[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(sharePackages))
	for _, p := range sharePackages {
		shares[p] = 0
		if total > 0 {
			shares[p] = float64(weights[p]) / float64(total)
		}
	}
	return shares
}

// isGCFrame reports whether a function is garbage-collector work: mark
// workers and assists, sweeping, scavenging and write barriers.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") ||
		strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") ||
		strings.HasPrefix(fn, "runtime.markroot")
}

// packageLayer maps a leaf function name to its layer: the simulator
// package under internal/ (nested packages fold into their parent), the
// Go map runtime, or "other".
func packageLayer(fn string) string {
	if strings.HasPrefix(fn, "internal/runtime/maps.") || strings.HasPrefix(fn, "runtime.map") {
		return "go_maps"
	}
	const prefix = "odbscale/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "other"
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	for _, p := range sharePackages {
		if p == pkg {
			return p
		}
	}
	return "other"
}
