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

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark needs
// nothing beyond the standard library, and folds every sample into
// exactly one layer.

// sample is one profile sample: its stack as symbol names, innermost
// frame first with inlined frames expanded, and its CPU time.
type sample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped profile.proto into its samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
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
		strs     []string
		types    [][2]uint64 // sample_type: (type, unit) string indexes
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id -> name string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, pb []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, pb)
				case 2:
					s.values, err = appendVarints(s.values, v, pb)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
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
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	cpu := -1
	for i, t := range types {
		typ, err1 := str(t[0])
		unit, err2 := str(t[1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		if typ == "cpu" && unit == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				stack = append(stack, name)
			}
		}
		out = append(out, sample{stack: stack, nanos: int64(s.values[cpu])})
	}
	return out, nil
}

// eachField calls fn for every top-level field of a protobuf message:
// v carries varint and fixed-width values, b the bytes of
// length-delimited ones.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when the field came unpacked (b == nil), a packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// layerSplit is a CPU profile folded by layer, in seconds.
type layerSplit struct {
	// self is CPU time per layer: each sample goes to the layer of its
	// innermost repository frame. Samples with no repository frame go
	// to gcLayer — mostly background GC, plus the profiler itself.
	self map[string]float64
	// Cross-cuts, which overlap self and are not summed with it:
	// copy is samples whose leaf is memmove/memclr, malloc samples with
	// runtime.mallocgc anywhere on the stack, crypto samples whose leaf
	// is in the Go crypto packages.
	copy, malloc, crypto float64
	total                float64
}

// gcLayer names the samples that have no repository frame.
const gcLayer = "runtime.gc"

// splitByLayer folds samples into layers. A repository frame from a
// package with no layer is an error, not an "other" bucket.
func splitByLayer(samples []sample) (layerSplit, error) {
	s := layerSplit{self: map[string]float64{}}
	for _, smp := range samples {
		sec := float64(smp.nanos) / 1e9
		s.total += sec
		layer := gcLayer
		for _, fn := range smp.stack {
			l, repo, err := layerOf(fn)
			if err != nil {
				return layerSplit{}, err
			}
			if repo {
				layer = l
				break
			}
		}
		s.self[layer] += sec
		if len(smp.stack) > 0 {
			leaf := smp.stack[0]
			if strings.HasPrefix(leaf, "runtime.memmove") || strings.HasPrefix(leaf, "runtime.memclr") {
				s.copy += sec
			}
			if strings.HasPrefix(leaf, "crypto/") || strings.HasPrefix(leaf, "vendor/golang.org/x/crypto/") {
				s.crypto += sec
			}
		}
		for _, fn := range smp.stack {
			if fn == "runtime.mallocgc" {
				s.malloc += sec
				break
			}
		}
	}
	return s, nil
}
