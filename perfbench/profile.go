package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample: its stack as function names,
// leaf first, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what layer
// bucketing needs: each sample's stack (inlined frames expanded, leaf
// first) and its cpu-nanoseconds value. The module has no third-party
// dependencies, so this is a minimal protobuf reader for the fields
// the Go runtime emits.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
		nanosIdx  = -1
		typeIdx   []int64 // sample_type entries as string indexes of their type
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, typ)
		case 2: // sample
			var s rawSample
			if err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, b, func(u uint64) { s.locs = append(s.locs, u) })
				case 2:
					return pbUints(w, v, b, func(u uint64) { s.values = append(s.values, int64(u)) })
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
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
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i, t := range typeIdx {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			nanosIdx = i
		}
	}
	if nanosIdx < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanosIdx >= len(s.values) {
			continue
		}
		cs := cpuSample{nanos: s.values[nanosIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// pbFields walks the top-level fields of one protobuf message, calling
// fn with the field number, wire type, and either the varint value or
// the length-delimited payload.
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbUints delivers a repeated varint field in either encoding: one
// value per field occurrence, or a packed run.
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(u)
		b = b[n:]
	}
	return nil
}
