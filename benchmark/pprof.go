package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
)

// cpuProfile is the part of a pprof CPU profile the rollup needs: each
// sample's CPU time and its stack as function names, leaf first, with
// inlined frames expanded. The decoder reads the profile.proto wire
// format directly so the benchmark adds no module dependency.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	nanos int64
	stack []string
}

func readCPUProfile(path string) (*cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated profile")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints reads a repeated integer field, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.data == nil {
		return append(into, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		into, b = append(into, v), b[n:]
	}
	return into, nil
}

// decodeProfile reads Profile{sample=2, location=4, function=5,
// string_table=6}; a sample's last value is its CPU nanoseconds.
func decodeProfile(data []byte) (*cpuProfile, error) {
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.data))
		case 5: // Function{id=1, name=2}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcName[id] = name
		case 4: // Location{id=1, line=4 repeated Line{function_id=1}}, innermost line first
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.val
				case 4:
					ls, err := pbFields(ff.data)
					if err != nil {
						return nil, err
					}
					for _, lf := range ls {
						if lf.num == 1 {
							fns = append(fns, lf.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // Sample{location_id=1, value=2}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, ff := range fs {
				switch ff.num {
				case 1:
					if s.locs, err = pbUints(ff, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = pbUints(ff, s.vals); err != nil {
						return nil, err
					}
				}
			}
			raws = append(raws, s)
		}
	}
	p := &cpuProfile{}
	for _, r := range raws {
		if len(r.vals) == 0 {
			continue
		}
		s := cpuSample{nanos: int64(r.vals[len(r.vals)-1])}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
