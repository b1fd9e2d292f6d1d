package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerModules are the modules the layer table names. Samples charged
// anywhere else (another internal package, the benchmark's own frames) are
// the part of the profile the table does not explain.
var layerModules = []string{
	"sim", "ndpunit", "bridge", "msg", "mailbox", "metadata", "sketch",
	"task", "dram", "workloads", "host", "core", "runtime",
}

const repoPrefix = "ndpbridge/internal/"

// folded is a CPU profile folded by module.
type folded struct {
	seconds map[string]float64
	total   float64
}

// coverage is the share of CPU time charged to a layer-table module.
func (f *folded) coverage() float64 {
	if f.total == 0 {
		return 0
	}
	var named float64
	for _, m := range layerModules {
		named += f.seconds[m]
	}
	return named / f.total
}

// unnamed lists the modules outside the layer table with their share of
// the profile, largest first.
func (f *folded) unnamed() string {
	named := map[string]bool{}
	for _, m := range layerModules {
		named[m] = true
	}
	var rest []string
	for m := range f.seconds {
		if !named[m] {
			rest = append(rest, m)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return f.seconds[rest[i]] > f.seconds[rest[j]] })
	var b strings.Builder
	for _, m := range rest {
		fmt.Fprintf(&b, "%s %.1f%% ", m, 100*f.seconds[m]/f.total)
	}
	if b.Len() == 0 {
		return "none"
	}
	return strings.TrimSpace(b.String())
}

// foldProfile charges each sample of a gzipped profile.proto CPU profile to
// the innermost ndpbridge/internal/<module> frame on its stack, so map
// access, mallocgc and memmove count against the module that called them.
// A stack with no repository frame (GC workers, the scheduler) is charged
// to runtime; one whose only repository frames are the benchmark's own is
// charged to bench.
func foldProfile(gz []byte) (*folded, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	// The CPU profile's sample values are (samples, cpu nanoseconds).
	vi := p.sampleTypes - 1
	if vi < 0 {
		return nil, errors.New("parse CPU profile: no sample types")
	}
	moduleOf := make(map[uint64]string, len(p.locations)) // location → innermost module
	bench := make(map[uint64]bool)
	for id, fns := range p.locations {
		for _, fn := range fns {
			name := p.strings[p.functions[fn]]
			if rest, ok := strings.CutPrefix(name, repoPrefix); ok {
				moduleOf[id] = rest[:strings.IndexAny(rest+".", "./")]
				break
			}
			if strings.HasPrefix(name, "main.") {
				bench[id] = true
			}
		}
	}
	f := &folded{seconds: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		module := "runtime"
		for _, loc := range s.locations {
			if m, ok := moduleOf[loc]; ok {
				module = m
				break
			}
			if bench[loc] {
				module = "bench"
			}
		}
		f.seconds[module] += sec
		f.total += sec
	}
	return f, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes the fields of a profile.proto message the fold uses:
// Profile.sample_type(1), sample(2), location(4), function(5) and
// string_table(6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, d)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line{function_id(1), line(2)}
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d out of range", name)
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field that may arrive packed
// (wire type 2) or one value per field (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varints arrive in v,
// length-delimited fields in data; fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
