package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped protobuf
// (perftools.profiles.Profile); this file decodes the few fields the
// attribution needs with a minimal wire-format reader, so the benchmark
// needs no module dependency. Each sample is charged to the innermost
// frame that belongs to this repository, so runtime work a layer
// triggers (scheduling, allocation, channel handoff) counts toward that
// layer; samples with no repository frame go to the Go runtime.

const modulePath = "github.com/easyio-sim/easyio"

// layerOf maps a repository package path (relative to the module) to
// its attribution layer.
var layerOf = map[string]string{
	"internal/sim":       "sim",
	"internal/caladan":   "caladan",
	"internal/pmem":      "pmem",
	"internal/nova":      "nova",
	"internal/odinfs":    "odinfs",
	"internal/core":      "core",
	"internal/dma":       "dma",
	"internal/service":   "service",
	"internal/fxmark":    "driver",
	"internal/apps":      "driver",
	"internal/filebench": "driver",
	"internal/bench":     "setup",
	"perfbench":          "harness", // this benchmark, as compiled into its tests
}

// profLayers is the attribution's reporting order; "other" collects the
// remaining repository packages (stats, rng, perfmodel, ...) and "go"
// the samples with no repository frame.
var profLayers = []string{"setup", "sim", "caladan", "pmem", "nova", "odinfs", "core", "dma", "service", "driver", "harness", "other", "go"}

// attribution is seconds of sampled CPU per layer.
type attribution struct {
	bySeconds map[string]float64
	total     float64
}

// layerForFunc returns the layer of a fully qualified function name, or
// "" if the function is not from this repository.
func layerForFunc(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "harness" // this benchmark's own package main
	}
	if !strings.HasPrefix(fn, modulePath+"/") {
		return ""
	}
	rest := fn[len(modulePath)+1:]
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	pkg := rest
	if dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	return "other"
}

// pbReader walks protobuf wire-format fields.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field: number, wire type, scalar value (wire
// types 0/1/5) or payload (wire type 2).
func (r *pbReader) next() (field int, wt int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[4:]
	default:
		err = errors.New("pprof: unsupported wire type")
	}
	return field, wt, v, payload, err
}

// uints decodes a repeated uint64 field occurrence (packed or not).
func uints(wt int, v uint64, payload []byte, dst []uint64) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// attribute decodes a gzipped CPU profile and charges every sample's CPU
// time to the innermost repository frame's layer.
func attribute(gz []byte) (*attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples    []sample
		strs       []string
		valueTypes [][2]uint64             // (type, unit) string indexes
		funcName   = map[uint64]uint64{}   // function id -> name string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		f, _, _, p, err := r.next()
		if err != nil {
			return nil, err
		}
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			sr := pbReader{p}
			for len(sr.b) > 0 {
				g, _, x, _, err := sr.next()
				if err != nil {
					return nil, err
				}
				if g == 1 || g == 2 {
					vt[g-1] = x
				}
			}
			valueTypes = append(valueTypes, vt)
		case 2: // sample
			var s sample
			sr := pbReader{p}
			for len(sr.b) > 0 {
				g, gwt, x, q, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch g {
				case 1:
					s.locs, err = uints(gwt, x, q, s.locs)
				case 2:
					s.vals, err = uints(gwt, x, q, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := pbReader{p}
			for len(lr.b) > 0 {
				g, _, x, q, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch g {
				case 1:
					id = x
				case 4: // line
					ln := pbReader{q}
					for len(ln.b) > 0 {
						h, _, y, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if h == 1 {
							fns = append(fns, y)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			fr := pbReader{p}
			for len(fr.b) > 0 {
				g, _, x, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch g {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(p))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("pprof: profile has no cpu/nanoseconds sample type")
	}
	a := &attribution{bySeconds: map[string]float64{}}
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			continue
		}
		sec := float64(int64(s.vals[cpuIdx])) / 1e9
		layer := "go"
	frames:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFuncs[loc] { // innermost inlined frame first
				if l := layerForFunc(str(funcName[fn])); l != "" {
					layer = l
					break frames
				}
			}
		}
		a.bySeconds[layer] += sec
		a.total += sec
	}
	return a, nil
}
