package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile that runtime/pprof writes (a gzipped
// profile.proto message) far enough to attribute samples to the repository's
// layers. Only the fields used below are read; everything else is skipped.

// cpuProfile is the decoded subset of a profile: every sample's stack as
// function names (leaf first), its weight, and its string labels, and the
// sampling period in nanoseconds.
type cpuProfile struct {
	samples []cpuSample
	period  int64
}

type cpuSample struct {
	stack  []string
	weight int64
	labels map[string]string
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	profPeriod      = 12

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

func parseCPUProfile(gz []byte) (*cpuProfile, error) {
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
		value  int64
		labels [][2]int64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
		period   int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					ids, err := varints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case sampleValue:
					vals, err := varints(wire, v, b)
					if first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
					return err
				case sampleLabel:
					var kv [2]int64
					err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						switch num {
						case labelKey:
							kv[0] = int64(v)
						case labelStr:
							kv[1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		case profPeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples)), period: period}
	for _, s := range samples {
		cs := cpuSample{weight: s.value}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		if len(s.labels) > 0 {
			cs.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in b. Fixed-width
// fields are skipped (profile.proto has none that this decoder reads).
func eachField(b []byte, f func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
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
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuLayers are the repository layers whose self share the traced run
// reports as cpu.<layer>; cumLayers also get an inclusive cpu_cum.<layer>.
var (
	cpuLayers = []string{"dtree", "forest", "smac", "core", "predicate", "qmc", "pipeline",
		"provenance", "provlog", "exec", "dataxray", "exptables", "metrics", "synth"}
	cumLayers = []string{"dtree", "forest", "smac", "provenance", "provlog"}
)

// layerOf names the repository package a function belongs to, "" for a
// function outside the repository.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// isGC reports whether a function is garbage-collector work: marking
// (assists included) or sweeping.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.bgsweep",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// cpuShares attributes the samples that keep(labels) accepts. A sample with
// garbage-collector work on its stack counts as "gc"; otherwise its self
// share goes to the layer of its innermost repository frame, and to "other"
// when it has none or that layer is not in cpuLayers. cum[l] is the share
// of samples with any frame of layer l.
func cpuShares(p *cpuProfile, keep func(map[string]string) bool) (self, cum map[string]float64, total int64) {
	self = map[string]float64{"gc": 0, "other": 0}
	cum = map[string]float64{}
	listed := map[string]bool{}
	for _, l := range cpuLayers {
		self[l] = 0
		listed[l] = true
	}
	for _, l := range cumLayers {
		cum[l] = 0
	}
	for _, s := range p.samples {
		if !keep(s.labels) {
			continue
		}
		total += s.weight
		owner, gc := "", false
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				if owner == "" {
					owner = l
				}
				seen[l] = true
			}
			gc = gc || isGC(fn)
		}
		switch {
		case gc:
			self["gc"] += float64(s.weight)
		case listed[owner]:
			self[owner] += float64(s.weight)
		default:
			self["other"] += float64(s.weight)
		}
		for l := range cum {
			if seen[l] {
				cum[l] += float64(s.weight)
			}
		}
	}
	if total > 0 {
		for l := range self {
			self[l] /= float64(total)
		}
		for l := range cum {
			cum[l] /= float64(total)
		}
	}
	return self, cum, total
}
