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

// selfLayers are the per-layer self-time shares the traced run
// reports: the repository's simulation packages by leaf frame, the Go
// runtime split into garbage collection, scheduling (which includes
// the partitioned engine's barrier waits) and the rest, and "other"
// for everything else (standard library, service code).
var selfLayers = []string{
	"switchfab", "arbiter", "core", "cam", "buffer", "sim", "endnode", "link",
	"pkt", "invariant", "metrics", "traffic",
	"runtime.gc", "runtime.sched", "runtime.other", "other",
}

// cpuProfile samples the CPU while it is running.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends sampling and returns each layer's share of the samples and
// the sample count.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	return layerShares(stacks)
}

func layerShares(stacks []stackSample) (map[string]float64, int, error) {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[classify(s.funcs)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range selfLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, int(total), nil
}

// classify names the layer a sample's self time belongs to; funcs runs
// from the leaf frame outward.
func classify(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	leaf := funcs[0]
	if pkg, ok := strings.CutPrefix(leaf, "repro/internal/"); ok {
		pkg, _, _ = strings.Cut(pkg, ".")
		for _, l := range selfLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if !strings.HasPrefix(leaf, "runtime.") {
		return "other"
	}
	for _, f := range funcs {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.markroot"),
			f == "runtime.scanobject", f == "runtime.sweepone":
			return "runtime.gc"
		}
	}
	for _, f := range funcs {
		switch f {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
			"runtime.gopark", "runtime.futex", "runtime.futexsleep", "runtime.futexwakeup",
			"runtime.notesleep", "runtime.notewakeup", "runtime.stopm", "runtime.startm",
			"runtime.usleep", "runtime.osyield", "runtime.goready", "runtime.wakep":
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// stackSample is one decoded profile sample: its function names from
// the leaf frame outward (inlined frames included) and its count.
type stackSample struct {
	funcs []string
	count int64
}

// decodeProfile reads the gzipped protocol-buffer profile that
// runtime/pprof writes, keeping only what classify needs: the
// Profile's samples (field 2), locations (4), functions (5) and
// string table (6).
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if s.count == 0 { // first value: sample count
						vals := appendVarints(nil, wire, v, b)
						if len(vals) > 0 {
							s.count = int64(vals[0])
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var funcs []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		out = append(out, stackSample{funcs: funcs, count: s.count})
	}
	return out, nil
}

// appendVarints appends a repeated integer field that is either one
// varint (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField walks one protocol-buffer message, handing each field's
// number, wire type and value (varint) or payload (length-delimited)
// to fn.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
