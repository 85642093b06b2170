package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to attribute CPU samples to rfabric modules by the
// function each sample's stack ends in.

// cpuSample is one profile sample: its stack as function names, innermost
// first, its CPU time, and its pprof labels.
type cpuSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// protoReader walks protobuf wire-format fields.
type protoReader struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
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

// next returns the next field's number and wire type; for wire type 0 the
// value is in v, for wire type 2 the payload is in data.
func (r *protoReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: wire type %d", wire)
	}
	return field, wire, v, data, err
}

// ints appends the values of a repeated integer field, packed (wire type
// 2) or not (wire type 0).
func ints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// fields calls fn for every field of msg.
func fields(msg []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	r := protoReader{msg}
	for len(r.b) > 0 {
		f, w, v, data, err := r.next()
		if err != nil {
			return err
		}
		if err := fn(f, w, v, data); err != nil {
			return err
		}
	}
	return nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs, values, labels []uint64 // labels: key, str string-table pairs
	}
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(f, w int, _ uint64, data []byte) error {
		switch f {
		case 2: // Sample
			var s rawSample
			err := fields(data, func(f, w int, v uint64, data []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = ints(s.locs, w, v, data)
				case 2:
					s.values, err = ints(s.values, w, v, data)
				case 3: // Label{key, str}
					var key, str uint64
					err = fields(data, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					})
					s.labels = append(s.labels, key, str)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location{id, line{function_id}}
			var id uint64
			var fns []uint64
			err := fields(data, func(f, _ int, v uint64, data []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(data, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function{id, name}
			var id, name uint64
			err := fields(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{nanos: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				cs.stack = append(cs.stack, str(funcs[fn]))
			}
		}
		for i := 0; i+1 < len(s.labels); i += 2 {
			if cs.labels == nil {
				cs.labels = map[string]string{}
			}
			cs.labels[str(s.labels[i])] = str(s.labels[i+1])
		}
		out = append(out, cs)
	}
	return out, nil
}

// hostModules are the rfabric packages reported as host_share.<module>;
// "db" is the root rfabric package, the DB façade.
var hostModules = []string{"cache", "dram", "fabric", "engine", "vec", "expr", "sql", "plan", "table", "index", "obs", "db"}

// hostBucket names where one sample's CPU time goes: runtime_gc when any
// frame is garbage-collector work, runtime_alloc when any frame is the
// allocator, else the rfabric module of the innermost rfabric frame, else
// other.
func hostBucket(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if isAllocFrame(fn) {
			return "runtime_alloc"
		}
	}
	for _, fn := range stack {
		if m, ok := rfabricModule(fn); ok {
			return m
		}
	}
	return "other"
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

func isAllocFrame(fn string) bool {
	switch fn {
	case "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.makeslicecopy",
		"runtime.growslice", "runtime.makemap", "runtime.makemap_small":
		return true
	}
	return strings.HasPrefix(fn, "runtime.mallocgc")
}

// rfabricModule maps a function name to its rfabric module:
// "rfabric/internal/cache.(*Hierarchy).Load" → cache, "rfabric.(*DB).Query" → db.
func rfabricModule(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, "rfabric/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return "", false
	}
	if strings.HasPrefix(fn, "rfabric.") {
		return "db", true
	}
	return "", false
}

// hostShares returns each bucket's share of CPU time, in percent, over the
// samples whose phase label is not "bench" (the benchmark's own work).
// Unlabelled samples, such as background GC workers, count.
func hostShares(samples []cpuSample) (map[string]float64, int64) {
	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.labels["phase"] == "bench" {
			continue
		}
		byBucket[hostBucket(s.stack)] += s.nanos
		total += s.nanos
	}
	shares := map[string]float64{}
	for b, n := range byBucket {
		shares[b] = 100 * float64(n) / float64(max(total, 1))
	}
	return shares, total
}
