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

// The CPU fold reads the gzipped profile.proto that runtime/pprof writes and
// charges every sample to one bucket. It decodes only the fields it needs,
// so the benchmark stays on the standard library.

const repoPrefix = "github.com/unilocal/unilocal/"

// cpuBuckets are the cpu.<bucket>_frac shares, in report order. Samples that
// land in none of them (scheduler, syscalls, HTTP, other repo packages)
// still count in the total.
var cpuBuckets = []string{"lift", "linial", "compose", "core", "algorithms", "local", "gc", "malloc"}

// bucketOf classifies one sample from its stack, leaf first. A sample in
// garbage collection (background marking, assists, sweeping) is "gc"; one
// inside the allocator below the first repository frame is "malloc";
// otherwise the sample is charged to the package of the first repository
// frame, so runtime helpers such as map and slice operations count for the
// code that called them.
func bucketOf(stack []frame) string {
	inMalloc := false
	for _, f := range stack {
		switch {
		case isGC(f.fn):
			return "gc"
		case strings.HasPrefix(f.fn, "runtime.mallocgc"):
			inMalloc = true
		case strings.HasPrefix(f.fn, repoPrefix):
			if inMalloc {
				return "malloc"
			}
			return repoBucket(f)
		}
	}
	if inMalloc {
		return "malloc"
	}
	return ""
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func repoBucket(f frame) string {
	pkg := strings.TrimPrefix(f.fn, repoPrefix)
	switch {
	case strings.HasPrefix(pkg, "internal/algorithms/lift."):
		return "lift"
	case strings.HasPrefix(pkg, "internal/algorithms/linial."), strings.HasPrefix(pkg, "internal/mathutil."):
		return "linial"
	case strings.HasPrefix(pkg, "internal/local."):
		if strings.HasSuffix(f.file, "/compose.go") {
			return "compose"
		}
		return "local"
	case strings.HasPrefix(pkg, "internal/bitset."):
		return "local"
	case strings.HasPrefix(pkg, "internal/core."):
		return "core"
	case strings.HasPrefix(pkg, "internal/algorithms/"):
		return "algorithms"
	}
	return ""
}

// cpuFold accumulates bucket sample counts over one or more profiles.
type cpuFold struct {
	samples int64
	byKey   map[string]int64
}

func newCPUFold() *cpuFold { return &cpuFold{byKey: map[string]int64{}} }

// add folds one gzipped CPU profile into the totals.
func (c *cpuFold) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		stack := make([]frame, 0, len(s.locs))
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		c.samples += s.count
		c.byKey[bucketOf(stack)] += s.count
	}
	return nil
}

func (c *cpuFold) frac(bucket string) float64 {
	if c.samples == 0 {
		return 0
	}
	return float64(c.byKey[bucket]) / float64(c.samples)
}

// frame is one function on a stack; an inlined call contributes one frame
// per function, innermost first, as profile.proto lists them.
type frame struct{ fn, file string }

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]frame
}

// decodeProfile reads the profile.proto fields the fold uses: samples
// (location IDs and the first value, the sample count), locations (their
// line entries' function IDs), functions (name and file indices) and the
// string table.
func decodeProfile(b []byte) (*profile, error) {
	type fn struct{ name, file int64 }
	var (
		samples []profSample
		strs    []string
		funcs   = map[uint64]fn{}
		locFns  = map[uint64][]uint64{}
	)
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s profSample
			first := true
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					ids, err := repeatedVarint(wire, v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := repeatedVarint(wire, v, data)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var f fn
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				if wire != 0 {
					return nil
				}
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locs: make(map[uint64][]frame, len(locFns))}
	for id, fns := range locFns {
		frames := make([]frame, 0, len(fns))
		for _, fid := range fns {
			f := funcs[fid]
			frames = append(frames, frame{fn: str(f.name), file: str(f.file)})
		}
		p.locs[id] = frames
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number,
// wire type and either its varint value or its length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint returns the values of a repeated varint field occurrence,
// packed (wire type 2) or not.
func repeatedVarint(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
