package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers a CPU profile's self time is charged to,
// in the order they are reported. Each is a cpu.<bucket> metric.
var cpuBuckets = []string{
	"workload", "encoding_json",
	"faas", "core", "psm", "runqueue", "vmm", "pelt",
	"cluster", "tenant", "loadgen", "eventsim",
	"trigtrace", "flightrec", "telemetry",
	"runtime_gc", "runtime_malloc", "runtime_sched",
	"other",
}

const modulePath = "github.com/horse-faas/horse"

// repoBuckets maps the repository's internal packages that have a
// bucket of their own; every other package of the module is "other".
var repoBuckets = map[string]bool{
	"workload": true, "faas": true, "core": true, "psm": true, "runqueue": true,
	"vmm": true, "pelt": true, "cluster": true, "tenant": true, "loadgen": true,
	"eventsim": true, "trigtrace": true, "flightrec": true, "telemetry": true,
}

// Runtime frames are charged by what the stack above them is doing.
var (
	gcMarkers = []string{
		"gcBgMarkWorker", "gcAssist", "gcDrain", "gcMark", "gcStart", "markroot",
		"bgsweep", "sweepone", "scavenge", "wbBuf", "WriteBarrier", "bulkBarrier",
		"scanobject", "scanblock", "scanstack", "greyobject",
	}
	mallocMarkers = []string{
		"mallocgc", "newobject", "makeslice", "growslice", "makemap", "newarray",
		"rawstring", "rawbyteslice", "rawruneslice",
	}
	schedMarkers = []string{
		"runtime.schedule", "findRunnable", "park_m", "gopark", "goready", "futex",
		"notesleep", "notewakeup", "semasleep", "semawakeup", "mcall", "gosched",
		"stopm", "startm", "wakep", "runqsteal", "stealWork", "usleep", "osyield",
		"lock2", "unlock2", "netpoll", "selectgo", "chansend", "chanrecv",
		"semacquire", "semrelease", "newproc", "goexit0", "sysmon",
	}
)

// framePackage returns the import path of a symbol such as
// "github.com/x/y.(*T[a/b.C]).M.func1".
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// packageBucket names the bucket a non-runtime package owns, or "" for
// a standard-library helper (reflect, strconv, sort, ...) whose time is
// charged to the nearest caller that owns a bucket.
func packageBucket(pkg string) string {
	switch {
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/"):
		if name, ok := strings.CutPrefix(pkg, modulePath+"/internal/"); ok && repoBuckets[name] {
			return name
		}
		return "other"
	case pkg == "main":
		return "other"
	}
	return ""
}

func hasMarker(stack []string, markers []string) bool {
	for _, fn := range stack {
		for _, m := range markers {
			if strings.Contains(fn, m) {
				return true
			}
		}
	}
	return false
}

// classify charges one sample's stack (leaf first) to a bucket: the
// package of the leaf frame, where a runtime leaf counts as GC,
// allocation, or scheduling by the runtime frames that called it, and
// any other helper frame counts for its nearest caller with a bucket.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(framePackage(stack[0])) {
		switch {
		case hasMarker(stack, gcMarkers):
			return "runtime_gc"
		case hasMarker(stack, mallocMarkers):
			return "runtime_malloc"
		case hasMarker(stack, schedMarkers):
			return "runtime_sched"
		}
	}
	for _, fn := range stack {
		pkg := framePackage(fn)
		if isRuntime(pkg) || strings.HasPrefix(fn, "type:") {
			continue
		}
		if b := packageBucket(pkg); b != "" {
			return b
		}
	}
	if isRuntime(framePackage(stack[0])) {
		return "runtime_sched"
	}
	return "other"
}

// cpuShares decodes gzipped pprof CPU profiles and returns each
// bucket's share of the CPU time sampled in all of them. The shares sum
// to 1.
func cpuShares(profiles ...[]byte) (map[string]float64, error) {
	byBucket := make(map[string]float64, len(cpuBuckets))
	var total float64
	for _, gz := range profiles {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		p, err := decodeProfile(raw)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for _, s := range p.samples {
			if len(s.values) == 0 {
				continue
			}
			v := float64(s.values[len(s.values)-1])
			stack := make([]string, 0, len(s.locations))
			for _, id := range s.locations {
				stack = append(stack, p.locationFuncs[id]...)
			}
			byBucket[classify(stack)] += v
			total += v
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = byBucket[b] / total
	}
	return shares, nil
}

// The protobuf subset of profile.proto a CPU profile needs.
type profSample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples []profSample
	// locationFuncs maps a location ID to its function names, innermost
	// (inlined) first.
	locationFuncs map[uint64][]string
}

// pbField is one decoded protobuf field.
type pbField struct {
	num   int
	wire  int
	value uint64 // varint or fixed value
	data  []byte // length-delimited payload
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		fld := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fld.wire {
		case 0:
			fld.value, n = pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			fld.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", fld.wire)
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
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

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errors.New("truncated packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	var (
		strs      []string
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location -> function IDs
		funcNames = map[uint64]int64{}    // function -> string index
	)
	err := pbFields(raw, func(f pbField) error {
		var err error
		switch f.num {
		case 2: // sample
			var s profSample
			err = pbFields(f.data, func(sf pbField) error {
				var err error
				switch sf.num {
				case 1:
					s.locations, err = pbUints(s.locations, sf)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, sf)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = pbFields(f.data, func(lf pbField) error {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // line
					return pbFields(lf.data, func(ln pbField) error {
						if ln.num == 1 {
							fns = append(fns, ln.value)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err = pbFields(f.data, func(ff pbField) error {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = int64(ff.value)
				}
				return nil
			})
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locationFuncs: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
				names = append(names, strs[idx])
			}
		}
		p.locationFuncs[loc] = names
	}
	return p, nil
}
