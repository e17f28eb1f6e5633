package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// cpuPkgs and allocPkgs are the repository modules the profile rows are
// named after; everything else lands in a runtime_* or other row.
var (
	cpuPkgs = []string{"sim", "netsim", "nic", "engine", "fifo", "bus", "host", "bufmgr", "bufpool",
		"vclookup", "phy", "sonet", "sonetlink", "aal", "atm", "crc", "tm", "ip", "tcp", "metrics", "trace", "core"}
	cpuRest   = []string{"runtime_gc", "runtime_alloc", "runtime_other", "other"}
	allocPkgs = []string{"atm", "bufmgr", "bufpool", "aal", "nic", "netsim", "phy", "sim", "sonetlink",
		"ip", "tcp", "tm", "core"}
)

// memProfileRate samples one allocation per this many bytes during the
// profile phase (the runtime default is 512 KiB, far too coarse to split
// per-cell allocations by package).
const memProfileRate = 4096

// profiler brackets Run calls with a CPU profile and an allocation-profile
// snapshot, and accumulates both by package.
type profiler struct {
	cpu     map[string]int64   // samples by cpu.* row
	allocs  map[string]float64 // estimated objects by package
	before  map[[32]uintptr]runtime.MemProfileRecord
	buf     bytes.Buffer
	samples int64
}

func newProfiler() *profiler {
	return &profiler{cpu: map[string]int64{}, allocs: map[string]float64{}}
}

// start runs right before Run, after the rep's GC.
func (p *profiler) start() error {
	p.before = memProfile()
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop runs right after Run and folds this rep's samples in.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	runtime.GC() // publishes the allocation profile up to the end of Run
	after := memProfile()
	for stk, a := range after {
		b := p.before[stk]
		objs, bytes := a.AllocObjects-b.AllocObjects, a.AllocBytes-b.AllocBytes
		if objs <= 0 {
			continue
		}
		p.allocs[allocPkg(a.Stack())] += scaleHeapSample(objs, bytes, memProfileRate)
	}
	return p.addCPU(p.buf.Bytes())
}

// memProfile snapshots the cumulative allocation profile by stack.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			out := make(map[[32]uintptr]runtime.MemProfileRecord, m)
			for _, r := range recs[:m] {
				out[r.Stack0] = r
			}
			return out
		}
		n = m
	}
}

// scaleHeapSample undoes the allocation profile's sampling, as pprof does:
// an allocation of avg bytes is sampled with probability 1-exp(-avg/rate).
func scaleHeapSample(count, size int64, rate int) float64 {
	if count == 0 || size == 0 {
		return 0
	}
	avg := float64(size) / float64(count)
	return float64(count) / (1 - math.Exp(-avg/float64(rate)))
}

// allocPkg names the package of the first non-runtime frame of an
// allocation stack: the code that asked for the memory.
func allocPkg(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if pkg := pkgOf(f.Function); pkg != "runtime" && !strings.HasPrefix(pkg, "internal/") {
			return strings.TrimPrefix(pkg, "repro/internal/")
		}
		if !more {
			return ""
		}
	}
}

// pkgOf returns the import path of a symbol name such as
// "repro/internal/fifo.(*Ring[go.shape.*uint8]).Push".
func pkgOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuRow attributes one CPU sample (leaf first) to its cpu.* row: GC work
// and allocation by any frame of the stack, everything else by the package
// of the leaf frame.
func cpuRow(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" ||
			fn == "runtime.wbBufFlush" {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "runtime_alloc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	pkg := pkgOf(stack[0])
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
		return "runtime_other"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, p := range cpuPkgs {
			if p == name {
				return name
			}
		}
	}
	return "other"
}

// addCPU decodes one gzipped pprof CPU profile (profile.proto, read with a
// minimal protobuf walker) and adds its sample counts by row.
func (p *profiler) addCPU(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function ids, leaf first
		fnName  = map[uint64]int64{}    // function → string index
		strs    []string
	)
	err = walk(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil || len(vals) == 0 {
				return errors.New("bad sample")
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(num int, v uint64, _ []byte) error {
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
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := walk(b, func(num int, v uint64, _ []byte) error {
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
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.cpu[cpuRow(stack)] += s.count
		p.samples += s.count
	}
	return nil
}

// walk calls fn for every field of one protobuf message: v carries varint
// and fixed-width values, b the bytes of length-delimited ones.
func walk(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated bytes")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
