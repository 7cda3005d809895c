package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// meter brackets one measured phase: host wall time, process CPU time
// (user+sys over every thread), and bytes the Go runtime allocated.
type meter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// phase is what a meter read over one phase.
type phase struct {
	wallS, cpuS, allocB float64
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: processCPU(), alloc: heapAllocs()}
}

func (m meter) stop() phase {
	return phase{
		wallS:  time.Since(m.wall).Seconds(),
		cpuS:   (processCPU() - m.cpu).Seconds(),
		allocB: float64(heapAllocs() - m.alloc),
	}
}

// processCPU is the user+sys CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far (getrusage
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// readMetrics reads runtime/metrics samples by name, in order.
func readMetrics(names ...string) []metrics.Sample {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return samples
}

func heapAllocs() uint64 {
	return readMetrics("/gc/heap/allocs:bytes")[0].Value.Uint64()
}

// gcStats is the runtime's GC account: completed cycles, and the CPU
// seconds spent on GC and in use at all (available minus idle). The
// runtime refreshes its CPU classes only when a cycle ends, so a
// difference of two readings covers up to the last cycle between them.
type gcStats struct {
	cycles         uint64
	gcCPU, usedCPU float64
}

func readGC() gcStats {
	s := readMetrics("/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds")
	return gcStats{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), usedCPU: s[2].Value.Float64() - s[3].Value.Float64()}
}

func (g gcStats) plus(o gcStats) gcStats {
	return gcStats{cycles: g.cycles + o.cycles, gcCPU: g.gcCPU + o.gcCPU, usedCPU: g.usedCPU + o.usedCPU}
}

func (g gcStats) minus(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, gcCPU: g.gcCPU - o.gcCPU, usedCPU: g.usedCPU - o.usedCPU}
}

// heapSampler tracks the peak of live heap objects by polling the
// runtime every few milliseconds until stopped.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// median of a non-empty sample set.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostFacts are the facts a speed-up claim must carry beside it.
type hostFacts struct {
	CPUs       int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPUModel   string `json:"cpu_model"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
