package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// hostShape describes the machine a result was measured on.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo ("unknown"
// where there is none).
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

// vmTicks is the machine-wide CPU time in /proc/stat, in clock ticks: busy
// is time the vCPUs ran (user, nice, system, irq, softirq), steal is time
// they were ready to run while the hypervisor ran something else.
type vmTicks struct{ busy, steal uint64 }

// readVMTicks reads the aggregate "cpu" line of /proc/stat (zero where
// there is none, which turns steal correction off).
func readVMTicks() vmTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return parseVMTicks(line)
}

// parseVMTicks parses a /proc/stat "cpu" line: user nice system idle
// iowait irq softirq steal, and possibly more fields.
func parseVMTicks(line string) vmTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return vmTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	return vmTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealShare is the share of the time the vCPUs wanted to run between a
// and b that the hypervisor took from them.
func stealShare(a, b vmTicks) float64 {
	busy, steal := float64(b.busy-a.busy), float64(b.steal-a.steal)
	if busy+steal == 0 {
		return 0
	}
	return steal / (busy + steal)
}

// stopwatch times a stretch of work on a virtual machine whose vCPUs the
// hypervisor shares with other machines. On a 2-vCPU VM of a shared Xeon
// host, that steal moved between 2% and 50% of the time the vCPUs wanted
// to run within minutes, and a pass's wall time with it, while its CPU
// time held within 5%.
type stopwatch struct {
	t0 time.Time
	v0 vmTicks
}

func startStopwatch() stopwatch { return stopwatch{t0: time.Now(), v0: readVMTicks()} }

// elapsed returns the steal share since the start and the run time: the
// wall time less that share, the time the work would have taken on vCPUs
// nothing preempted. Every pass and set-up time the benchmark reports is a
// run time.
func (s stopwatch) elapsed() (steal float64, run time.Duration) {
	wall := time.Since(s.t0)
	steal = stealShare(s.v0, readVMTicks())
	return steal, time.Duration(float64(wall) * (1 - steal))
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapPeak is the largest live heap a garbage collection cycle has
// marked since it was last reset, in bytes: the high-water mark of what the
// program holds, independent of how far past it the collector's pacing
// lets the heap grow before the next cycle.
var liveHeapPeak atomic.Uint64

// watchLiveHeap records, at the end of every garbage collection cycle, the
// live heap that cycle marked, and keeps the largest in liveHeapPeak. A
// finalizer on an unreachable sentinel runs once per cycle and re-arms
// itself with a fresh sentinel.
func watchLiveHeap() {
	type sentinel struct{ _ [16]byte }
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var arm func()
	arm = func() {
		s := new(sentinel)
		runtime.SetFinalizer(s, func(*sentinel) {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > liveHeapPeak.Load() {
				liveHeapPeak.Store(v)
			}
			arm()
		})
	}
	arm()
}
