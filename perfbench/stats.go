package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sliceRate splits per-op times (ms) into consecutive slices of n ops and
// returns the median of the slices' throughputs, in ops per second. A burst
// of host noise that slows one slice moves the median far less than the
// mean over the whole run; a trailing partial slice is left out.
func sliceRate(opMS []float64, n int) float64 {
	var rates []float64
	for i := 0; i+n <= len(opMS); i += n {
		rates = append(rates, 1000*float64(n)/sum(opMS[i:i+n]))
	}
	return median(rates)
}

// sliceQuantile is the median over the same slices of each slice's
// q-quantile of op time.
func sliceQuantile(opMS []float64, n int, q float64) float64 {
	var qs []float64
	for i := 0; i+n <= len(opMS); i += n {
		qs = append(qs, quantile(opMS[i:i+n], q))
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap enough to
// read around every op and span.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMB forces a full collection and returns the heap that survived
// it: the state the process still references.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// timeSetup runs setup reps times, each between two host probes, and
// returns the median of their CPU times in seconds, scaled by the probes;
// the value the last rep built is kept.
func timeSetup[T any](clock *hostClock, reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	clock.probe()
	for i := 0; i < reps; i++ {
		w := len(clock.samples) - 1
		start := cpuTime()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := cpuTime() - start
		clock.probe()
		times = append(times, d.Seconds()*clock.scaleAt(w))
		last = v
	}
	return last, median(times), nil
}

// subRand derives an independent, reproducible generator from seed and a
// stream label, so adding draws to one stream never shifts another.
func subRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7_919))
}

// cpuTime returns the process's CPU time, all threads together: the clock
// for set-up and for solve-cold and exec-hardened ops, which never wait
// (serve-mixed times requests in wall time). The kernel accounts hypervisor
// steal separately, so unlike wall time it does not stretch when a shared
// host deschedules the virtual CPU; on the 2-vCPU reference VM steal
// measured 16-33% of each CPU and drifted between runs (see README.md).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// pinToOneCPU moves every thread of the process onto the highest CPU it may
// run on and caps Go at one processor. Threads created later inherit the
// mask. On one CPU a request's client, daemon and collector goroutines hand
// off without cross-CPU wake-ups, which on a virtual machine cost host
// exits whose price moves with the host's load: pinned, serve-mixed took a
// quarter less CPU per request and spread less.
func pinToOneCPU() error {
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	runtime.GOMAXPROCS(1)
	// Twice: a thread the runtime starts during the first pass from a
	// thread not yet pinned is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
		}
	}
	return nil
}
