package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed is not constant. On a shared virtual machine the CPU
// time of identical work moves by a third or more, from second to second
// and between spells of minutes, as other tenants contend for the core's
// caches and the memory bus; two sets of runs taken minutes apart then
// disagree on every time metric although the code is the same (see
// README.md, "Clock").
//
// hostClock measures that speed with a probe: a fixed loop of the
// benchmark's own, run between ops and timed on its own thread. It streams
// over a buffer larger than the last-level cache, then looks up keys in a
// hash table the size of a core's private cache, the two kinds of memory
// traffic contention slows most. No code of the program under test runs in
// it, so a change to the program cannot move it; only the host can.
//
// Op times are reported scaled to the reference probe time:
//
//	reported = measured × (probeRefMS / probe)^probeExp
//
// where probe is the mean of the probes before and after the op. The
// workloads are more sensitive to contention than the probe: on the
// reference VM, op time grew as the probe time to the power 1.3-1.6 within
// runs, and across runs the scaled figures spread least near 1.5 on all
// three workloads (README.md, "Clock").
type hostClock struct {
	buf     []uint64 // outside the Go heap: the probe does not move retained_mb
	samples []float64
	sink    uint64
	since   time.Duration // op time measured since the last probe
}

const (
	// probeStreamWords is the streamed part of the buffer: 16 MiB, larger
	// than the last-level cache, so every pass reads from memory.
	probeStreamWords = 2 << 20
	// probeTableWords is the hash table after it: 1 MiB of slots, half
	// full, probed linearly; probeLookups keys are looked up per probe, about
	// half of them present.
	probeTableWords = 128 << 10
	probeLookups    = 40000
	// probeEvery is how much measured op time passes between probes.
	probeEvery = 50 * time.Millisecond
	// probeRefMS is one probe's CPU time on the reference host (the 2-vCPU
	// VM the benchmark was built on, where it ran 3.3-5.2 ms). It sets the
	// unit: scaled figures of two runs compare the same way whatever it is.
	probeRefMS = 4.0
	probeExp   = 1.5
)

func newHostClock() (*hostClock, error) {
	words := probeStreamWords + probeTableWords
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostClock{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)}
	for i := range h.buf[:probeStreamWords] {
		h.buf[i] = uint64(i)
	}
	table := h.buf[probeStreamWords:]
	x := uint64(1)
	for n := 0; n < probeTableWords/2; n++ {
		x = x*0x9E3779B97F4A7C15 + 12345
		key := x>>33 | 1 // never 0, the empty slot
		j := slotOf(key)
		for table[j] != 0 {
			j = (j + 1) % probeTableWords
		}
		table[j] = key
	}
	return h, nil
}

func slotOf(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 47 } // 17 bits: a table slot

// probe runs the loop once and records its CPU time. It allocates nothing,
// and its thread's CPU time excludes the collector and every other
// goroutine.
func (h *hostClock) probe() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPUTime()
	s := uint64(0)
	for _, v := range h.buf[:probeStreamWords] {
		s += v
	}
	table := h.buf[probeStreamWords:]
	x := s | 1
	for i := 0; i < probeLookups; i++ {
		x = x*0x9E3779B97F4A7C15 + uint64(i)
		key := x>>33 | 1
		for j := slotOf(key); ; j = (j + 1) % probeTableWords {
			if v := table[j]; v == key {
				s++
				break
			} else if v == 0 {
				break
			}
		}
	}
	h.sink += s
	h.samples = append(h.samples, ms(threadCPUTime()-start))
	h.since = 0
}

// window probes if probeEvery of measured op time has passed since the
// last probe (or there is none yet) and returns the latest probe's index:
// the op about to be timed records it as its window.
func (h *hostClock) window() int {
	if h.since >= probeEvery || len(h.samples) == 0 {
		h.probe()
	}
	return len(h.samples) - 1
}

// count adds an op's measured time towards the next probe.
func (h *hostClock) count(d time.Duration) { h.since += d }

// scaleAt is the factor for an op timed in window i, from the mean of
// probe i and the one after it. A timed phase ends with a probe, so every
// window is closed.
func (h *hostClock) scaleAt(i int) float64 {
	p := h.samples[i]
	if i+1 < len(h.samples) {
		p = (p + h.samples[i+1]) / 2
	}
	return math.Pow(probeRefMS/p, probeExp)
}

// scaled returns the op times (ms) scaled by their windows.
func (h *hostClock) scaled(opMS []float64, windows []int) []float64 {
	out := make([]float64, len(opMS))
	for i, v := range opMS {
		out[i] = v * h.scaleAt(windows[i])
	}
	return out
}

// threadCPUTime returns the calling thread's CPU time.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
