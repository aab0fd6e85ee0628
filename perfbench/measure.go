package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's user+system CPU time in seconds, summed
// over all of its threads (the shard and interval engines use several).
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch reads CPU and wall time together.
type stopwatch struct {
	cpu  float64
	wall time.Time
}

func startWatch() stopwatch { return stopwatch{cpu: cpuNow(), wall: time.Now()} }

// elapsed returns the CPU and wall seconds since the watch started.
func (s stopwatch) elapsed() (cpu, wall float64) {
	return cpuNow() - s.cpu, time.Since(s.wall).Seconds()
}

// heapObjects is the runtime metric for bytes held by heap objects, live
// or not yet swept: the Go heap in use.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapSampler polls the heap in use every millisecond on its own
// goroutine and keeps the peak. The goroutine sleeps between reads, so
// the simulation keeps both CPUs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.read()
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// finish stops the sampler, waits for its goroutine and returns the
// peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
