package main

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark measures real elapsed time on purpose: it is the one
// component that must not run on the program's clock seam. Every wall-time
// read goes through mono and every wall wait through sleep.
var monoBase = time.Now() //lint:wallclock-ok the benchmark's own monotonic time base

// mono returns monotonic nanoseconds since process start.
func mono() int64 {
	return int64(time.Since(monoBase)) //lint:wallclock-ok the benchmark times the program in real time
}

// sleep waits in real time (set-up and drain polling, never on a cast's
// critical path).
func sleep(d time.Duration) {
	time.Sleep(d) //lint:wallclock-ok the benchmark polls the program in real time
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailRank picks the nearest-rank index of the highest quantile no greater
// than want that still leaves minBeyond samples above it, in n sorted
// samples. It returns the index and the quantile actually reported. With
// too few samples for any such quantile it falls back to the median.
func tailRank(n int, want float64) (int, float64) {
	if n <= 0 {
		return -1, 0
	}
	r := int(math.Ceil(want * float64(n)))
	if r > n-minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		return medianRank(n), 0.5
	}
	return r - 1, float64(r) / float64(n)
}

// medianRank is the nearest-rank index of the median of n samples.
func medianRank(n int) int {
	return max(int(math.Ceil(0.5*float64(n))), 1) - 1
}

// summary is a sorted sample set's median and tail.
type summary struct {
	n     int
	p50   float64
	tail  float64
	tailQ float64 // the quantile tail was taken at
}

// summarize sorts xs in place and reports its median and its tail at the
// highest supported quantile up to want.
func summarize(xs []float64, want float64) summary {
	s := summary{n: len(xs)}
	if len(xs) == 0 {
		return s
	}
	slices.Sort(xs)
	s.p50 = xs[medianRank(len(xs))]
	i, q := tailRank(len(xs), want)
	s.tail, s.tailQ = xs[i], q
	return s
}

// gap is an interval in which one member delivered nothing.
type gap struct{ from, to int64 }

// window is one reconfiguration, from the coordinator's decision to the
// last member's acknowledgement.
type window struct{ decide, ack int64 }

// pauseOf returns the longest gap that overlaps w on any member: the time
// without service the reconfiguration caused. Gaps shorter than floor are
// never recorded, so a reconfiguration no recorded gap overlaps reports
// floor.
func pauseOf(w window, members [][]gap, floor int64) int64 {
	longest := floor
	for _, gs := range members {
		// Gaps are recorded in time order; skip those ending before w.
		i, _ := slices.BinarySearchFunc(gs, w.decide, func(g gap, t int64) int {
			if g.to <= t {
				return -1
			}
			return 1
		})
		for ; i < len(gs) && gs[i].from < w.ack; i++ {
			longest = max(longest, gs[i].to-gs[i].from)
		}
	}
	return longest
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// offHeap returns a zeroed slice of n values of a pointer-free type T in
// anonymous memory outside the Go heap. The benchmark's per-cast
// bookkeeping lives there so that its size does not move the garbage
// collector's pacing, and with it the program's measured CPU and
// allocation behaviour. Pages are only backed once touched.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil, func() {}, nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { _ = syscall.Munmap(mem) }, nil
}

// cpuModel reads the processor model name, for the run metadata.
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
