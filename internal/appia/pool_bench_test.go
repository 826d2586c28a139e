package appia

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkSchedulerPool measures per-task dispatch cost while hosting
// `groups` schedulers on one pool of GOMAXPROCS workers. "loaded" drives
// every group round-robin; "idle" hosts the full population but drives
// only 8 of them — the pool's flat per-group overhead claim is that the
// idle population costs nothing (it is simply absent from every run
// queue).
func BenchmarkSchedulerPool(b *testing.B) {
	for _, groups := range []int{1, 16, 256, 1024} {
		loads := []string{"loaded"}
		if groups > 8 {
			loads = append(loads, "idle")
		}
		for _, load := range loads {
			active := groups
			if load == "idle" {
				active = 8
			}
			b.Run(fmt.Sprintf("groups=%d,%s", groups, load), func(b *testing.B) {
				b.Run("pooled", func(b *testing.B) { benchSchedulerPool(b, groups, active) })
			})
		}
	}
}

func benchSchedulerPool(b *testing.B, groups, active int) {
	pool := NewPool(0, nil)
	defer pool.Close()
	scheds := make([]*Scheduler, groups)
	for i := range scheds {
		scheds[i] = pool.NewScheduler()
	}
	defer func() {
		for _, s := range scheds {
			s.Close()
		}
	}()

	var done atomic.Int64
	fn := func() { done.Add(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scheds[i%active].Do(fn); err != nil {
			b.Fatal(err)
		}
	}
	for done.Load() != int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()

	st := pool.Stats()
	if st.Enqueues == 0 || st.Batches == 0 {
		b.Fatalf("pool never dispatched: %+v", st)
	}
	if st.Stolen < st.Steals {
		b.Fatalf("steal accounting: %d steal ops migrated only %d schedulers", st.Steals, st.Stolen)
	}
	if st.Deterministic {
		b.Fatalf("wall-clock pool reports deterministic mode: %+v", st)
	}
	b.ReportMetric(float64(st.Steals)/float64(b.N), "steals/op")
	b.ReportMetric(float64(st.Batches)/float64(b.N), "batches/op")
}
