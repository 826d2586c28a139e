package vnet

import (
	"sync/atomic"
	"testing"
	"time"

	"morpheus/internal/clock"
)

// benchWorld builds a two-node wired world with the given segment latency
// on a fresh virtual clock; the benchmark goroutine holds its run token.
func benchWorld(b *testing.B, latency time.Duration) (*clock.Virtual, *Node, *atomic.Uint64) {
	b.Helper()
	clk := clock.NewVirtual()
	b.Cleanup(clk.Stop)
	w := NewWorld(1, clk)
	b.Cleanup(func() { _ = w.Close() })
	w.AddSegment(SegmentConfig{Name: "lan", Latency: latency})
	a, err := w.AddNode(1, Fixed, "lan")
	if err != nil {
		b.Fatal(err)
	}
	recv, err := w.AddNode(2, Fixed, "lan")
	if err != nil {
		b.Fatal(err)
	}
	var got atomic.Uint64
	recv.Handle("p", func(src NodeID, port string, payload []byte) {
		got.Add(1)
	})
	return clk, a, &got
}

// BenchmarkVnetDelivery measures frame delivery: the "sync" case is the
// zero-latency in-process path (pure lock and accounting overhead); the
// "timed" case pushes every frame through the clock's timer heap and lets
// virtual time advance past the latency to drain it.
func BenchmarkVnetDelivery(b *testing.B) {
	b.Run("sync", func(b *testing.B) {
		_, a, got := benchWorld(b, 0)
		payload := make([]byte, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send(2, "p", "data", payload); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if int(got.Load()) != b.N {
			b.Fatalf("delivered %d, want %d", got.Load(), b.N)
		}
	})
	b.Run("timed", func(b *testing.B) {
		clk, a, got := benchWorld(b, 200*time.Microsecond)
		payload := make([]byte, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Send(2, "p", "data", payload); err != nil {
				b.Fatal(err)
			}
		}
		clk.Sleep(200 * time.Microsecond)
		b.StopTimer()
		if int(got.Load()) != b.N {
			b.Fatalf("delivered %d, want %d", got.Load(), b.N)
		}
	})
}
