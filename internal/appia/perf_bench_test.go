package appia

import (
	"testing"
)

// BenchmarkSchedulerThroughput measures how fast the scheduler drains a
// full mailbox — the dequeue-and-dispatch path the double-buffered batch
// swap optimises. Each round preloads a backlog behind a gate task with the
// clock stopped, then times gate-open-to-drained.
func BenchmarkSchedulerThroughput(b *testing.B) {
	var n int // touched only on the scheduler goroutine
	fn := func() { n++ }
	const backlog = 1 << 16
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := backlog
		if left := b.N - done; k > left {
			k = left
		}
		b.StopTimer()
		s := NewScheduler()
		gate := make(chan struct{})
		if err := s.Do(func() { <-gate }); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if err := s.Do(fn); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		close(gate)
		s.Flush()
		b.StopTimer()
		s.Close()
		b.StartTimer()
		done += k
	}
	b.StopTimer()
	if n != b.N {
		b.Fatalf("ran %d tasks, want %d", n, b.N)
	}
}

// BenchmarkMessageClone measures N-way fan-out cloning of a message that the
// clones only ever read — the exact shape of FanoutLayer.spread and the NAK
// layer's retransmission store. With copy-on-write buffers a read-only clone
// is O(1) and allocation-free.
func BenchmarkMessageClone(b *testing.B) {
	payload := make([]byte, 1024)
	m := NewMessage(payload)
	m.PushUvarint(42)
	m.PushString("hdr")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		if c.Len() != m.Len() {
			b.Fatal("clone length mismatch")
		}
		c.Release()
	}
}
