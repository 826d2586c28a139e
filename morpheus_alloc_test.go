package morpheus_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"morpheus"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
)

// castAllocCeiling bounds heap allocations per cast on the loopnet path
// below: one Send on a 3-member group, finished when all three members
// have delivered it. The test measures 18.7-18.9 at GOMAXPROCS 1, 2, 4
// and 8 on a 2-vCPU x86-64 VM (38.5 before the cast path stopped copying
// headers back onto shared messages and started releasing what it
// retires); the ceiling adds about 20 % headroom.
const castAllocCeiling = 23

// TestCastPathAllocations guards the cast path against allocation
// regressions. It counts mallocs per cast from the runtime.MemStats delta
// over a measured batch that follows a warm-up batch, with sends rotated
// across the members, and fails above castAllocCeiling.
func TestCastPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const warmup, measured = 2000, 4000
	ids := []morpheus.NodeID{1, 2, 3}
	nw := loopnet.New()
	t.Cleanup(func() { _ = nw.Close() })
	var delivered atomic.Int64
	var nodes []*morpheus.Node
	for _, id := range ids {
		ep, err := nw.Attach(netio.EndpointConfig{ID: id, Kind: netio.Fixed, Segments: []string{"lan"}})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := morpheus.Start(morpheus.Config{
			Endpoint:  ep,
			Members:   ids,
			OnMessage: func(morpheus.NodeID, []byte) { delivered.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nd.Close() })
		nodes = append(nodes, nd)
	}
	payload := make([]byte, 256)
	sent := 0
	cast := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := nodes[sent%len(nodes)].Send(payload); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		want := int64(sent * len(nodes))
		deadline := time.Now().Add(20 * time.Second)
		for delivered.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", delivered.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	cast(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cast(measured)
	runtime.ReadMemStats(&after)
	perCast := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocs/cast (ceiling %d)", perCast, castAllocCeiling)
	if perCast > castAllocCeiling {
		t.Fatalf("%.1f allocs per cast exceeds the ceiling of %d", perCast, castAllocCeiling)
	}
}
