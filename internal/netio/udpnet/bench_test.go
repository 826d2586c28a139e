package udpnet_test

// Wire-plane benchmarks: the batched (coalescing + vectored syscall) hot
// path against the one-datagram-per-frame baseline, on real loopback
// sockets. Sub-benchmark variants pair via
//
//	go run ./tools/benchjson -variants "unbatched,batched"
//
// Custom metrics carry the wire-level quantities the acceptance criteria
// name: datagrams and syscalls per cast (the ≥4x reduction) on top of
// ns/op (the ≥2x throughput) and allocs/op (0 on the batched send path).

import (
	"testing"
	"time"

	"morpheus/internal/netio"
	"morpheus/internal/netio/udpnet"
)

// benchNet builds a two-node network; mtu < 0 is the unbatched baseline.
func benchNet(b *testing.B, mtu int) (a, peer netio.Endpoint) {
	b.Helper()
	nw, err := udpnet.New(udpnet.Config{
		Peers:   map[netio.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"},
		WireMTU: mtu,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { nw.Close() })
	a, err = nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		b.Fatal(err)
	}
	peer, err = nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		b.Fatal(err)
	}
	return a, peer
}

// BenchmarkUdpnetThroughput measures the send-path cost of a sustained
// stream of small casts — the reliable layer's data pattern — and reports
// how many datagrams and syscalls each cast actually cost.
func BenchmarkUdpnetThroughput(b *testing.B) {
	for _, mode := range []struct {
		name string
		mtu  int
	}{
		{"unbatched", -1},
		{"batched", 0}, // DefaultWireMTU
	} {
		b.Run(mode.name, func(b *testing.B) {
			a, peer := benchNet(b, mode.mtu)
			peer.Handle("p", func(netio.NodeID, string, []byte) {})
			payload := make([]byte, 128)
			a.ResetCounters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Send(2, "p", "data", payload); err != nil {
					b.Fatal(err)
				}
			}
			a.Flush()
			b.StopTimer()
			c := a.Counters()
			b.ReportMetric(float64(c.TxDatagrams)/float64(b.N), "datagrams/op")
			b.ReportMetric(float64(c.TxSyscalls)/float64(b.N), "syscalls/op")
		})
	}
}

// BenchmarkUdpnetLatency measures a full request/response round trip with
// explicit flushes, pinning what coalescing costs when a single cast is
// on the critical path (the answer must be: one Flush call, not the
// 200µs delay bound).
func BenchmarkUdpnetLatency(b *testing.B) {
	for _, mode := range []struct {
		name string
		mtu  int
	}{
		{"unbatched", -1},
		{"batched", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			a, peer := benchNet(b, mode.mtu)
			done := make(chan struct{}, 1)
			peer.Handle("req", func(src netio.NodeID, _ string, payload []byte) {
				if err := peer.Send(src, "resp", "data", payload); err != nil {
					return
				}
				peer.Flush()
			})
			a.Handle("resp", func(netio.NodeID, string, []byte) {
				select {
				case done <- struct{}{}:
				default:
				}
			})
			payload := make([]byte, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Send(2, "req", "data", payload); err != nil {
					b.Fatal(err)
				}
				a.Flush()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					b.Fatal("round trip lost")
				}
			}
		})
	}
}
