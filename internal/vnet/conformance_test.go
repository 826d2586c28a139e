package vnet_test

import (
	"testing"

	"morpheus/internal/netio"
	"morpheus/internal/netio/conformancetest"
	"morpheus/internal/vnet"
	"morpheus/internal/vnet/vnettest"
)

// TestNetioConformance runs the substrate conformance suite against the
// simulator with a lossless, zero-latency segment (deliveries synchronous).
func TestNetioConformance(t *testing.T) {
	conformancetest.Run(t, conformancetest.Harness{
		New: func(t *testing.T) netio.Network {
			w, _ := vnettest.World(t, 1)
			w.AddSegment(vnet.SegmentConfig{Name: "conf", NativeMulticast: true})
			return w
		},
		Segment:     "conf",
		Multicast:   true,
		Synchronous: true,
	})
}
