package udpnet_test

import (
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"morpheus/internal/netio"
	"morpheus/internal/netio/conformancetest"
	"morpheus/internal/netio/udpnet"
)

// newHarnessNetwork builds a udpnet on 127.0.0.1 with ephemeral unicast
// ports for node IDs 1..9 and (when groupAddr is non-empty) one multicast
// segment.
func newHarnessNetwork(t *testing.T, groupAddr string) netio.Network {
	return newHarnessNetworkDelay(t, groupAddr, 0)
}

// newHarnessNetworkDelay is newHarnessNetwork with an explicit
// WireFlushDelay.
func newHarnessNetworkDelay(t *testing.T, groupAddr string, delay time.Duration) netio.Network {
	t.Helper()
	peers := make(map[netio.NodeID]string)
	for id := netio.NodeID(1); id <= 9; id++ {
		peers[id] = "127.0.0.1:0"
	}
	groups := map[string]string{}
	if groupAddr != "" {
		groups["conf"] = groupAddr
	}
	nw, err := udpnet.New(udpnet.Config{Peers: peers, Groups: groups, WireFlushDelay: delay, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// freeUDPPort reserves an ephemeral port number for a multicast group.
func freeUDPPort(t *testing.T) int {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := c.LocalAddr().(*net.UDPAddr).Port
	c.Close()
	return port
}

// probeMulticast reports whether IP multicast loopback actually works in
// this environment (containers and CI sandboxes often lack a multicast
// route), by joining a scratch group and echoing one datagram through it.
func probeMulticast(t *testing.T, groupAddr string) bool {
	t.Helper()
	gaddr, err := net.ResolveUDPAddr("udp4", groupAddr)
	if err != nil {
		return false
	}
	rc, err := net.ListenMulticastUDP("udp4", nil, gaddr)
	if err != nil {
		return false
	}
	defer rc.Close()
	sc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return false
	}
	defer sc.Close()
	if _, err := sc.WriteToUDP([]byte("probe"), gaddr); err != nil {
		return false
	}
	_ = rc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, 16)
	n, _, err := rc.ReadFromUDP(buf)
	return err == nil && string(buf[:n]) == "probe"
}

// TestNetioConformance runs the substrate conformance suite over real UDP
// sockets on 127.0.0.1.
func TestNetioConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	groupAddr := net.JoinHostPort("239.77.9.7", strconv.Itoa(freeUDPPort(t)))
	mcast := probeMulticast(t, groupAddr)
	conformancetest.Run(t, conformancetest.Harness{
		New: func(t *testing.T) netio.Network { return newHarnessNetwork(t, groupAddr) },
		NewFlushOnly: func(t *testing.T) netio.Network {
			return newHarnessNetworkDelay(t, groupAddr, time.Hour)
		},
		Segment:   "conf",
		Multicast: mcast,
	})
}

// TestEphemeralPeerLifecycle pins the port-0 peer semantics: a peer that
// has not attached is unreachable (not a port-0 blackhole), a detached
// peer's directory entry rolls back, and re-attach works.
func TestEphemeralPeerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	nw, err := udpnet.New(udpnet.Config{Peers: map[netio.NodeID]string{
		1: "127.0.0.1:0",
		2: "127.0.0.1:0",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	a, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 is configured but not attached: its directory entry is still
	// port 0, which must read as unreachable, not as UDP port 0.
	if err := a.Send(2, "p", "data", []byte("x")); !errors.Is(err, netio.ErrUnknownNode) {
		t.Fatalf("send to unattached ephemeral peer: err = %v, want netio.ErrUnknownNode", err)
	}
	// Attach, close, re-attach: the rollback in detach makes the second
	// ephemeral bind legal.
	b, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
	got := make(chan netio.NodeID, 1)
	b2.Handle("p", func(src netio.NodeID, _ string, _ []byte) { got <- src })
	if err := a.Send(2, "p", "data", []byte("again")); err != nil {
		t.Fatalf("send after re-attach: %v", err)
	}
	select {
	case src := <-got:
		if src != 1 {
			t.Fatalf("src = %d", src)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived after re-attach")
	}
}

// TestFrameRoundTrip exercises the wire format edge cases without sockets,
// so it runs even in -short mode.
func TestFrameRoundTrip(t *testing.T) {
	nw, err := udpnet.New(udpnet.Config{Peers: map[netio.NodeID]string{
		1: "127.0.0.1:0",
		2: "127.0.0.1:0",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("udpnet socket tests skipped in -short mode")
	}
	defer nw.Close()
	a, err := nw.Attach(netio.EndpointConfig{ID: 1, Kind: netio.Mobile})
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Attach(netio.EndpointConfig{ID: 2, Kind: netio.Fixed})
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind() != netio.Mobile {
		t.Fatalf("kind = %v", a.Kind())
	}
	type got struct {
		src     netio.NodeID
		payload string
	}
	ch := make(chan got, 1)
	b.Handle("a-port-with-a-long-name@7", func(src netio.NodeID, port string, payload []byte) {
		ch <- got{src, string(payload)}
	})
	// Empty payload, non-trivial port and class names.
	if err := a.Send(2, "a-port-with-a-long-name@7", "bulk-sync", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-ch:
		if g.src != 1 || g.payload != "" {
			t.Fatalf("got %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never arrived")
	}
	// Unknown class strings land in the "other" accounting bucket.
	if c := a.Counters(); c.Tx["other"].Msgs != 1 {
		t.Fatalf("tx = %+v, want 1 other-class msg", c.Tx)
	}
	// Oversized frames are refused at send time.
	if err := a.Send(2, "p", "data", make([]byte, 70<<10)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
