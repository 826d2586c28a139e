// XMLConfig: channels described in XML and instantiated at run time — the
// AppiaXML capability (§3.1, [16]) that Core relies on to ship
// configurations. Three nodes deploy a totally-ordered stack from a literal
// XML document; concurrent senders then race, and every node prints the
// same delivery order because the sequencer serialises them.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"morpheus/internal/appia"
	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/clock"
	"morpheus/internal/group"
	"morpheus/internal/stack"
	"morpheus/internal/vnet"
)

// The channel description Core would ship during a reconfiguration. The
// composition is bottom-up: transport, fan-out, reliability, membership,
// total order.
const channelXML = `
<appia>
  <channel name="data" qos="total-order">
    <session layer="transport.ptp"/>
    <session layer="group.fanout"/>
    <session layer="group.nak">
      <param name="nack-delay">10ms</param>
      <param name="stable-interval">50ms</param>
    </session>
    <session layer="group.gms"/>
    <session layer="group.total"/>
  </channel>
</appia>`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xmlconfig:", err)
		os.Exit(1)
	}
}

func run() error {
	doc, err := appiaxml.ParseString(channelXML)
	if err != nil {
		return err
	}

	// main is the clock's first actor; see DESIGN.md "Clock actors".
	clk := clock.NewVirtual()
	defer clk.Stop()
	w := vnet.NewWorld(99, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})

	members := []appia.NodeID{1, 2, 3}
	type member struct {
		mgr   *stack.Manager
		sched *appia.Scheduler
		mu    sync.Mutex
		order []string
	}
	var nodes []*member
	for _, id := range members {
		vn, err := w.AddNode(id, vnet.Fixed, "lan")
		if err != nil {
			return err
		}
		m := &member{sched: appia.NewSchedulerWithClock(clk)}
		m.mgr = stack.NewManager(stack.ManagerConfig{
			Node: vn, Self: id, Scheduler: m.sched, Clock: clk,
			OnDeliver: func(ev *group.CastEvent) {
				m.mu.Lock()
				m.order = append(m.order, string(ev.Msg.Bytes()))
				m.mu.Unlock()
			},
			Logf: func(string, ...any) {},
		})
		if err := m.mgr.Deploy(doc, "total-order", 1, members); err != nil {
			return err
		}
		defer func() {
			_ = m.mgr.Close()
			m.sched.Close()
		}()
		nodes = append(nodes, m)
	}

	// Three senders race, each a clock actor: total order must still agree
	// everywhere.
	const k = 5
	var dones []chan struct{}
	for i, m := range nodes {
		i, m := i, m
		done := make(chan struct{})
		dones = append(dones, done)
		clk.Go(func() {
			defer close(done)
			for j := 0; j < k; j++ {
				if err := m.mgr.Send([]byte(fmt.Sprintf("n%d-%d", i+1, j))); err != nil {
					fmt.Fprintln(os.Stderr, "send:", err)
				}
			}
		})
	}
	for _, done := range dones {
		clk.Wait(done)
	}

	deadline := clk.Now().Add(15 * time.Second)
	for clk.Now().Before(deadline) {
		done := true
		for _, m := range nodes {
			m.mu.Lock()
			if len(m.order) < 3*k {
				done = false
			}
			m.mu.Unlock()
		}
		if done {
			break
		}
		clk.Sleep(5 * time.Millisecond)
	}

	fmt.Println("stack deployed from XML:", doc.Channels[0].QoS)
	for i, m := range nodes {
		m.mu.Lock()
		fmt.Printf("node %d delivery order: %v\n", i+1, m.order)
		m.mu.Unlock()
	}
	a := nodes[0].order
	for _, m := range nodes[1:] {
		for i := range a {
			if m.order[i] != a[i] {
				return fmt.Errorf("total order violated at position %d", i)
			}
		}
	}
	fmt.Println("all three nodes delivered the concurrent sends in the same total order")
	return nil
}
