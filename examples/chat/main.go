// Chat: the paper's §4 validation scenario as a library example. Two fixed
// PCs and one PDA chat in a room; the Morpheus coordinator detects the
// hybrid context through Cocaditem and reconfigures the stack to Mecho, and
// the message counters show the load shifting off the mobile device.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/appia"
	"morpheus/internal/chat"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chat example:", err)
		os.Exit(1)
	}
}

func run() error {
	// main is the clock's first actor; see DESIGN.md "Clock actors".
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(7, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})

	members := []morpheus.NodeID{1, 2, 100}
	kinds := map[morpheus.NodeID]morpheus.Kind{1: morpheus.Fixed, 2: morpheus.Fixed, 100: morpheus.Mobile}
	names := map[morpheus.NodeID]string{1: "ana", 2: "bruno", 100: "carla(pda)"}

	var adaptedOnce sync.Once
	adapted := make(chan struct{})
	var adaptedCfg string
	clients := make(map[morpheus.NodeID]*chat.Client)
	nodes := make(map[morpheus.NodeID]*morpheus.Node)
	for _, id := range members {
		kind := kinds[id]
		seg := "lan"
		if kind == morpheus.Mobile {
			seg = "wlan"
		}
		client := chat.NewClient(names[id], "interest-group-1", id)
		client.OnMessage(func(m chat.Message) {
			fmt.Printf("  <%s> %s\n", m.From, m.Text)
		})
		n, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 40 * time.Millisecond,
			EvalInterval:    60 * time.Millisecond,
			PublishOnChange: true,
			OnMessage:       client.Receive,
			OnReconfigured: func(epoch uint64, cfg string, took time.Duration) {
				adaptedOnce.Do(func() {
					adaptedCfg = cfg
					close(adapted)
				})
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()
		client.Bind(n)
		clients[id] = client
		nodes[id] = n
	}

	fmt.Println("-- before adaptation (plain fan-out stack):")
	if err := clients[100].Say("hi everyone, typing from the PDA"); err != nil {
		return err
	}
	waitDelivered(clk, clients, 1)

	if !clk.WaitTimeout(adapted, 20*time.Second) {
		return fmt.Errorf("adaptation never happened")
	}
	fmt.Printf("-- Morpheus adapted the stack to %q (hybrid group detected)\n", adaptedCfg)

	// Reset counters so the post-adaptation economics are visible.
	for _, n := range nodes {
		n.VNode().ResetCounters()
	}
	fmt.Println("-- after adaptation (Mecho: PDA sends once, the relay echoes):")
	for i := 0; i < 5; i++ {
		if err := clients[100].Say(fmt.Sprintf("mecho message %d", i)); err != nil {
			return err
		}
	}
	if err := clients[1].Say("got you loud and clear"); err != nil {
		return err
	}
	waitDelivered(clk, clients, 7)

	fmt.Println("-- transmission counters for the 5 PDA messages + 1 PC message:")
	for _, id := range members {
		c := nodes[id].VNode().Counters()
		fmt.Printf("   %-10s data-tx=%-3d control-tx=%d\n",
			names[id], c.Tx[appia.ClassData].Msgs, c.Tx[appia.ClassControl].Msgs)
	}
	fmt.Println("   (the PDA transmitted one message per chat line; the relay fanned out)")
	return nil
}

// waitDelivered polls, in virtual time, until every client has delivered
// want messages.
func waitDelivered(clk *morpheus.VirtualClock, clients map[morpheus.NodeID]*chat.Client, want int) {
	deadline := clk.Now().Add(15 * time.Second)
	for clk.Now().Before(deadline) {
		done := true
		for _, c := range clients {
			if c.Delivered() < want {
				done = false
				break
			}
		}
		if done {
			return
		}
		clk.Sleep(5 * time.Millisecond)
	}
}
