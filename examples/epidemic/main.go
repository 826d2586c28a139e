// Epidemic: the §1 motivation for large, geographically spread groups.
// Thirty-two nodes disseminate messages by gossip instead of sender
// fan-out; the per-node transmission load stays at O(fanout) while the
// fan-out baseline burdens the sender with O(n). The reliable layer on top
// repairs the probabilistic tail, so delivery is still complete.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "epidemic:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 32
	const messages = 30

	// main is the clock's first actor; see DESIGN.md "Clock actors".
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(55, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})

	members := make([]morpheus.NodeID, n)
	for i := range members {
		members[i] = morpheus.NodeID(i + 1)
	}

	var mu sync.Mutex
	deliveredBy := make(map[morpheus.NodeID]int, n)

	var nodes []*morpheus.Node
	for _, id := range members {
		id := id
		node, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Members: members,
			InitialConfig:     core.EpidemicConfig(3, 5),
			InitialConfigName: core.EpidemicConfigName,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				mu.Lock()
				deliveredBy[id]++
				mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = node.Close() }()
		nodes = append(nodes, node)
	}

	for i := 0; i < messages; i++ {
		if err := nodes[0].Send([]byte(fmt.Sprintf("gossip %d", i))); err != nil {
			return err
		}
	}

	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		mu.Lock()
		done := true
		for _, id := range members {
			if deliveredBy[id] < messages {
				done = false
				break
			}
		}
		mu.Unlock()
		if done {
			break
		}
		clk.Sleep(10 * time.Millisecond)
	}

	// Compare data-class traffic only: the stability gossip and heartbeats
	// are control overhead common to both strategies.
	senderTx := nodes[0].VNode().Counters().Tx["data"].Msgs
	var maxTx, totalTx uint64
	for _, node := range nodes {
		tx := node.VNode().Counters().Tx["data"].Msgs
		totalTx += tx
		if tx > maxTx {
			maxTx = tx
		}
	}
	mu.Lock()
	minDelivered := messages
	for _, id := range members {
		if deliveredBy[id] < minDelivered {
			minDelivered = deliveredBy[id]
		}
	}
	mu.Unlock()

	fmt.Printf("group of %d nodes, %d multicasts via gossip (fanout 3, ttl 5) + reliable repair\n", n, messages)
	fmt.Printf("  every node delivered:   %d/%d\n", minDelivered, messages)
	fmt.Printf("  sender transmissions:   %d   (plain fan-out would need %d for data alone)\n", senderTx, messages*(n-1))
	fmt.Printf("  busiest node:           %d transmissions\n", maxTx)
	fmt.Printf("  network total:          %d transmissions\n", totalTx)
	return nil
}
