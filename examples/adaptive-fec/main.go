// Adaptive-FEC: the §2 motivation, live. A group runs the retransmission
// (ARQ) stack; when the measured link error rate spikes, the Core policy
// reconfigures everyone to the Reed–Solomon FEC stack, and when the link
// recovers it switches back. The loss "measurement" is a context retriever
// standing in for NIC error counters.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"morpheus"
	"morpheus/internal/cocaditem"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive-fec:", err)
		os.Exit(1)
	}
}

func run() error {
	// main is the clock's first actor; see DESIGN.md "Clock actors".
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(21, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "lan"})

	// The observed loss rate, as a NIC driver would report it.
	var mu sync.Mutex
	observedLoss := 0.005
	setLoss := func(v float64) {
		mu.Lock()
		observedLoss = v
		mu.Unlock()
		// Also inject the real loss into the network so the change is
		// not just cosmetic.
		if err := w.SetSegmentLoss("lan", v); err != nil {
			panic(err)
		}
	}
	lossRetriever := cocaditem.FuncRetriever{
		TopicName: cocaditem.TopicLinkLoss,
		Fn: func() (float64, string) {
			mu.Lock()
			defer mu.Unlock()
			return observedLoss, ""
		},
	}

	members := []morpheus.NodeID{1, 2, 3}
	var nodes []*morpheus.Node
	var delivered sync.Map
	for _, id := range members {
		id := id
		n, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Fixed, Members: members,
			InitialConfig:     core.ArqConfig(),
			InitialConfigName: core.ArqConfigName,
			Policies:          []morpheus.Policy{core.ErrorRecoveryPolicy{}},
			Retrievers:        []cocaditem.Retriever{lossRetriever},
			ContextInterval:   40 * time.Millisecond,
			EvalInterval:      60 * time.Millisecond,
			OnMessage: func(from morpheus.NodeID, payload []byte) {
				v, _ := delivered.LoadOrStore(id, new(int))
				mu.Lock()
				*(v.(*int))++
				mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()
		nodes = append(nodes, n)
	}

	report := func(phase string) {
		fmt.Printf("%-28s stack=%q\n", phase, nodes[0].ConfigName())
	}
	report("start (low loss):")

	// Loss spikes: the policy must mask instead of retransmit.
	setLoss(0.15)
	if err := waitConfig(clk, nodes, core.FecConfigName); err != nil {
		return err
	}
	report("after loss spike to 15%:")
	for i := 0; i < 20; i++ {
		if err := nodes[0].Send([]byte(fmt.Sprintf("payload-under-loss-%d", i))); err != nil {
			return err
		}
	}
	clk.Sleep(300 * time.Millisecond)

	// Link recovers: back to detect-and-retransmit.
	setLoss(0.002)
	if err := waitConfig(clk, nodes, core.ArqConfigName); err != nil {
		return err
	}
	report("after link recovery:")
	fmt.Println("the stack followed the error rate: arq -> fec -> arq, with no application involvement")
	return nil
}

// waitConfig polls, in virtual time, until every node runs the want stack.
func waitConfig(clk *morpheus.VirtualClock, nodes []*morpheus.Node, want string) error {
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		done := true
		for _, n := range nodes {
			if n.ConfigName() != want {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		clk.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("group never converged on %q", want)
}
