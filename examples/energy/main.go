// Energy: battery-aware relay rotation in an all-mobile ad hoc cell (the
// §1 motivation citing energy-aware broadcasting). All devices are PDAs;
// the Mecho relay role is the expensive one, so the EnergyPolicy rotates it
// to whichever member has the most battery left, extending the time until
// the first device dies.
package main

import (
	"fmt"
	"os"
	"time"

	"morpheus"
	"morpheus/internal/core"
	"morpheus/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "energy:", err)
		os.Exit(1)
	}
}

func run() error {
	// main is the clock's first actor; see DESIGN.md "Clock actors".
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(33, clk)
	defer w.Close()
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true})

	members := []morpheus.NodeID{1, 2, 3, 4}
	energy := vnet.EnergyConfig{CapacityJ: 0.5, TxPerMsgJ: 0.001, RxPerMsgJ: 0.0002}

	var nodes []*morpheus.Node
	for _, id := range members {
		e := energy
		n, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: morpheus.Mobile, Segments: []string{"wlan"},
			Members:           members,
			Energy:            &e,
			InitialConfig:     core.MechoConfig(1),
			InitialConfigName: core.MechoConfigName(1),
			Policies:          []morpheus.Policy{core.EnergyPolicy{Hysteresis: 0.15}},
			ContextInterval:   40 * time.Millisecond,
			EvalInterval:      60 * time.Millisecond,
			PublishOnChange:   true,
			OnReconfigured: func(epoch uint64, cfg string, took time.Duration) {
				fmt.Printf("-- epoch %d: relay rotated, now %q\n", epoch, cfg)
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()
		nodes = append(nodes, n)
	}

	// Let the context spread, then chat until the first battery dies.
	clk.Sleep(250 * time.Millisecond)
	casts := 0
	for {
		dead := false
		for _, n := range nodes {
			if !n.VNode().Alive() {
				dead = true
			}
		}
		if dead || casts >= 2000 {
			break
		}
		if err := nodes[casts%len(nodes)].Send([]byte(fmt.Sprintf("m%d", casts))); err == nil {
			casts++
		}
		clk.Sleep(2 * time.Millisecond)
		if casts%100 == 0 {
			printBatteries(nodes)
		}
	}

	fmt.Printf("network sustained %d casts before the first battery death\n", casts)
	printBatteries(nodes)
	fmt.Println("(compare with a static relay: run morpheus-bench -run energy)")
	return nil
}

func printBatteries(nodes []*morpheus.Node) {
	fmt.Print("   batteries:")
	for _, n := range nodes {
		fmt.Printf("  node%d=%.0f%%", n.ID(), n.VNode().BatteryFraction()*100)
	}
	fmt.Println()
}
