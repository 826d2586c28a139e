// Command morpheus-chat runs the paper's validation application: a
// multi-user chat over an adaptive communication stack, on a simulated
// hybrid network of fixed PCs and mobile PDAs.
//
// It simulates all participants in one process. Scripted users exchange
// messages while the Morpheus control plane detects the hybrid context and
// reconfigures the group from the plain fan-out stack to Mecho; the
// transcript and the final per-node transmission counters are printed, so
// the adaptation's effect is directly visible. The simulation runs on a
// virtual clock with a fixed seed, so equal flags print equal output.
//
// Usage:
//
//	morpheus-chat -fixed 2 -mobile 1 -lines 20 -rate 10
package main

import (
	"flag"
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

// worldSeed seeds the simulated network's loss and jitter draws.
const worldSeed = 1

func main() {
	os.Exit(run())
}

func run() int {
	var (
		nFixed  = flag.Int("fixed", 2, "number of fixed PCs")
		nMobile = flag.Int("mobile", 1, "number of mobile PDAs")
		lines   = flag.Int("lines", 20, "chat lines per user")
		rate    = flag.Float64("rate", 10, "lines per second per user (the paper paced 10 msg/s)")
		quiet   = flag.Bool("quiet", false, "suppress the transcript, print only the summary")
	)
	flag.Parse()
	if *nFixed < 1 || *nMobile < 0 || *nFixed+*nMobile < 2 {
		fmt.Fprintln(os.Stderr, "morpheus-chat: need at least two participants and one fixed node")
		return 2
	}

	// run is the clock's first actor; see DESIGN.md "Clock actors".
	clk := morpheus.NewVirtualClock()
	defer clk.Stop()
	w := morpheus.NewWorld(worldSeed, clk)
	defer w.Close()
	// Links take virtual time to cross (zero-latency segments would report
	// every adaptation as taking 0 s): a wired hop costs 1 ms, a wireless
	// one 5 ms.
	w.AddSegment(vnet.SegmentConfig{Name: "lan", NativeMulticast: true, Latency: time.Millisecond})
	w.AddSegment(vnet.SegmentConfig{Name: "wlan", Wireless: true, Latency: 5 * time.Millisecond})

	var members []morpheus.NodeID
	for i := 1; i <= *nFixed; i++ {
		members = append(members, morpheus.NodeID(i))
	}
	for i := 0; i < *nMobile; i++ {
		members = append(members, morpheus.NodeID(100+i))
	}

	type user struct {
		node   *morpheus.Node
		client *chat.Client
		name   string
	}
	var users []*user
	var transcriptMu sync.Mutex
	for _, id := range members {
		kind, seg, name := morpheus.Fixed, "lan", fmt.Sprintf("pc-%d", id)
		if id >= 100 {
			kind, seg, name = morpheus.Mobile, "wlan", fmt.Sprintf("pda-%d", id-99)
		}
		client := chat.NewClient(name, "lobby", id)
		if !*quiet {
			client.OnMessage(func(m chat.Message) {
				transcriptMu.Lock()
				defer transcriptMu.Unlock()
				fmt.Printf("  [%s] %s\n", m.From, m.Text)
			})
		}
		node, err := morpheus.Start(morpheus.Config{
			World: w, ID: id, Kind: kind, Segments: []string{seg},
			Members:         members,
			Policies:        []morpheus.Policy{core.HybridMechoPolicy{}},
			ContextInterval: 50 * time.Millisecond,
			EvalInterval:    100 * time.Millisecond,
			PublishOnChange: true,
			OnMessage:       client.Receive,
			OnReconfigured: func(epoch uint64, cfgName string, took time.Duration) {
				fmt.Printf("-- adaptation: epoch %d deployed %q group-wide in %v\n", epoch, cfgName, took.Round(time.Microsecond))
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "morpheus-chat:", err)
			return 1
		}
		defer func() { _ = node.Close() }()
		client.Bind(node)
		users = append(users, &user{node: node, client: client, name: name})
	}

	fmt.Printf("chat: %d fixed + %d mobile participants; initial stack %q\n",
		*nFixed, *nMobile, users[0].node.ConfigName())

	// Each user's script is a clock actor, paced in virtual time.
	var dones []chan struct{}
	for _, u := range users {
		u := u
		done := make(chan struct{})
		dones = append(dones, done)
		clk.Go(func() {
			defer close(done)
			script := chat.Script{
				Count: *lines,
				Rate:  *rate,
				Line:  func(i int) string { return fmt.Sprintf("%s says hello #%d", u.name, i) },
				Clock: clk,
			}
			if err := script.Run(u.client); err != nil {
				fmt.Fprintln(os.Stderr, "morpheus-chat:", err)
			}
		})
	}
	for _, done := range dones {
		clk.Wait(done)
	}

	// Wait for full delivery everywhere.
	want := *lines * len(users)
	deadline := clk.Now().Add(30 * time.Second)
	for clk.Now().Before(deadline) {
		done := true
		for _, u := range users {
			if u.client.Delivered() < want {
				done = false
				break
			}
		}
		if done {
			break
		}
		clk.Sleep(10 * time.Millisecond)
	}

	fmt.Printf("\nsummary (final stack %q):\n", users[0].node.ConfigName())
	fmt.Printf("  %-8s %-7s %10s %10s %10s\n", "user", "kind", "delivered", "tx-data", "tx-control")
	for _, u := range users {
		c := u.node.VNode().Counters()
		fmt.Printf("  %-8s %-7s %10d %10d %10d\n",
			u.name, u.node.VNode().Kind(),
			u.client.Delivered(),
			c.Tx[appia.ClassData].Msgs, c.Tx[appia.ClassControl].Msgs)
	}
	return 0
}
