package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"morpheus"
	"morpheus/internal/core"
	"morpheus/internal/netio"
	"morpheus/internal/netio/loopnet"
	"morpheus/internal/netio/udpnet"
)

// workload is one deployment plus one closed-loop traffic pattern. Every
// workload is driven by a single generator goroutine.
type workload struct {
	name    string
	members int
	udp     bool  // udpnet on 127.0.0.1 at its defaults; loopnet otherwise
	sizes   []int // payload sizes the seed draws from
	// pingpong keeps exactly one cast outstanding.
	pingpong bool
	// flipEvery > 0 flips the group plain <-> Mecho after every flipEvery
	// delivered casts; the last member is then mobile and the first is
	// the relay.
	flipEvery uint64
}

var workloads = []workload{
	{name: "flood-udp", members: 3, udp: true, sizes: []int{32, 64, 256, 1024}},
	{name: "pingpong-udp", members: 3, udp: true, sizes: []int{64}, pingpong: true},
	{name: "reconfig-loopnet", members: 4, sizes: []int{64}, flipEvery: 1000},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mobileIdx is the member index of the mobile device, or -1.
func (w workload) mobileIdx() int {
	if w.flipEvery > 0 {
		return w.members - 1
	}
	return -1
}

// relayID is the fixed member that echoes for the mobile under Mecho.
const relayID morpheus.NodeID = 1

// reconfigLog collects the coordinator's completed reconfigurations.
type reconfigLog struct {
	mu      sync.Mutex
	decided int
	done    []window // preallocated: appends never allocate mid-run
}

func (l *reconfigLog) decide() {
	l.mu.Lock()
	l.decided++
	l.mu.Unlock()
}

// onReconfigured records a reconfiguration the coordinator saw
// acknowledged after took.
func (l *reconfigLog) onReconfigured(took time.Duration) {
	ack := mono()
	l.mu.Lock()
	if len(l.done) < cap(l.done) {
		l.done = append(l.done, window{ack - int64(took), ack})
	}
	l.mu.Unlock()
}

// counts returns the decisions taken and reconfigurations acknowledged.
func (l *reconfigLog) counts() (decided, acked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decided, len(l.done)
}

// flipPolicy is the benchmark's adaptation policy, modelled on the chaos
// plane's: after every fixed number of delivered casts it asks for the
// other of plain and Mecho, through the normal decide, prepare, flush,
// deploy and ack path. Only the coordinator evaluates it.
type flipPolicy struct {
	chk   *checker
	rlog  *reconfigLog
	every uint64
	on    atomic.Bool

	mu   sync.Mutex
	last uint64
}

func (*flipPolicy) Name() string { return "castbench-flip" }

func (p *flipPolicy) Evaluate(in core.PolicyInput) *core.Decision {
	if !p.on.Load() {
		return nil
	}
	done := p.chk.completed.Load()
	p.mu.Lock()
	defer p.mu.Unlock()
	if done < p.last+p.every {
		return nil
	}
	p.last = done
	p.rlog.decide()
	d := &core.Decision{Members: in.View.Members, Reason: "castbench flip"}
	if in.Current == core.PlainConfigName {
		d.ConfigName, d.Doc = core.MechoConfigName(relayID), core.MechoConfig(relayID)
	} else {
		d.ConfigName, d.Doc = core.PlainConfigName, core.PlainConfig()
	}
	return d
}

// deployment is one running group of in-process members.
type deployment struct {
	ids    []morpheus.NodeID
	net    netio.Network
	raw    []netio.Endpoint
	nodes  []*morpheus.Node
	groups []*morpheus.Group
	views  []atomic.Int64 // data views installed per member
}

// deploy starts every member and waits until each has the full view (and
// the initial stack deployed). It returns the set-up time: first Start to
// that point.
func deploy(w workload, chk *checker, tr *tracer, rlog *reconfigLog, flip *flipPolicy) (*deployment, time.Duration, error) {
	d := &deployment{views: make([]atomic.Int64, w.members)}
	peers := make(map[netio.NodeID]string, w.members)
	for i := 0; i < w.members; i++ {
		id := morpheus.NodeID(i + 1)
		d.ids = append(d.ids, id)
		peers[id] = "127.0.0.1:0"
	}
	if w.udp {
		nw, err := udpnet.New(udpnet.Config{Peers: peers})
		if err != nil {
			return nil, 0, err
		}
		d.net = nw
	} else {
		d.net = loopnet.New()
	}
	for i, id := range d.ids {
		kind, seg := netio.Fixed, "lan"
		if i == w.mobileIdx() {
			kind, seg = netio.Mobile, "wlan"
		}
		ep, err := d.net.Attach(netio.EndpointConfig{ID: id, Kind: kind, Segments: []string{seg}})
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("attach member %d: %w", id, err)
		}
		d.raw = append(d.raw, ep)
	}

	start := mono()
	for i := range d.ids {
		cfg := morpheus.Config{
			Endpoint: d.raw[i],
			Members:  d.ids,
			// The run saturates both cores; a late heartbeat must not
			// evict a member mid-measurement.
			SuspectAfter: 5 * time.Second,
			OnMessage:    func(from morpheus.NodeID, p []byte) { chk.deliver(i, from, p) },
			OnViewChange: func(morpheus.View) { d.views[i].Add(1) },
		}
		if tr != nil {
			cfg.Endpoint = &tracedEndpoint{Endpoint: d.raw[i], tr: tr, idx: i}
		}
		if flip != nil {
			cfg.Policies = []morpheus.Policy{flip}
			cfg.EvalInterval = 5 * time.Millisecond
			cfg.OnReconfigured = func(epoch uint64, name string, took time.Duration) {
				rlog.onReconfigured(took)
				if tr != nil {
					tr.setEpoch(epoch, name)
				}
			}
		}
		nd, err := morpheus.Start(cfg)
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("start member %d: %w", d.ids[i], err)
		}
		d.nodes = append(d.nodes, nd)
		d.groups = append(d.groups, nd.Group(morpheus.DefaultGroup))
	}
	if tr != nil {
		tr.setEpoch(d.groups[0].Epoch(), core.PlainConfigName)
	}
	// Poll by yielding, not sleeping: a sub-millisecond sleep can overshoot
	// by a millisecond, longer than the set-up itself.
	deadline := start + int64(10*time.Second)
	for !d.ready() {
		if mono() > deadline {
			d.close()
			return nil, 0, errors.New("members did not install the full view within 10s")
		}
		runtime.Gosched()
	}
	return d, time.Duration(mono() - start), nil
}

// ready reports whether every member has installed the full control and
// data views with the initial stack deployed.
func (d *deployment) ready() bool {
	for i, nd := range d.nodes {
		if len(nd.CtlView().Members) != len(d.ids) ||
			len(d.groups[i].Manager().ViewMembers()) != len(d.ids) ||
			d.groups[i].ConfigName() != core.PlainConfigName {
			return false
		}
	}
	return true
}

// close stops every member and the substrate.
func (d *deployment) close() {
	for _, nd := range d.nodes {
		_ = nd.Close()
	}
	if d.net != nil {
		_ = d.net.Close()
	}
}
