// Command castbench is the cast benchmark: it drives a real multi-member
// morpheus deployment inside one process, times every cast from
// Group.Send until the last member's OnMessage fires, checks every
// delivery, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of its output.
//
//	castbench --workload flood-udp --seed 1 --seconds 10 --trace 0
//
// Workloads (all closed loops driven by one generator goroutine):
//
//   - flood-udp: 3 fixed members on udpnet over 127.0.0.1 at its wire
//     defaults, blocking Sends rotated across the members, payload sizes
//     drawn by the seed from {32, 64, 256, 1024} B. It saturates every
//     layer's per-cast CPU, from the facade down to the sockets.
//   - pingpong-udp: the same deployment with 64 B payloads and exactly one
//     cast outstanding: the bare critical path, including the coalescer's
//     flush timer.
//   - reconfig-loopnet: 4 members on loopnet (member 4 mobile, member 1 the
//     relay) flooding 64 B casts while the group flips plain <-> Mecho
//     after every fixed number of delivered casts, through the real
//     decide, prepare, flush, deploy and ack path.
//
// Only the benchmark's own files observe the program: the traced run wraps
// each member's endpoint and inbound handlers and reads the statistics the
// layers already export.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"time"

	"morpheus"
	"morpheus/internal/netio"
)

const (
	// setupRounds is how many times a run deploys the group; setup_s is
	// the median, and the last deployment carries the traffic.
	setupRounds = 21
	// warmup runs traffic before any measurement, so lazy set-up, pools
	// and the garbage collector settle.
	warmup = time.Second
	// rateCeiling sizes the per-cast records: casts per second no run can
	// exceed on this program.
	rateCeiling = 400_000
	// drainTimeout bounds the wait for in-flight casts and
	// reconfigurations after the generator stops.
	drainTimeout = 20 * time.Second
	// reconfigDeadline is how long a reconfiguration may take before it
	// counts as failed.
	reconfigDeadline = 5 * time.Second
	// gapFloor is the shortest delivery gap recorded for pause_*.
	gapFloor = int64(100 * time.Microsecond)
	// hardLimit stops a wedged run well inside the 180 s budget.
	hardLimit = 170 * time.Second
)

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("castbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flood-udp, pingpong-udp or reconfig-loopnet")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds (1-60)")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *seconds > 60 {
		return options{}, fmt.Errorf("--seconds %d outside 1..60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, nil
}

// mark is the state at one phase boundary.
type mark struct {
	at        int64
	seq       uint64 // next sequence number to send
	completed uint64
	cpu       int64
	mem       runtime.MemStats
	layer     *layerSnap // traced boundaries only
}

// layerSnap is what the layers export, read at a traced boundary.
type layerSnap struct {
	pool     []morpheus.PoolStats
	counters []netio.Counters
	flow     []morpheus.FlowStats
	views    []int64
	tx, rx   []callStats
	ctl      []uint64
}

type callStats struct{ calls, ns int64 }

// generator is the single goroutine that drives the closed loop.
type generator struct {
	w    workload
	d    *deployment
	chk  *checker
	tr   *tracer
	spec *castSpec
	buf  []byte
	seq  uint64 // casts handed to Send
	err  error
	// accepted counts the Sends that returned nil.
	accepted uint64

	traced     bool // the tracer is on
	sends      uint64
	blocked    uint64 // traced sends that found the window full
	bufferedHW int
	abort      chan struct{}
}

// until sends casts until mono() reaches end; it reports false when the
// run must stop early.
func (g *generator) until(end int64) bool {
	for mono() < end {
		if g.seq >= uint64(len(g.chk.casts)) {
			g.err = errors.New("per-cast records exhausted")
			return false
		}
		seq := g.seq
		o := g.spec.origin(seq)
		p := g.spec.fill(g.buf, seq)
		grp := g.d.groups[o]
		if g.traced {
			g.sends++
			if ws := grp.Manager().Window().Stats(); ws.Capacity > 0 && ws.InUse >= ws.Capacity {
				g.blocked++
			}
			if seq%16 == 0 {
				g.bufferedHW = max(g.bufferedHW, grp.FlowStats().BufferedSends)
			}
		}
		g.chk.arm(seq, mono())
		err := grp.Send(p)
		if g.traced {
			g.tr.casts[seq].sendRet = mono()
		}
		g.seq++
		if err != nil {
			g.chk.markFailed(seq)
			g.err = fmt.Errorf("send of cast %d at member %d: %w", seq, o+1, err)
			return false
		}
		g.accepted++
		if g.w.pingpong {
			select {
			case <-g.chk.done:
			case <-g.abort:
				g.err = fmt.Errorf("cast %d never completed", seq)
				return false
			}
		}
	}
	return true
}

// take records a boundary.
func (g *generator) take(m *mark, layers bool) {
	m.at = mono()
	m.seq = g.seq
	m.completed = g.chk.completed.Load()
	m.cpu = cpuNanos()
	runtime.ReadMemStats(&m.mem)
	if !layers {
		return
	}
	n := len(g.d.nodes)
	ls := &layerSnap{
		pool: make([]morpheus.PoolStats, n), counters: make([]netio.Counters, n),
		flow: make([]morpheus.FlowStats, n), views: make([]int64, n),
		tx: make([]callStats, n), rx: make([]callStats, n), ctl: make([]uint64, n),
	}
	for i, nd := range g.d.nodes {
		ls.pool[i] = nd.PoolStats()
		ls.counters[i] = g.d.raw[i].Counters()
		ls.flow[i] = g.d.groups[i].FlowStats()
		ls.views[i] = g.d.views[i].Load()
		nt := &g.tr.nodes[i]
		ls.tx[i] = callStats{nt.txCalls.Load(), nt.txSelfNs.Load()}
		ls.rx[i] = callStats{nt.rxCalls.Load(), nt.rxNs.Load()}
		ls.ctl[i] = nt.ctlFrames.Load()
	}
	m.layer = ls
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "castbench: %v\n", err)
		return 2
	}
	watchdog := time.AfterFunc(hardLimit, func() { //lint:wallclock-ok the run's real-time budget
		fmt.Fprintf(stderr, "castbench: run exceeded %v; aborting\n", hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	w := opts.workload
	rng := rand.New(rand.NewPCG(uint64(opts.seed), 0x63617374))
	spec := newCastSpec(w.members, w.sizes, rng)
	capacity := (int(warmup/time.Second) + opts.seconds) * rateCeiling
	ids := make([]morpheus.NodeID, w.members)
	for i := range ids {
		ids[i] = morpheus.NodeID(i + 1)
	}
	var floor int64
	if w.flipEvery > 0 {
		floor = gapFloor
	}
	chk, freeChk, err := newChecker(spec, ids, capacity, floor, 1<<16)
	if err != nil {
		fmt.Fprintf(stderr, "castbench: %v\n", err)
		return 1
	}
	defer freeChk()
	if w.pingpong {
		chk.done = make(chan struct{}, 1)
	}
	if opts.trace {
		tr, freeTr, err := newTracer(w.members, capacity, !w.udp, w.mobileIdx())
		if err != nil {
			fmt.Fprintf(stderr, "castbench: %v\n", err)
			return 1
		}
		defer freeTr()
		chk.tr = tr
	}
	rlog := &reconfigLog{done: make([]window, 0, 8192)}
	var flip *flipPolicy
	if w.flipEvery > 0 {
		flip = &flipPolicy{chk: chk, rlog: rlog, every: w.flipEvery}
	}

	// Set up several times; the last deployment carries the run.
	setups := make([]float64, 0, setupRounds)
	var d *deployment
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
		}
		// Each set-up starts from a collected heap, so that garbage the
		// previous round left does not land in the next one's time.
		runtime.GC()
		var took time.Duration
		d, took, err = deploy(w, chk, chk.tr, rlog, flip)
		if err != nil {
			fmt.Fprintf(stderr, "castbench: set-up: %v\n", err)
			return 1
		}
		setups = append(setups, took.Seconds())
	}
	defer d.close()

	g := &generator{
		w: w, d: d, chk: chk, tr: chk.tr, spec: spec,
		buf:   make([]byte, len(spec.pattern)+tagLen),
		abort: make(chan struct{}),
	}
	// The measured phases: one untraced phase; on a traced run, an
	// untraced half for reference and then a traced half.
	phases := []time.Duration{time.Duration(opts.seconds) * time.Second}
	if opts.trace {
		half := time.Duration(opts.seconds) * time.Second / 2
		phases = []time.Duration{half, half}
	}
	marks := make([]mark, len(phases)+1)
	stopAbort := time.AfterFunc(warmup+time.Duration(opts.seconds)*time.Second+drainTimeout, func() { //lint:wallclock-ok the closed loop's real-time give-up point
		close(g.abort)
	})
	defer stopAbort.Stop()

	if flip != nil {
		flip.on.Store(true)
	}
	ok := g.until(mono() + int64(warmup))
	for i := 0; ok && i < len(phases); i++ {
		traced := opts.trace && i == len(phases)-1
		if traced {
			g.tr.fromSeq.Store(g.seq)
			g.tr.on.Store(true)
			g.traced = true
		}
		g.take(&marks[i], traced)
		ok = g.until(marks[i].at + int64(phases[i]))
		if ok || i == len(phases)-1 {
			g.take(&marks[i+1], traced)
		}
	}
	if flip != nil {
		flip.on.Store(false)
	}
	drained := drain(g, rlog)

	failedCasts := chk.finish(g.seq)
	decided, acked := rlog.counts()
	failedReconfigs := uint64(decided - acked)
	for _, rw := range rlog.done {
		if time.Duration(rw.ack-rw.decide) > reconfigDeadline {
			failedReconfigs++
		}
	}
	res := result{
		Attempted: g.seq + uint64(decided),
		Failed:    failedCasts + failedReconfigs + chk.stray.Load(),
		Metrics:   map[string]metric{},
	}
	res.Correct = ok && g.err == nil && drained && res.Failed == 0 && chk.violations.Load() == 0

	out := &report{w: stdout, metrics: res.Metrics}
	out.linef("castbench: workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d nproc=%d cpu=%q go=%s",
		w.name, opts.seed, opts.seconds, opts.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	if g.err != nil {
		out.linef("generator stopped: %v", g.err)
	}
	if !drained {
		out.linef("drain: in-flight casts or reconfigurations still outstanding after %v", drainTimeout)
	}
	for _, v := range chk.examplesSnapshot() {
		out.linef("violation: %s", v)
	}
	complete := ok && len(marks) > 1 && marks[len(marks)-1].at > 0
	if complete {
		slices.Sort(setups)
		e2e := endToEnd(g, rlog, &marks[0], &marks[1], setups[medianRank(len(setups))])
		if !opts.trace {
			out.e2e(e2e, true)
		} else {
			out.linef("-- untraced half (reference for trace.*)")
			out.e2e(e2e, false)
			traced := endToEnd(g, rlog, &marks[1], &marks[2], setups[medianRank(len(setups))])
			out.linef("-- traced half")
			out.e2e(traced, false)
			out.perLayer(g, &marks[1], &marks[2], e2e, traced)
		}
	}
	failedRatio := float64(res.Failed) / float64(max(res.Attempted, 1))
	out.linef("failed_ratio = %.6f ratio (%d failed of %d attempted: %d casts, %d reconfigurations)",
		failedRatio, res.Failed, res.Attempted, g.seq, decided)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "castbench: %v\n", err)
		return 1
	}
	if !complete {
		fmt.Fprintln(stderr, "castbench: the run did not complete its measured phases")
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "castbench: delivery check failed")
		return 1
	}
	return 0
}

// drain waits until every sent cast is delivered everywhere and every
// decided reconfiguration is acknowledged.
func drain(g *generator, rlog *reconfigLog) bool {
	deadline := mono() + int64(drainTimeout)
	for mono() < deadline {
		decided, acked := rlog.counts()
		if g.chk.completed.Load() >= g.accepted && decided == acked {
			return true
		}
		sleep(time.Millisecond)
	}
	return false
}

// e2eResult is one measured phase's end-to-end figures.
type e2eResult struct {
	casts                 uint64
	castsPerS             float64
	lat                   summary // µs
	cpuUs, allocs, bytes  float64
	setupS                float64
	reconfigs             int
	reconfig, pause       summary // ms
	lats, reconfigMs, pms []float64
}

// endToEnd computes a phase's end-to-end metrics from its boundary marks.
func endToEnd(g *generator, rlog *reconfigLog, a, b *mark, setupS float64) e2eResult {
	r := e2eResult{setupS: setupS}
	r.casts = b.completed - a.completed
	c := float64(max(r.casts, 1))
	r.castsPerS = float64(r.casts) / (float64(b.at-a.at) / 1e9)
	r.lats = make([]float64, 0, b.seq-a.seq)
	for s := a.seq; s < b.seq; s++ {
		cc := &g.chk.casts[s]
		if done := cc.doneAt.Load(); done > 0 {
			r.lats = append(r.lats, float64(done-cc.sendAt)/1e3)
		}
	}
	r.lat = summarize(r.lats, 0.99)
	r.cpuUs = float64(b.cpu-a.cpu) / 1e3 / c
	r.allocs = float64(b.mem.Mallocs-a.mem.Mallocs) / c
	r.bytes = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / c

	gaps := g.chk.gaps()
	rlog.mu.Lock()
	for _, w := range rlog.done {
		if w.decide >= a.at && w.decide < b.at {
			r.reconfigMs = append(r.reconfigMs, float64(w.ack-w.decide)/1e6)
			r.pms = append(r.pms, float64(pauseOf(w, gaps, gapFloor))/1e6)
		}
	}
	rlog.mu.Unlock()
	r.reconfigs = len(r.reconfigMs)
	r.reconfig = summarize(r.reconfigMs, 0.90)
	r.pause = summarize(r.pms, 0.5)
	return r
}

// report prints human-readable lines and collects the JSON metrics.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) linef(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// put prints a metric and, when keep is set, reports it in the JSON line.
func (r *report) put(keep bool, name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if note != "" {
		note = " (" + note + ")"
	}
	r.linef("%s = %.6g %s%s", name, v, unit, note)
	if keep {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// e2e prints the end-to-end metrics; keep puts the gated ones in the JSON
// line. The rest are printed only: cast_p99_us spreads from run to run on
// pingpong-udp by more than any bound a gate could take (the flush
// timer's lateness on a shared host sets it), reconfig_* and pause_* are
// undefined on the workloads without reconfigurations, and failed_ratio is
// zero on a correct run.
func (r *report) e2e(e e2eResult, keep bool) {
	r.put(keep, "casts_per_s", e.castsPerS, "casts/s", fmt.Sprintf("%d casts", e.casts))
	r.put(keep, "cast_p50_us", e.lat.p50, "us", fmt.Sprintf("n=%d", e.lat.n))
	r.put(false, "cast_p99_us", e.lat.tail, "us", fmt.Sprintf("p%.4g of n=%d", 100*e.lat.tailQ, e.lat.n))
	r.put(keep, "cpu_us_per_cast", e.cpuUs, "us", "")
	r.put(keep, "allocs_per_cast", e.allocs, "allocs", "")
	r.put(keep, "alloc_bytes_per_cast", e.bytes, "B", "")
	r.put(keep, "setup_s", e.setupS, "s", fmt.Sprintf("median of %d set-ups", setupRounds))
	if e.reconfigs == 0 {
		r.linef("reconfig_p50_ms, reconfig_p90_ms, pause_p50_ms: n/a (no reconfigurations on this workload)")
		return
	}
	r.put(false, "reconfig_p50_ms", e.reconfig.p50, "ms", fmt.Sprintf("n=%d", e.reconfigs))
	r.put(false, "reconfig_p90_ms", e.reconfig.tail, "ms", fmt.Sprintf("p%.4g of n=%d", 100*e.reconfig.tailQ, e.reconfigs))
	r.put(false, "pause_p50_ms", e.pause.p50, "ms", fmt.Sprintf("n=%d, gaps under %v unresolved", e.reconfigs, time.Duration(gapFloor)))
}

// perLayer prints and reports the traced half's per-layer metrics.
func (r *report) perLayer(g *generator, a, b *mark, ref, tr e2eResult) {
	la, lb := a.layer, b.layer
	casts := float64(max(tr.casts, 1))
	perCast := func(v float64) float64 { return v / casts }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Spans of every traced cast, ordered by the cast's latency.
	var all [][5]float64
	var accept []float64
	for s := a.seq; s < b.seq; s++ {
		cc, ct := &g.chk.casts[s], &g.tr.casts[s]
		if end := cc.doneAt.Load(); end > 0 {
			sp := spansOf(cc.sendAt, end, ct, g.spec.origin(s))
			all = append(all, sp)
			accept = append(accept, sp[0])
		}
	}
	send := summarize(accept, 0.99)
	r.put(true, "morpheus.send_us_p50", send.p50, "us", fmt.Sprintf("n=%d", send.n))
	r.put(true, "morpheus.send_us_p99", send.tail, "us", fmt.Sprintf("p%.4g of n=%d", 100*send.tailQ, send.n))

	r.put(true, "flowctl.blocked_send_ratio", ratio(float64(g.blocked), float64(g.sends)), "ratio", fmt.Sprintf("%d of %d sends", g.blocked, g.sends))
	var winHW, mboxHW, histHW int
	var evicted int
	for i := range lb.flow {
		winHW = max(winHW, lb.flow[i].Window.HighWater)
		mboxHW = max(mboxHW, lb.flow[i].MailboxHighWater)
		histHW = max(histHW, lb.flow[i].Nak.HistoryHighWater)
		evicted += lb.flow[i].Nak.Evicted - la.flow[i].Nak.Evicted
	}
	r.put(true, "flowctl.window_high_water", float64(winHW), "count", "")

	var enq, batches, parks, steals float64
	for i := range lb.pool {
		enq += float64(lb.pool[i].Enqueues - la.pool[i].Enqueues)
		batches += float64(lb.pool[i].Batches - la.pool[i].Batches)
		parks += float64(lb.pool[i].Parks - la.pool[i].Parks)
		steals += float64(lb.pool[i].Steals - la.pool[i].Steals)
	}
	r.put(true, "appia.enqueues_per_cast", perCast(enq), "1/cast", "")
	r.put(true, "appia.casts_per_batch", ratio(float64(tr.casts), batches), "1/batch", "")
	r.put(true, "appia.parks_per_cast", perCast(parks), "1/cast", "")
	r.put(true, "appia.steals_per_cast", perCast(steals), "1/cast", "")
	r.put(true, "appia.mailbox_high_water", float64(mboxHW), "count", "")

	var ctlMsgs, dataMsgs, frames, dgrams, wireB, sys float64
	for i := range lb.counters {
		ca, cb := la.counters[i], lb.counters[i]
		ctlMsgs += float64(cb.Tx["control"].Msgs - ca.Tx["control"].Msgs)
		dataMsgs += float64(cb.Tx["data"].Msgs - ca.Tx["data"].Msgs)
		frames += float64(cb.TotalTx() - ca.TotalTx())
		dgrams += float64(cb.TxDatagrams - ca.TxDatagrams)
		wireB += float64(cb.TxWireBytes - ca.TxWireBytes)
		sys += float64(cb.TxSyscalls + cb.RxSyscalls - ca.TxSyscalls - ca.RxSyscalls)
	}
	var views int64
	var ctl uint64
	var tx, rx callStats
	for i := range lb.views {
		views += lb.views[i] - la.views[i]
		ctl += lb.ctl[i] - la.ctl[i]
		tx.calls += lb.tx[i].calls - la.tx[i].calls
		tx.ns += lb.tx[i].ns - la.tx[i].ns
		rx.calls += lb.rx[i].calls - la.rx[i].calls
		rx.ns += lb.rx[i].ns - la.rx[i].ns
	}
	r.put(true, "group.control_frames_per_cast", perCast(ctlMsgs), "1/cast", "")
	r.put(true, "group.nak_history_high_water", float64(histHW), "count", "")
	r.put(true, "group.nak_evicted", float64(evicted), "count", "")
	members := float64(len(lb.views))
	r.put(true, "group.views_per_reconfig", ratio(float64(views)/members, float64(tr.reconfigs)), "1/reconfig", "per member")

	r.put(true, "netio.data_frames_per_cast", perCast(dataMsgs), "1/cast", "")
	r.put(true, "netio.wire_bytes_per_cast", perCast(wireB), "B/cast", "")
	r.put(true, "netio.datagrams_per_cast", perCast(dgrams), "1/cast", "")
	r.put(true, "netio.syscalls_per_cast", perCast(sys), "1/cast", "tx+rx")
	r.put(true, "netio.frames_per_datagram", ratio(frames, dgrams), "1/datagram", "")
	r.put(true, "netio.tx_call_us", ratio(float64(tx.ns), float64(tx.calls))/1e3, "us", fmt.Sprintf("self time, %d calls", tx.calls))
	r.put(true, "netio.rx_handler_us", ratio(float64(rx.ns), float64(rx.calls))/1e3, "us", fmt.Sprintf("%d calls", rx.calls))

	r.spans(all, tr.lat.p50)

	r.put(true, "core.ctl_frames_per_reconfig", ratio(float64(ctl), float64(tr.reconfigs)), "1/reconfig", "all control-channel frames")
	r.put(true, "stack.buffered_sends_high_water", float64(g.bufferedHW), "count", "sampled every 16th send")
	r.mecho(g, a, b)

	gcs := b.mem.NumGC - a.mem.NumGC
	var pauses []float64
	for k := uint32(0); k < min(gcs, 256); k++ {
		pauses = append(pauses, float64(b.mem.PauseNs[(b.mem.NumGC-k+255)%256])/1e3)
	}
	gp := summarize(pauses, 0.99)
	r.put(true, "runtime.gc_cycles_per_kcast", 1000*float64(gcs)/casts, "1/kcast", "")
	r.put(true, "runtime.gc_pause_p99_us", gp.tail, "us", fmt.Sprintf("p%.4g of n=%d", 100*gp.tailQ, gp.n))

	r.put(true, "trace.overhead_pct", 100*(tr.lat.p50-ref.lat.p50)/ref.lat.p50, "%", "traced cast_p50_us over the untraced half's")
	r.put(true, "trace.casts_per_s_overhead_pct", 100*(ref.castsPerS-tr.castsPerS)/ref.castsPerS, "%", "untraced casts_per_s lost under tracing")
}

// mecho reports the Figure 3 quantities, split by the stack of the epoch
// each frame left on: the mobile's and the relay's data frames per mobile
// cast.
func (r *report) mecho(g *generator, a, b *mark) {
	mob := g.w.mobileIdx()
	var casts, mobile, relay [3]float64 // by config: 0 unknown, 1 plain, 2 mecho
	if mob >= 0 {
		cfg := func(epoch int32) int32 {
			if epoch < 0 || epoch >= maxEpochs {
				return 0
			}
			return g.tr.epochCfg[epoch].Load()
		}
		for s := a.seq; s < b.seq; s++ {
			if g.spec.origin(s) == mob {
				casts[cfg(g.tr.casts[s].txEpoch.Load())]++
			}
		}
		for e := int32(0); e < maxEpochs; e++ {
			c := cfg(e)
			mobile[c] += float64(g.tr.nodes[mob].mobileFrames[e].Load())
			relay[c] += float64(g.tr.nodes[relayID-1].mobileFrames[e].Load())
		}
	}
	for c, name := range []string{1: "plain", 2: "mecho"} {
		if c == 0 {
			continue // frames of epochs whose stack is unknown
		}
		per, note := 0.0, "n/a: no mobile casts under this stack"
		if casts[c] > 0 {
			per, note = 1/casts[c], fmt.Sprintf("%g mobile casts", casts[c])
		}
		r.put(true, "mecho.mobile_data_frames_per_cast."+name, per*mobile[c], "1/cast", note)
		r.put(true, "mecho.relay_data_frames_per_cast."+name, per*relay[c], "1/cast", note)
	}
}

// spanNames name spansOf's parts.
var spanNames = [5]string{"span.accept_us", "span.sender_stack_us", "span.wire_us", "span.receiver_stack_us", "span.unattributed_us"}

// spansOf splits one cast's latency (µs) at its boundaries: the Send call,
// the sender's stack up to the first endpoint tx carrying the cast, the
// wire up to handler entry at the member that delivered last, and that
// member's stack up to OnMessage. Boundaries are clamped to be monotonic,
// so the parts add up to the latency; whatever no boundary covers is
// unattributed.
func spansOf(sendAt, end int64, ct *castTrace, origin int) [5]float64 {
	var sp [5]int64
	cur := sendAt
	if ct.sendRet > 0 {
		sp[0] = ct.sendRet - sendAt
		cur = ct.sendRet
	}
	if tx := ct.firstTx.Load(); tx > 0 {
		sp[1] = max(0, tx-cur)
		cur = max(cur, tx)
		if last := int(ct.last.Load()); last != origin {
			if rx := ct.rx[last].Load(); rx > 0 {
				sp[2] = max(0, rx-cur)
				cur = max(cur, rx)
			}
		}
		sp[3] = max(0, end-cur)
	}
	sp[4] = end - sendAt - sp[0] - sp[1] - sp[2] - sp[3]
	var out [5]float64
	for i, v := range sp {
		out[i] = float64(v) / 1e3
	}
	return out
}

// spans reports the critical path of the median cast: each attributed
// span's mean over the casts whose latency lies within five percentiles
// of the median (per-span medians over all casts need not add up to
// anything under queueing), and as span.unattributed_us what they leave
// of castP50.
func (r *report) spans(all [][5]float64, castP50 float64) {
	total := func(sp [5]float64) float64 { return sp[0] + sp[1] + sp[2] + sp[3] + sp[4] }
	slices.SortFunc(all, func(x, y [5]float64) int { return cmp.Compare(total(x), total(y)) })
	lo := len(all) * 45 / 100
	band := all[lo:max(len(all)*55/100, min(lo+1, len(all)))]
	rest := castP50
	for i, name := range spanNames[:4] {
		var v float64
		for _, sp := range band {
			v += sp[i]
		}
		v /= float64(max(len(band), 1))
		rest -= v
		r.put(true, name, v, "us", fmt.Sprintf("mean of the %d casts around the median", len(band)))
	}
	r.put(true, spanNames[4], rest, "us", "cast_p50_us less the spans above")
	verdict := "within 10%"
	if math.Abs(rest) > 0.1*castP50 {
		verdict = "outside 10%"
	}
	r.linef("span check: the spans account for traced cast_p50_us %.6g us to %+.1f%%, %s", castP50, 100*rest/castP50, verdict)
}
