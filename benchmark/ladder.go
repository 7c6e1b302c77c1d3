package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"quiclab/internal/cc"
	"quiclab/internal/core"
	"quiclab/internal/netem"
	"quiclab/internal/quic"
	"quiclab/internal/sim"
	"quiclab/internal/statemachine"
	"quiclab/internal/tcp"
	"quiclab/internal/trace"
	"quiclab/internal/web"
)

// The traced run. It never feeds the end-to-end numbers. Each layer is
// timed from outside through a ladder of rungs built only from exported
// constructors; a layer's cost is the difference between adjacent rungs
// and every share is that net cost over the rung-4 (Scenario.RunPLT)
// wall of the same cells. Rung 3 rebuilds RunPLT's testbed by hand and
// must reproduce its PLT for every cell: that is what makes the rungs
// measurements of the same work.
//
//	0  no-op event replay on sim.Simulator, sized to the counted events
//	1  the counted packets through a netem.Link into a null handler
//	2  cc.Controller OnPacketSent+OnAck pairs for the data packets
//	3  the page load on a benchmark-built testbed (3a run as RunPLT
//	   runs it; 3b stepped, with timing handlers, so work is counted)
//	4  Scenario.RunPLT
//	5  RunPLT with WireEncode, TraceEvents, Metrics, Profile alone,
//	   then all instruments + WriteBundle
//	6  the matrix engine with no sinks, a ledger, checkpoints, both,
//	   and with no sinks on one worker

// span is one timed interval of the traced run.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Cell     string `json:"cell,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the traced run began
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory; write puts them out at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name, workload, cell string, parent int) int {
	if t.epoch.IsZero() {
		t.epoch = time.Now()
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: workload, Cell: cell})
	id := len(t.spans)
	t.spans[id-1].StartNS = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.epoch))
	return time.Duration(s.EndNS - s.StartNS)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// The traced run laps at least minLadderLaps times (fast5 needs five)
// and goes on while its time lasts.
const (
	minLadderLaps = 5
	// ladderShare is the part of the run's seconds rungs 0-5 may use;
	// rung 6 has the rest.
	ladderShare = 0.6
)

// rung is one rung variant: fn runs once per cell per lap under a span
// and is timed whole; after, when not nil, runs untimed once the cell's
// span has closed (it may open child spans of its own).
type rung struct {
	name  string
	fn    func(lap, i int, c cell)
	after func(lap, i int, c cell, parent int)

	walls [][]time.Duration // [lap][cell]
	alloc []uint64          // bytes allocated per lap
}

// lapMS sums, per lap, the walls of the cells keep admits (nil: all).
func (r *rung) lapMS(keep func(i int) bool) []float64 {
	out := make([]float64, len(r.walls))
	for l, lap := range r.walls {
		for i, w := range lap {
			if keep == nil || keep(i) {
				out[l] += ms(w)
			}
		}
	}
	return out
}

// fast is the fast5 lap wall in ms over all cells.
func (r *rung) fast() float64 { return fast5(r.lapMS(nil)) }

func (r *rung) allocKBPerLap() float64 {
	xs := make([]float64, len(r.alloc))
	for i, a := range r.alloc {
		xs[i] = float64(a) / 1024
	}
	return mean(xs)
}

// acc sums a sub-interval per lap (handler time, bundle writes, ...).
type acc []float64

func (a *acc) add(lap int, d time.Duration) {
	for len(*a) <= lap {
		*a = append(*a, 0)
	}
	(*a)[lap] += ms(d)
}

// ladderRun is the state of one workload's traced run.
type ladderRun struct {
	t      *tracer
	w      workload
	cells  []cell
	root   int
	heapMB float64
}

func (lr *ladderRun) sampleHeap(m runtime.MemStats) {
	if mb := float64(m.HeapInuse) / (1 << 20); mb > lr.heapMB {
		lr.heapMB = mb
	}
}

// run laps the rungs: every lap runs every rung over every cell, in
// order, so that all rungs see the same stretches of machine time and
// the same heap — differences between rungs are then differences in
// work, not in when they ran.
func (lr *ladderRun) run(budget time.Duration, rungs ...*rung) {
	start := time.Now()
	for lap := 0; lap < minLadderLaps || time.Since(start) < budget; lap++ {
		for _, r := range rungs {
			before := readMem()
			walls := make([]time.Duration, len(lr.cells))
			for i, c := range lr.cells {
				id := lr.t.begin(r.name, lr.w.name, c.name, lr.root)
				r.fn(lap, i, c)
				walls[i] = lr.t.end(id)
				if r.after != nil {
					r.after(lap, i, c, id)
				}
			}
			m := readMem()
			r.walls = append(r.walls, walls)
			r.alloc = append(r.alloc, m.TotalAlloc-before.TotalAlloc)
			lr.sampleHeap(m)
		}
	}
}

// Addresses of the hand-built testbed (core uses the same two).
const (
	clientAddr netem.Addr = 1
	serverAddr netem.Addr = 2
)

func linkConfig(c cell) netem.Config {
	return netem.Config{
		RateBps:    int64(c.sc.RateMbps * 1e6),
		Delay:      c.rtt() / 2,
		Jitter:     c.sc.Jitter,
		LossProb:   c.sc.LossPct / 100,
		QueueBytes: c.sc.QueueBytes,
	}
}

// bed is rung 3's testbed: what Scenario.RunPLT builds for a direct
// path with the calibrated defaults, made from the layers' exported
// constructors.
type bed struct {
	sim            *sim.Simulator
	net            *netem.Network
	down, up       *netem.Link
	tracer         *trace.Recorder
	client, server netem.Handler
	// load starts the page load (for QUIC after the unmeasured warm-up
	// fetch that fills the 0-RTT cache, as RunPLT does).
	load func(done func(plt time.Duration), fail func(reason string))
	web  time.Duration // host time inside the calls made into web
}

func buildBed(c cell) *bed {
	s := sim.New(c.seed)
	nw := netem.NewNetwork(s)
	cfg := linkConfig(c)
	b := &bed{sim: s, net: nw, down: netem.NewLink(s, cfg), up: netem.NewLink(s, cfg), tracer: trace.New()}
	nw.SetPath(serverAddr, clientAddr, b.down)
	nw.SetPath(clientAddr, serverAddr, b.up)
	page := c.sc.Page
	inWeb := func(fn func()) {
		t0 := time.Now()
		fn()
		b.web += time.Since(t0)
	}
	switch c.proto {
	case core.QUIC:
		ccCfg := cc.DefaultQUICConfig()
		ccCfg.MSS = quic.MaxPacketSize
		srvEP := quic.NewEndpoint(nw, serverAddr, quic.Config{CC: ccCfg, Tracer: b.tracer})
		var srv *web.QUICServer
		inWeb(func() { srv = web.StartQUICServerOn(srvEP, page.ObjectSize) })
		cliEP := quic.NewEndpoint(nw, clientAddr, c.sc.Device.ApplyQUIC(quic.Config{CC: ccCfg}))
		var f *web.QUICFetcher
		inWeb(func() { f = web.NewQUICFetcherOn(cliEP, serverAddr) })
		b.client, b.server = cliEP, srvEP
		b.load = func(done func(time.Duration), fail func(string)) {
			f.OnError = fail
			srv.ObjectSize = 1000
			inWeb(func() {
				f.LoadPage(web.Page{NumObjects: 1, ObjectSize: 1000}, func(time.Duration) {
					srv.ObjectSize = page.ObjectSize
					inWeb(func() { f.LoadPage(page, done) })
				})
			})
		}
	case core.TCP:
		srvEP := tcp.NewEndpoint(nw, serverAddr, tcp.Config{Tracer: b.tracer})
		inWeb(func() { web.StartTCPServerOn(srvEP, page.ObjectSize) })
		cliEP := tcp.NewEndpoint(nw, clientAddr, c.sc.Device.ApplyTCP(tcp.Config{}))
		var f *web.TCPFetcher
		inWeb(func() { f = web.NewTCPFetcherOn(cliEP, serverAddr) })
		b.client, b.server = cliEP, srvEP
		b.load = func(done func(time.Duration), fail func(string)) {
			f.OnError = fail
			inWeb(func() { f.LoadPage(page, done) })
		}
	}
	return b
}

// bedDeadline bounds a hand-built load in simulated time; RunPLT's own
// deadline is never shorter than 30 s and no ladder cell comes near it.
const bedDeadline = 30 * time.Minute

// counts is what rung 3b counted on one cell. All of it is simulated
// work, so it repeats exactly from run to run.
type counts struct {
	events      int
	pendSum     int
	down, up    netem.LinkStats
	handled     int // packets handed to an endpoint
	netemEvents int // events the links scheduled (drains and deliveries)
}

func drops(s netem.LinkStats) int {
	return s.DroppedQueue + s.DroppedLoss + s.DroppedBurst + s.DroppedOutage
}

func (t *tracer) ladder(w workload, o options) (workloadResult, error) {
	lr := &ladderRun{t: t, w: w}
	for _, c := range w.cells(o.seed) {
		c.sc = bare(c.sc)
		lr.cells = append(lr.cells, c)
	}
	cells := lr.cells
	n := len(cells)
	lr.root = t.begin("ladder", w.name, "", 0)
	defer t.end(lr.root)
	res := workloadResult{Workload: w.name, Why: w.why, CellsPerLap: n, Metrics: map[string]metric{}}
	isQUIC := func(i int) bool { return cells[i].proto == core.QUIC }
	isTCP := func(i int) bool { return cells[i].proto == core.TCP }

	// Rung 4: the reference. Its answers are what rung 3 must reproduce.
	ref := make([]outcome, n)
	rung4 := &rung{name: "rung4.runplt", fn: func(lap, i int, c cell) {
		if o := runCell(c, ""); lap == 0 {
			ref[i] = o
		}
	}}
	var fails []failure

	// Rung 3a: the hand-built testbed, run the way RunPLT runs it.
	var build acc
	samePLT := func(rung string, i int, plt time.Duration) {
		if plt != ref[i].plt {
			fails = append(fails, failure{i, fmt.Sprintf("%s: %s: %s PLT %v, RunPLT %v", w.name, cells[i].name, rung, plt, ref[i].plt)})
		}
	}
	rung3a := &rung{name: "rung3a.testbed", fn: func(lap, i int, c cell) {
		t0 := time.Now()
		b := buildBed(c)
		build.add(lap, time.Since(t0))
		plt := time.Duration(-1)
		b.load(func(d time.Duration) { plt = d; b.sim.Stop() }, func(string) { b.sim.Stop() })
		b.sim.RunUntil(bedDeadline)
		if lap == 0 {
			samePLT("rung 3a", i, plt)
		}
	}}

	// Rung 3b: the same load stepped event by event, with a timing
	// handler around each endpoint's HandlePacket.
	cnt := make([]counts, n)
	var handleQ, handleT, webMS acc
	rung3b := &rung{name: "rung3b.traced", fn: func(lap, i int, c cell) {
		b := buildBed(c)
		var handle time.Duration
		handled := 0
		timed := func(h netem.Handler) netem.Handler {
			return netem.HandlerFunc(func(p *netem.Packet) {
				t0 := time.Now()
				h.HandlePacket(p)
				handle += time.Since(t0)
				handled++
			})
		}
		b.net.Attach(clientAddr, timed(b.client))
		b.net.Attach(serverAddr, timed(b.server))
		plt := time.Duration(-1)
		finished := false
		b.load(func(d time.Duration) { plt, finished = d, true }, func(string) { finished = true })
		events, pend := 0, 0
		for !finished && b.sim.Now() <= bedDeadline && b.sim.Step() {
			events++
			pend += b.sim.Pending()
		}
		if isQUIC(i) {
			handleQ.add(lap, handle)
		} else {
			handleT.add(lap, handle)
		}
		webMS.add(lap, b.web)
		if lap == 0 {
			samePLT("rung 3b", i, plt)
			k := counts{events: events, pendSum: pend, down: b.down.Stats(), up: b.up.Stats(), handled: handled}
			perPkt := 1 // a delivery; a rate-limited link also schedules the queue drain
			if c.sc.RateMbps > 0 {
				perPkt = 2
			}
			k.netemEvents = perPkt * (k.down.Sent + k.up.Sent)
			cnt[i] = k
		}
	}}

	// Rung 0: the scheduler alone, at the cell's event count and depth.
	depth := func(pendSum, events int) int {
		if events == 0 {
			return 1
		}
		return max(1, (pendSum+events/2)/events)
	}
	const rearms = 4096
	var rearmMS acc
	rung0 := &rung{name: "rung0.sim", fn: func(lap, i int, c cell) {
		replay(c.seed, cnt[i].events, depth(cnt[i].pendSum, cnt[i].events))
	}, after: func(lap, i int, c cell, parent int) {
		id := t.begin("rung0.rearm", w.name, c.name, parent)
		rearm(depth(cnt[i].pendSum, cnt[i].events), rearms)
		rearmMS.add(lap, t.end(id))
	}}

	// Rung 1: the links alone. The push's own events are replayed bare
	// next to it, so the link's net cost is the difference.
	var linkReplay acc
	type push struct{ events, pend int }
	pushed := make([]push, n)
	avgSize := func(s netem.LinkStats) int {
		if s.Delivered == 0 {
			return quic.MaxPacketSize
		}
		return int(s.BytesDelivered / int64(s.Delivered))
	}
	rung1 := &rung{name: "rung1.netem", fn: func(lap, i int, c cell) {
		cfg := linkConfig(c)
		e1, p1 := pushLink(c.seed, cfg, cnt[i].down.Sent+drops(cnt[i].down), avgSize(cnt[i].down))
		e2, p2 := pushLink(c.seed, cfg, cnt[i].up.Sent+drops(cnt[i].up), avgSize(cnt[i].up))
		pushed[i] = push{e1 + e2, p1 + p2}
	}, after: func(lap, i int, c cell, parent int) {
		id := t.begin("rung1.replay", w.name, c.name, parent)
		replay(c.seed, pushed[i].events, depth(pushed[i].pend, pushed[i].events))
		linkReplay.add(lap, t.end(id))
	}}

	// Rung 2: the congestion controller alone.
	rung2 := &rung{name: "rung2.cc", fn: func(lap, i int, c cell) { ccPairs(c.proto, cnt[i].down.Sent) }}

	// Rung 5: RunPLT with each instrument alone.
	variant := func(name string, set func(*core.Scenario), first func(i int, r core.Result)) *rung {
		return &rung{name: "rung5." + name, fn: func(lap, i int, c cell) {
			set(&c.sc)
			r := c.sc.RunPLT(c.proto, c.seed)
			if lap == 0 && first != nil {
				first(i, r)
			}
		}}
	}
	rungWire := variant("wire", func(sc *core.Scenario) { sc.WireEncode = true }, nil)
	traceEvents := 0
	rungTrace := variant("trace", func(sc *core.Scenario) { sc.TraceEvents = true }, func(i int, r core.Result) {
		traceEvents += len(r.ServerTrace.Events) + len(r.ClientTrace.Events)
	})
	points := 0
	rungMetrics := variant("metrics", func(sc *core.Scenario) { sc.Metrics = true }, func(i int, r core.Result) {
		for _, s := range r.Metrics.All() {
			points += s.Len()
		}
	})
	rungProfile := variant("profile", func(sc *core.Scenario) { sc.Profile = true }, nil)

	// Rung 5, last: everything on and the bundle written. The bundle
	// write, the qlog stream and the state-machine inference are timed
	// on their own as well.
	var bundleMS, jsonlMS, inferMS acc
	results := make([]core.Result, n)
	rungAll := &rung{name: "rung5.all", fn: func(lap, i int, c cell) {
		c.sc.TraceEvents, c.sc.Metrics, c.sc.Profile = true, true, true
		results[i] = c.sc.RunPLT(c.proto, c.seed)
	}, after: func(lap, i int, c cell, parent int) {
		dir := filepath.Join(o.tmp, "ladder", fmt.Sprintf("c%d", i))
		id := t.begin("rung5.bundle", w.name, c.name, parent)
		err := core.WriteBundle(dir, core.Cell{Experiment: "bench", Proto: c.proto}, c.seed, results[i])
		bundleMS.add(lap, t.end(id))
		if err != nil && lap == 0 {
			fails = append(fails, failure{i, fmt.Sprintf("%s: %s: bundle: %v", w.name, c.name, err)})
		}
		id = t.begin("rung5.jsonl", w.name, c.name, parent)
		if f, err := os.Create(filepath.Join(dir, "again.jsonl")); err == nil {
			results[i].ServerTrace.WriteJSONL(f)
			f.Close()
		}
		jsonlMS.add(lap, t.end(id))
		id = t.begin("rung5.infer", w.name, c.name, parent)
		_ = statemachine.Infer([]statemachine.Trace{statemachine.FromRecorder(results[i].ServerTrace, results[i].EndTime)}).DOT()
		inferMS.add(lap, t.end(id))
		os.RemoveAll(dir)
		results[i] = core.Result{}
	}}

	budget := time.Duration(ladderShare * float64(o.duration))
	lr.run(budget, rung4, rung3a, rung3b, rung0, rung1, rung2, rungWire, rungTrace, rungMetrics, rungProfile, rungAll)

	// Rung 6: the matrix engine around the workload.
	eng, err := lr.engine(o, o.duration-budget)
	if err != nil {
		return res, err
	}

	w4 := rung4.fast()
	refLap := lapResult{cells: ref}
	res.SimDigest = fmt.Sprintf("%016x", refLap.digest())
	res.Laps = len(rung4.walls)
	res.LapMSP50 = percentile(rung4.lapMS(nil), 50)
	res.LapMSP90 = percentile(rung4.lapMS(nil), 90)
	for i, r := range ref {
		res.SimSPerLap += r.end.Seconds()
		if !r.completed {
			fails = append(fails, failure{i, fmt.Sprintf("%s: %s: did not complete", w.name, cells[i].name)})
		}
	}

	// The metrics.
	sum := func(f func(k counts) int, keep func(i int) bool) float64 {
		total := 0
		for i, k := range cnt {
			if keep == nil || keep(i) {
				total += f(k)
			}
		}
		return float64(total)
	}
	count := func(keep func(i int) bool) float64 {
		return sum(func(counts) int { return 1 }, keep)
	}
	fn := float64(n)
	m := res.Metrics
	set := func(name string, v float64) { m[name] = metric{Value: v} }
	events := sum(func(k counts) int { return k.events }, nil)
	pkts := sum(func(k counts) int { return k.down.Sent + k.up.Sent }, nil)
	dropped := sum(func(k counts) int { return drops(k.down) + drops(k.up) }, nil)

	set("sim.events_per_cell", events/fn)
	set("sim.pending_mean", sum(func(k counts) int { return k.pendSum }, nil)/events)
	set("sim.ns_per_event", rung0.fast()*1e6/events)
	set("sim.timer_rearm_ns", fast5(rearmMS)*1e6/(rearms*fn))
	set("sim.share", rung0.fast()/w4)

	netemNet := rung1.fast() - fast5(linkReplay)
	set("netem.pkts_per_cell", pkts/fn)
	set("netem.drops_per_cell", dropped/fn)
	set("netem.reordered_per_cell", sum(func(k counts) int { return k.down.Reordered + k.up.Reordered }, nil)/fn)
	set("netem.delivered_ratio", sum(func(k counts) int { return k.down.Delivered + k.up.Delivered }, nil)/(pkts+dropped))
	set("netem.ns_per_pkt", netemNet*1e6/(pkts+dropped))
	set("netem.share", netemNet/w4)

	set("cc.ns_per_ack", rung2.fast()*1e6/sum(func(k counts) int { return k.down.Sent }, nil))
	set("cc.share", rung2.fast()/w4)

	for _, p := range []struct {
		name     string
		keep     func(int) bool
		handle   acc
		spurious int // index into counterNames
	}{{"quic", isQUIC, handleQ, 1}, {"tcp", isTCP, handleT, 2}} {
		np := count(p.keep)
		wall := fast5(rung4.lapMS(p.keep))
		kib, pageBytes := 0.0, 0.0
		counter := func(k int) float64 {
			total := 0
			for i, r := range ref {
				if p.keep(i) {
					total += r.counters[k]
				}
			}
			return float64(total) / np
		}
		for i, c := range cells {
			if p.keep(i) {
				pageBytes += float64(c.pageBytes())
				kib += float64(c.pageBytes()) / 1024
			}
		}
		set(p.name+".ms_per_cell", wall/np)
		set(p.name+".us_per_kb", wall*1000/kib)
		set(p.name+".handle_ns_per_pkt", fast5(p.handle)*1e6/sum(func(k counts) int { return k.handled }, p.keep))
		set(p.name+".timer_share", 1-sum(func(k counts) int { return k.netemEvents }, p.keep)/sum(func(k counts) int { return k.events }, p.keep))
		set(p.name+".declared_lost_per_cell", counter(0))
		set(p.name+"."+counterNames[p.spurious]+"_per_cell", counter(p.spurious))
		set(p.name+".rto_per_cell", counter(3))
		set(p.name+".tlp_per_cell", counter(4))
		set(p.name+".goodput_ratio", pageBytes/sum(func(k counts) int { return int(k.down.BytesDelivered) }, p.keep))
	}

	set("wire.encode_verify_ms_per_cell", (rungWire.fast()-w4)/fn)

	objects, pltMS := 0.0, 0.0
	for i, c := range cells {
		objects += float64(c.sc.Page.NumObjects)
		pltMS += ms(ref[i].plt)
	}
	set("web.ms_per_cell", fast5(webMS)/fn)
	set("web.us_per_object", fast5(webMS)*1000/objects)
	set("web.sim_plt_ms_mean", pltMS/fn)

	set("core.build_us", fast5(build)*1000/fn)
	set("core.scenario_overhead_ms_per_cell", (w4-rung3a.fast())/fn)
	set("core.sim_s_per_wall_s", res.SimSPerLap/(w4/1000))
	set("core.bundle_ms_per_cell", fast5(bundleMS)/fn)

	set("trace.ms_per_cell", (rungTrace.fast()-w4)/fn)
	set("trace.events_per_cell", float64(traceEvents)/fn)
	set("trace.alloc_kb_per_cell", (rungTrace.allocKBPerLap()-rung4.allocKBPerLap())/fn)
	set("trace.jsonl_write_ms_per_cell", fast5(jsonlMS)/fn)
	set("metrics.ms_per_cell", (rungMetrics.fast()-w4)/fn)
	set("metrics.points_per_cell", float64(points)/fn)
	set("profile.ms_per_cell", (rungProfile.fast()-w4)/fn)
	set("statemachine.infer_ms_per_cell", fast5(inferMS)/fn)

	eng.metrics(set, o.par)
	set("core.heap_inuse_mb_max", lr.heapMB)
	set("tracing_overhead_ratio", rung3b.fast()/w4)

	for _, spec := range perLayer {
		v, ok := m[spec.Name]
		if !ok {
			return res, fmt.Errorf("ladder of %s did not produce %s", w.name, spec.Name)
		}
		v.Unit = spec.Unit
		m[spec.Name] = v
	}
	if total := m["sim.share"].Value + m["netem.share"].Value + m["cc.share"].Value; total > 1 {
		fails = append(fails, failure{-1, fmt.Sprintf("%s: sim, netem and cc shares sum to %.3f of the RunPLT wall", w.name, total)})
	}
	fails = append(fails, eng.fails...)
	res.record(2*n+1+eng.laps, fails)
	return res, nil
}

// replay fires events no-op events on a fresh simulator while keeping
// depth of them pending. Every fired event schedules one more,
// alternately one tick ahead and depth ticks ahead: a load's queue mixes
// short horizons (link drains, pacing), whose pushes land at the head of
// the heap, with long ones (deliveries, loss timers), which land at its
// tail.
func replay(seed int64, events, depth int) {
	s := sim.New(seed)
	left := events
	far := time.Duration(depth) * time.Microsecond
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			if left&1 == 0 {
				s.Schedule(time.Microsecond, fire)
			} else {
				s.Schedule(far, fire)
			}
		}
	}
	for i := 0; i < depth && left > 0; i++ {
		left--
		s.Schedule(time.Duration(i+1)*time.Microsecond, fire)
	}
	for s.Step() {
	}
}

// rearm stops and re-schedules one timer n times over a queue of depth
// pending events: the loss/idle-timer churn of a transport. Stop only
// tombstones, so the cost includes the compactions the churn triggers.
func rearm(depth, n int) {
	s := sim.New(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		s.Schedule(time.Duration(i+1)*time.Millisecond, noop)
	}
	t := s.Schedule(time.Second, noop)
	for i := 0; i < n; i++ {
		t.Stop()
		t = s.Schedule(time.Second+time.Duration(i), noop)
	}
}

// pushLink sends pkts packets of size bytes through one link of the
// given config into a null handler, paced at the link's rate so the
// drop-tail queue never overflows, and returns the events it took and
// the summed queue depth seen at each.
func pushLink(seed int64, cfg netem.Config, pkts, size int) (events, pend int) {
	if pkts == 0 {
		return 0, 0
	}
	s := sim.New(seed)
	nw := netem.NewNetwork(s)
	nw.SetPath(serverAddr, clientAddr, netem.NewLink(s, cfg))
	nw.Attach(clientAddr, netem.HandlerFunc(func(*netem.Packet) {}))
	interval := time.Microsecond
	if cfg.RateBps > 0 {
		interval = time.Duration(float64(size*8) / float64(cfg.RateBps) * float64(time.Second))
	}
	sent := 0
	var send func()
	send = func() {
		nw.Send(netem.NewPacket(serverAddr, clientAddr, size, nil))
		if sent++; sent < pkts {
			s.Schedule(interval, send)
		}
	}
	s.Schedule(0, send)
	for s.Step() {
		events++
		pend += s.Pending()
	}
	return events, pend
}

// ccPairs drives the protocol's calibrated Cubic through n send/ack
// pairs in bursts of ten, one round trip apart.
func ccPairs(p core.Proto, n int) {
	cfg := cc.DefaultTCPConfig()
	if p == core.QUIC {
		cfg = cc.DefaultQUICConfig()
		cfg.MSS = quic.MaxPacketSize
	}
	var ctl cc.Controller = cc.NewCubic(cfg)
	const burst = 10
	rtt := core.DefaultRTT
	now := time.Duration(0)
	for i := 0; i < n; i += burst {
		k := min(burst, n-i)
		for j := 0; j < k; j++ {
			ctl.OnPacketSent(now, uint64(i+j), cfg.MSS)
		}
		now += rtt
		for j := 0; j < k; j++ {
			ctl.OnAck(now, uint64(i+j), cfg.MSS, rtt, (k-j-1)*cfg.MSS)
		}
	}
}

// engineRun is rung 6's measurements.
type engineRun struct {
	cells                         int
	none, ledger, ckpt, one       []float64 // lap walls in ms
	overhead                      []float64 // (Wall - CellWall) in ms at one worker
	ledgerBytes, ckptBytes, finds float64   // per lap
	laps                          int
	fails                         []failure
}

// engine runs rung 6: the workload's cells through the matrix engine
// (sweep: its experiments; the others: Matrix.Compare of each scenario,
// one round, which enqueues the same QUIC and TCP cells) with each
// combination of sinks. A ledger or a checkpoint forces bundle-grade
// instruments on, so their cost here includes the instruments': it is
// what a user pays for turning the sink on.
func (lr *ladderRun) engine(o options, budget time.Duration) (engineRun, error) {
	var er engineRun
	run := func(opt core.Options, out *bytes.Buffer) {
		opt.Rounds = 1
		opt.Seed = lr.w.seedBase(o.seed)
		m := core.NewMatrix("bench-"+lr.w.name, opt)
		var cms []*core.Comparison
		for i, sc := range lr.w.scenarios() {
			sc = bare(sc)
			sc.Seed = core.CellSeed(opt.Seed, lr.w.name, i, 0)
			cms = append(cms, m.Compare(sc))
		}
		m.Run()
		for _, cm := range cms {
			fmt.Fprintln(out, cm.QUICMean, cm.TCPMean)
		}
	}
	if lr.w.sweep {
		run = runSweep(o.seed)
	}
	variants := []struct {
		name  string
		sinks sweepSinks
		walls *[]float64
	}{
		{"none", sweepSinks{par: o.par}, &er.none},
		{"ledger", sweepSinks{par: o.par, ledger: true}, &er.ledger},
		{"checkpoint", sweepSinks{par: o.par, checkpoint: true}, &er.ckpt},
		{"both", sweepSinks{par: o.par, ledger: true, checkpoint: true}, nil}, // for what the sinks wrote
		{"one-worker", sweepSinks{par: 1}, &er.one},
	}
	start := time.Now()
	for lap := 0; lap < minLadderLaps || time.Since(start) < budget; lap++ {
		for _, v := range variants {
			dir := filepath.Join(o.tmp, "engine", fmt.Sprintf("%s-%d", v.name, lap))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return er, err
			}
			id := lr.t.begin("rung6."+v.name, lr.w.name, "", lr.root)
			var (
				l   lapResult
				es  engineStats
				err error
			)
			withProcs(v.sinks.par, func() { l, es, err = engineLap(v.sinks, dir, run) })
			lr.t.end(id)
			os.RemoveAll(dir)
			if err != nil {
				return er, err
			}
			er.laps++
			er.cells = es.cells
			if v.walls != nil {
				*v.walls = append(*v.walls, ms(l.wall))
			}
			for _, e := range l.extra {
				er.fails = append(er.fails, failure{-1, fmt.Sprintf("%s: rung 6 %s: %s", lr.w.name, v.name, e)})
			}
			switch v.name {
			case "both":
				er.ledgerBytes, er.ckptBytes, er.finds = float64(es.ledgerSize), float64(es.ckptSize), float64(es.findings)
			case "one-worker":
				er.overhead = append(er.overhead, ms(es.wall-es.cellWall))
			}
			lr.sampleHeap(readMem())
		}
	}
	return er, nil
}

func (er engineRun) metrics(set func(string, float64), workers int) {
	n := float64(er.cells)
	none := fast5(er.none)
	set("core.engine_overhead_ms_per_cell", fast5(er.overhead)/n)
	set("core.parallel_efficiency", fast5(er.one)/(float64(workers)*none))
	set("core.cells_per_s_per_worker", n/(none/1000)/float64(workers))
	set("obs.ledger_ms_per_cell", (fast5(er.ledger)-none)/n)
	set("obs.checkpoint_ms_per_cell", (fast5(er.ckpt)-none)/n)
	set("obs.ledger_bytes_per_cell", er.ledgerBytes/n)
	set("obs.checkpoint_bytes_per_cell", er.ckptBytes/n)
	set("obs.findings_per_cell", er.finds/n)
}
