package core

import (
	"sync"
	"time"
)

// Testbed reuse: constructing a testbed for one matrix cell allocates a
// simulator, a network, links, endpoints, recorders and a collector —
// several hundred objects. Across a large sweep almost all cells share a
// handful of structural shapes, so the matrix engine gives each worker a
// tbPool: after a cell finishes, its testbed is scrubbed with the Reset
// lifecycles (sim.Reset, Link.Reset, Network.Reset, Endpoint.Reset,
// Recorder.Reset, Collector.Reset) and parked for the next cell of the
// same shape. A reset testbed is byte-identical in behaviour to a fresh
// one: every Reset restores the exact state its constructor produces,
// only the allocations differ (TestResetTestbedByteIdentical holds this).

// tbShape is the structural identity of a testbed — everything that
// decides which objects exist (link count, endpoint protocol, recorder
// detail, which metric series get registered), as opposed to how they
// are configured. Configuration is re-applied on every acquire.
type tbShape struct {
	proto    Proto
	cellular bool
	proxied  bool
	detailed bool // qlog recorders (TraceEvents)
	metrics  bool
	// cadence and ccKey pin the collector's construction cadence and the
	// set of series the congestion controller registers (BBR variants
	// skip ssthresh), so a reused collector exports exactly the series a
	// fresh run would, in the same order.
	cadence time.Duration
	ccKey   string
}

// shape computes the scenario's structural identity for one protocol.
func (sc Scenario) shape(proto Proto) tbShape {
	return tbShape{
		proto:    proto,
		cellular: sc.Cell != nil,
		proxied:  sc.Cell == nil && sc.Proxy != NoProxy,
		detailed: sc.TraceEvents,
		metrics:  sc.Metrics,
		cadence:  sc.MetricsCadence,
		ccKey:    sc.CCAlgo,
	}
}

// tbPoolCap bounds the parked testbeds per shape; a worker runs one cell
// at a time, so anything beyond a small surplus (abandoned timed-out
// attempts releasing late) is dropped to the GC.
const tbPoolCap = 4

// tbPool is a per-worker cache of warm testbeds keyed by shape. The
// mutex exists only for the cell-timeout path, where an abandoned
// attempt's goroutine may release its testbed while the worker's next
// cell is already acquiring — the pool is otherwise single-worker.
type tbPool struct {
	mu   sync.Mutex
	free map[tbShape][]*testbed
}

func newTBPool() *tbPool {
	return &tbPool{free: make(map[tbShape][]*testbed)}
}

func (tp *tbPool) get(shape tbShape) *testbed {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	list := tp.free[shape]
	if n := len(list); n > 0 {
		tb := list[n-1]
		list[n-1] = nil
		tp.free[shape] = list[:n-1]
		return tb
	}
	return nil
}

func (tp *tbPool) put(tb *testbed) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	list := tp.free[tb.shape]
	if len(list) >= tbPoolCap {
		return // surplus; leave to the GC
	}
	tp.free[tb.shape] = append(list, tb)
}

// acquire returns a testbed wired for the scenario: a warm one from the
// pool, reset to the state newTestbed produces (the simulator restarts at
// time zero with the run's seed, the network forgets its paths, recorders
// and collector are emptied), or else a new one. Both go through the same
// wire; endpoints are reset lazily in runPLT, where their configs are
// assembled. tp may be nil (the public RunPLT path): every call allocates.
func (sc Scenario) acquire(proto Proto, seed int64, tp *tbPool) *testbed {
	shape := sc.shape(proto)
	var tb *testbed
	if tp != nil {
		tb = tp.get(shape)
	}
	if tb != nil {
		tb.sim.Reset(seed)
		tb.net.Reset()
		tb.varier = nil
		tb.tracer.Reset()
		tb.clientTracer.Reset()
		if tb.coll != nil {
			tb.coll.Reset()
		}
	} else {
		tb = newTestbed(shape, seed)
		tb.pool = tp
	}
	sc.wire(tb)
	return tb
}
