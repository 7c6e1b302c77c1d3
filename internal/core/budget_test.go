package core

import (
	"fmt"
	"io"
	"testing"
	"time"

	"quiclab/internal/device"
	"quiclab/internal/obs"
	"quiclab/internal/video"
	"quiclab/internal/web"
)

// budgetUse is what one run fired against the per-packet share of the
// event budget it ran under (budgetBase left out, so the constant cannot
// hide a rise in events per packet).
type budgetUse struct {
	Fired, Budget uint64
}

// TestEventBudgetHeadroom keeps the event budget far from every legitimate
// run: one cell of each run kind (page load, bulk download, video,
// fairness) and the chaos corpus, at both protocols, run on the engine
// with its pooled testbeds and a ledger's instruments, must each fire at
// most an eighth of its budget's per-packet share: budgetPerPacket/8
// events per packet its bottleneck carries over the horizon. A change that
// makes runs fire more events per packet fails here, not as a cell_panic
// in some sweep.
func TestEventBudgetHeadroom(t *testing.T) {
	m := NewMatrix("headroom", Options{Seed: 1, Rounds: 1, Ledger: obs.NewLedger(io.Discard)})
	var (
		names []string
		uses  []*budgetUse
	)
	add := func(name string, proto Proto, sc Scenario, horizon time.Duration,
		run func(sc Scenario, seed int64, tp *tbPool) Result) {
		use := new(budgetUse)
		names, uses = append(names, fmt.Sprintf("%s %s", name, proto)), append(uses, use)
		addRun(m, Cell{Scenario: m.NextScenario(), Proto: proto}, use, nil, &sc,
			func(sc Scenario, _ Cell, seed int64, tp *tbPool) (budgetUse, Result) {
				res := run(sc, seed, tp)
				return budgetUse{Fired: res.sim.Fired(), Budget: sc.eventBudget(horizon) - budgetBase}, res
			})
	}
	for _, proto := range []Proto{QUIC, TCP} {
		page := Scenario{RateMbps: 100, LossPct: 1, Device: device.Desktop,
			Page: web.Page{NumObjects: 1, ObjectSize: 10 << 20}}
		add("page load", proto, page, page.deadline(), func(sc Scenario, seed int64, tp *tbPool) Result {
			return sc.runPLT(proto, seed, tp)
		})
		bulk := page
		bulk.Page.ObjectSize = 20 << 20
		add("bulk", proto, bulk, bulk.deadline(), func(sc Scenario, seed int64, tp *tbPool) Result {
			_, res := sc.runThroughput(proto, seed, tp)
			return res
		})
		vid := Scenario{RateMbps: 100, LossPct: 1, Device: device.Desktop}
		add("video", proto, vid, 3*time.Minute, func(sc Scenario, seed int64, tp *tbPool) Result {
			_, res := sc.runVideo(video.HD2160, proto, seed, tp)
			return res
		})
		for i := 0; i < 250; i++ {
			seed := int64(1000 + i)
			sc := chaosScenario(seed)
			add(fmt.Sprintf("chaos seed %d", seed), proto, sc, sc.deadline(), func(sc Scenario, _ int64, tp *tbPool) Result {
				return sc.runPLT(proto, seed, tp)
			})
		}
	}
	add("fairness", QUIC, table4Path, 30*time.Second, func(sc Scenario, seed int64, tp *tbPool) Result {
		_, res := sc.runFairness(ProtoArms(QUIC, TCP), 30*time.Second, seed, tp)
		return res
	})
	if st := m.Run(); st.Panics != 0 {
		t.Fatalf("%d runs panicked", st.Panics)
	}
	top := 0
	for i, u := range uses {
		if u.Fired == 0 || u.Fired > u.Budget/8 {
			t.Errorf("%s fired %d events against a per-packet budget of %d: want at least one and at most an eighth of it",
				names[i], u.Fired, u.Budget)
		}
		if float64(u.Fired)/float64(u.Budget) > float64(uses[top].Fired)/float64(uses[top].Budget) {
			top = i
		}
	}
	t.Logf("closest to its budget: %s, %d of %d events", names[top], uses[top].Fired, uses[top].Budget)
}
