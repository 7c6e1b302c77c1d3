package cc

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"quiclab/internal/metrics"
	"quiclab/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// trajectorySteps is long enough for every fixture to pass through
// slow start, loss episodes, RTOs, TLPs and app-limited phases.
const trajectorySteps = 2000

// TestTrajectoryGolden pins everything a controller reports, fixture by
// fixture: the step fingerprint, the detailed recorder's qlog (state
// transitions, recovery enter/exit, cwnd samples) and the sampled
// series, for driveScript at two seeds and for rampScript, each held as a
// SHA-256 digest with its line count. Regenerate with `go test ./internal/cc -run TestTrajectoryGolden
// -update` only when a controller's behaviour is meant to change.
func TestTrajectoryGolden(t *testing.T) {
	for _, f := range fixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			var got strings.Builder
			for _, run := range []struct {
				name  string
				drive func(c Controller) string
			}{
				{"seed 1", func(c Controller) string { return driveScript(t, c, f.mss, 1, trajectorySteps) }},
				{"seed 2", func(c Controller) string { return driveScript(t, c, f.mss, 2, trajectorySteps) }},
				{"ramp", func(c Controller) string { return rampScript(c, f.mss, 60) }},
			} {
				tr, m := trace.NewDetailed(), metrics.New(0, 0)
				tr.Metrics = m
				steps := run.drive(f.build(tr))
				var qlog, csv bytes.Buffer
				if err := tr.WriteJSONL(&qlog); err != nil {
					t.Fatal(err)
				}
				if err := m.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%s\n", run.name)
				for _, s := range []struct {
					name string
					body []byte
				}{{"steps", []byte(steps)}, {"qlog", qlog.Bytes()}, {"series", csv.Bytes()}} {
					fmt.Fprintf(&got, "  %s lines=%d sha256=%x\n", s.name, bytes.Count(s.body, []byte("\n")), sha256.Sum256(s.body))
				}
			}
			golden := filepath.Join("testdata", "trajectory", f.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got.String() != string(want) {
				t.Fatalf("%s: trajectory differs from the committed golden (run with -update if the change is intended):\n--- want\n%s--- got\n%s",
					f.name, want, got.String())
			}
		})
	}
}

// rampScript drives c through rounds over a modelled bottleneck — a
// path of bdp packets and a drop-tail queue of as many again — so that,
// unlike driveScript's adversarial mix, windows climb far enough for
// HyStart, the MACW cap, Vegas's backlog rule and BBR's probe cycles to
// act. Each round sends what CanSend admits (at most 3000 packets); a
// window beyond the path stands in the queue and delays every ack of
// the round, and what overflows the queue is lost. Every seventh round
// is app-limited to five packets, every eleventh starts with a TLP and
// every twenty-third with an RTO. It returns one fingerprint line per
// round.
func rampScript(c Controller, mss, rounds int) string {
	const bdp, queue = 300, 300 // packets
	const base = 40 * time.Millisecond
	const ser = base / bdp // one packet's serialization time
	var b strings.Builder
	now, next := time.Duration(0), uint64(1)
	for r := 1; r <= rounds; r++ {
		if r%11 == 0 {
			c.OnTLP(now)
		}
		if r%23 == 0 {
			c.OnRTO(now)
		}
		limit := 3000
		if r%7 == 0 {
			limit = 5
			c.SetAppLimited(now, LimitApp)
		}
		first := next
		for n := 0; n < limit && c.CanSend(n*mss); n++ {
			c.OnPacketSent(now, next, mss)
			next++
		}
		n := int(next - first)
		queued := n - bdp
		if queued < 0 {
			queued = 0
		} else if queued > queue {
			queued = queue
		}
		rtt := base + time.Duration(queued)*ser
		for i := 0; i < n; i++ {
			at := now + rtt + time.Duration(i)*ser
			if i >= bdp+queue {
				c.OnLoss(at, first+uint64(i), mss, (n-1-i)*mss)
			} else {
				c.OnAck(at, first+uint64(i), mss, rtt, (n-1-i)*mss)
			}
		}
		now += rtt + time.Duration(n)*ser
		if r%7 == 0 {
			c.SetAppLimited(now, LimitNone)
		}
		fmt.Fprintf(&b, "%d sent=%d w=%d p=%.6g s=%d\n", r, n, c.Window(), c.PacingRate(), c.State())
	}
	return b.String()
}
