package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quiclab/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOptions keeps the determinism sweep affordable: Quick matrices,
// two rounds per cell. Golden files encode this exact configuration —
// regenerate with `go test ./internal/core -run TestGolden -update`.
func goldenOptions(parallelism int) Options {
	return Options{Quick: true, Rounds: 2, Seed: 3, Parallelism: parallelism}
}

// TestGoldenDeterminism runs every registered experiment in Quick mode
// at Parallelism 1, 4, and 8 (1 and 4 under -short) and asserts the
// rendered output is byte-identical to the committed golden at every
// worker count. This is the repo's proof that results are independent
// of execution order — the property parallel sweeps rely on.
//
// Every run also writes a run ledger, which pins two more properties at
// once: the ledger's deterministic section (manifest + cell records,
// including stall-attribution budgets for PLT cells) is byte-identical
// at every worker count, and enabling the ledger — which turns on
// metrics, profiling and the anomaly pass — leaves the rendered output
// matching the committed goldens (observability is passive).
// TestLedgerDeterminismAcrossWorkers asserts the budgets are actually
// present in the section compared here. Every cell that runs a transport
// is observed: only unobservedByDesign's experiments may leave a cell
// record "unobserved".
func TestGoldenDeterminism(t *testing.T) {
	workerCounts := []int{1, 4, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			golden := filepath.Join("testdata", e.ID+".golden")
			outputs := make(map[int][]byte, len(workerCounts))
			ledgers := make(map[int][]byte, len(workerCounts))
			for _, workers := range workerCounts {
				var buf, lbuf bytes.Buffer
				o := goldenOptions(workers)
				l := obs.NewLedger(&lbuf)
				o.Ledger = l
				e.Run(&buf, o)
				if err := l.Close(); err != nil {
					t.Fatalf("%s: ledger at %d workers: %v", e.ID, workers, err)
				}
				outputs[workers] = buf.Bytes()
				ledgers[workers] = stripTimingLines(t, lbuf.Bytes())
			}
			if reason, ok := unobservedByDesign[e.ID]; !ok {
				for _, line := range bytes.Split(ledgers[1], []byte("\n")) {
					if bytes.Contains(line, []byte(`"outcome":"`+obs.OutcomeUnobserved+`"`)) {
						t.Fatalf("%s: cell surfaced no Result to the engine: %s", e.ID, line)
					}
				}
			} else if !bytes.Contains(ledgers[1], []byte(obs.OutcomeUnobserved)) {
				t.Fatalf("%s: listed as unobserved (%s) but every cell was observed", e.ID, reason)
			}
			for _, workers := range workerCounts[1:] {
				if !bytes.Equal(outputs[workers], outputs[1]) {
					t.Fatalf("%s: output at %d workers differs from sequential output:%s",
						e.ID, workers, diffHint(outputs[1], outputs[workers]))
				}
				if !bytes.Equal(ledgers[workers], ledgers[1]) {
					t.Fatalf("%s: deterministic ledger section at %d workers differs from sequential run:%s",
						e.ID, workers, diffHint(ledgers[1], ledgers[workers]))
				}
			}
			if *update {
				if err := os.WriteFile(golden, outputs[1], 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(outputs[1], want) {
				t.Fatalf("%s: output differs from committed golden (run with -update if the change is intended):%s",
					e.ID, diffHint(want, outputs[1]))
			}
		})
	}
}

// unobservedByDesign lists the experiments whose cells run no transport,
// and so have no Result for the engine to observe, each with the reason.
var unobservedByDesign = map[string]string{
	"table5": "cellular.Probe measures bare links; no endpoint, no trace",
}

// diffHint renders the first differing line of two outputs — enough to
// locate a determinism break without dumping whole tables.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("\n  line %d:\n    want: %s\n    got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("\n  line count: want %d, got %d", len(wl), len(gl))
}

// TestCCOverridesTheCalibratedDefault pins Options.CC's one rule: it
// reaches every cell whose controller is the calibrated default — the
// fairness arms of fig5 and the bulk downloads of fig9 included — and
// leaves a named controller alone: fig3b keeps its bbr, and a tournament
// renders the same bracket under any -cc.
func TestCCOverridesTheCalibratedDefault(t *testing.T) {
	for id, changes := range map[string]bool{"fig5": true, "fig9": true, "fig3b": false} {
		e, _ := ByID(id)
		o := goldenOptions(2)
		o.CC = "reno"
		var buf bytes.Buffer
		e.Run(&buf, o)
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if same := bytes.Equal(buf.Bytes(), want); same == changes {
			t.Errorf("%s under CC reno: renders its calibrated golden = %v, want %v", id, same, !changes)
		}
	}
	bracket := func(ccOverride string) []byte {
		var buf bytes.Buffer
		m := NewMatrix("cctournament", Options{Quick: true, Seed: 3, Parallelism: 2, CC: ccOverride})
		brackets := RunTournament(m, []string{"cubic", "bbr"}, 2, 4*time.Second)
		m.Run()
		for _, b := range brackets {
			RenderTournament(&buf, b)
		}
		return buf.Bytes()
	}
	if plain, reno := bracket(""), bracket("reno"); !bytes.Equal(plain, reno) {
		t.Errorf("CC reno changed a bracket of named controllers:%s", diffHint(plain, reno))
	}
}
