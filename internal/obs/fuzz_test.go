package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLedgerRead drives Scan — the one reader under the ledger, the
// checkpoints and the resume path — with arbitrary (truncated, torn,
// corrupt) input. It must never panic, and whatever it calls the valid
// prefix must be stable: re-reading exactly those bytes reproduces the
// same entries and the same length with no damage, for the ledger view
// (ReadLedger) and the checkpoint view (checkpointOf) alike. That is what
// makes truncate-then-append safe.
func FuzzLedgerRead(f *testing.F) {
	id := SweepIdentity{
		Experiment: "fig2", BaseSeed: 3, Rounds: 2, Cells: 6, Scenarios: 3,
		SeedDerivation: "test/v1", GoVersion: "go-test",
	}
	cell := CellID{Scenario: 1, Proto: "QUIC"}
	line := func(rec any) []byte {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	hdr := line(CheckpointHeader{Type: TypeCheckpointHeader, Schema: CheckpointSchema, SweepIdentity: id})
	ckpt := line(CheckpointCell{Type: TypeCheckpointCell, CellID: cell, Seed: 42, Payload: json.RawMessage(`{"plt_ns":1}`)})
	full := append(append([]byte{}, hdr...), ckpt...)

	f.Add(full)
	f.Add(full[:len(full)-7])                           // torn tail
	f.Add([]byte(`{"type":"manifest","experiment":1}`)) // wrong field type
	f.Add([]byte("{not json}\n"))                       // corrupt line
	f.Add([]byte("\n\n"))                               // blank lines
	f.Add([]byte(`{"type":"mystery","v":1}` + "\n"))    // unknown type
	f.Add([]byte(`{"type":"cell","seed":"x"}` + "\n"))  // bad ledger cell
	f.Add(bytes.Repeat([]byte(`{"type":"cell"}`+"\n"), 3))
	// What a ledger killed mid-flush looked like once the next run had
	// appended to it, before CreateLedger dropped torn tails.
	f.Add([]byte(`{"type":"manifest","experiment":"table5"}` + "\n" + `{"type":"cell","experiment":"t` +
		`{"type":"manifest","experiment":"table5"}` + "\n" + `{"type":"sweep_stats","workers":2}` + "\n"))
	// A whole ledger block, so every record type has a seed.
	block := line(Manifest{Type: TypeManifest, Schema: LedgerSchema, SweepIdentity: id})
	block = append(block, line(CellRecord{Type: TypeCell, Experiment: "fig2", CellID: cell, Outcome: OutcomeCompleted})...)
	block = append(block, line(TimingRecord{Type: TypeTiming, CellID: cell, WallMS: 1.5})...)
	block = append(block, line(SweepStats{Type: TypeSweepStats, Experiment: "fig2", Workers: 2})...)
	f.Add(block)
	f.Add(append(append([]byte{}, block...), full...))
	f.Add([]byte(`{"experiment":"fig2"}` + "\n")) // missing type

	f.Fuzz(func(t *testing.T, data []byte) {
		e1, valid, damage := Scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		e2, valid2, damage2 := Scan(data[:valid])
		if damage2 != nil {
			t.Fatalf("the valid prefix re-reads as damaged: %v", damage2)
		}
		if valid2 != valid {
			t.Fatalf("valid prefix not stable: %d then %d", valid, valid2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("entries not stable across prefix re-read:\n%+v\n%+v", e1, e2)
		}
		// The ledger view refuses damage and otherwise is the scan.
		le, err := ReadLedger(bytes.NewReader(data))
		if (err != nil) != (damage != nil) {
			t.Fatalf("ReadLedger error %v, Scan damage %v", err, damage)
		}
		if err == nil && !reflect.DeepEqual(le, e1) {
			t.Fatalf("ReadLedger and Scan disagree:\n%+v\n%+v", le, e1)
		}
		// The checkpoint view is a function of the entries alone.
		h1, c1 := checkpointOf(e1)
		h2, c2 := checkpointOf(e2)
		if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(c1, c2) {
			t.Fatal("checkpoint view not stable across prefix re-read")
		}
	})
}
