package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzLedgerRead drives both JSONL readers the resume path depends on
// with arbitrary (truncated, torn, corrupt) input:
//
//   - ReadLedger may reject damage with an error but must never panic.
//   - ReadCheckpoint must never error on content damage at all — a
//     checkpoint survives a crash by shrinking to its longest valid
//     prefix, so any byte stream is a readable (possibly empty)
//     checkpoint. Re-reading exactly that prefix must reproduce the
//     same header and cells (truncate-then-append safety).
func FuzzLedgerRead(f *testing.F) {
	hdr := CheckpointHeader{
		Type: TypeCheckpointHeader, Schema: CheckpointSchema,
		SweepIdentity: SweepIdentity{
			Experiment: "fig2", BaseSeed: 3, Rounds: 2, Cells: 6, Scenarios: 3,
			SeedDerivation: "test/v1", GoVersion: "go-test",
		},
	}
	hb, _ := json.Marshal(hdr)
	cell, _ := json.Marshal(CheckpointCell{
		Type: TypeCheckpointCell, Scenario: 1, Round: 0, Proto: "QUIC",
		Seed: 42, Payload: json.RawMessage(`{"plt_ns":1}`),
	})
	full := append(append(append([]byte{}, hb...), '\n'), append(cell, '\n')...)

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

	f.Fuzz(func(t *testing.T, data []byte) {
		// The ledger reader: errors allowed, panics are not (the fuzz
		// runtime catches any panic as a failure).
		_, _ = ReadLedger(bytes.NewReader(data))

		// The checkpoint reader: content damage is never an error.
		h1, c1, valid, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadCheckpoint returned error %v on in-memory data", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		// Prefix stability: the valid prefix re-reads to the same state.
		h2, c2, valid2, err := ReadCheckpoint(bytes.NewReader(data[:valid]))
		if err != nil {
			t.Fatalf("re-read of valid prefix errored: %v", err)
		}
		if valid2 != valid {
			t.Fatalf("valid prefix not stable: %d then %d", valid, valid2)
		}
		if !reflect.DeepEqual(h1, h2) {
			t.Fatalf("header not stable across prefix re-read:\n%+v\n%+v", h1, h2)
		}
		if len(c1) != len(c2) {
			t.Fatalf("cells not stable across prefix re-read: %d then %d", len(c1), len(c2))
		}
		for i := range c1 {
			if !reflect.DeepEqual(c1[i], c2[i]) {
				t.Fatalf("cell %d not stable across prefix re-read", i)
			}
		}
	})
}
