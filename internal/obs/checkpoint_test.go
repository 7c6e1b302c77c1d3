package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHeader() CheckpointHeader {
	return CheckpointHeader{SweepIdentity: SweepIdentity{
		Experiment:     "fig2",
		BaseSeed:       3,
		Rounds:         2,
		Quick:          true,
		Cells:          6,
		Scenarios:      3,
		SeedDerivation: "test/v1",
		GoVersion:      "go-test",
	}}
}

func testCell(scenario, round int) CheckpointCell {
	id := CellID{Scenario: scenario, Round: round, Proto: "QUIC"}
	return CheckpointCell{
		CellID:  id,
		Seed:    int64(1000*scenario + round),
		Payload: json.RawMessage(`{"plt_ns":123456789}`),
		Record: &CellRecord{
			Experiment: "fig2", CellID: id, Seed: int64(1000*scenario + round),
			Outcome: OutcomeCompleted, PLTSeconds: 0.123456789,
		},
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.ckpt")
	h := testHeader()

	ck, salvaged, err := OpenCheckpoint(path, h)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	if len(salvaged) != 0 {
		t.Fatalf("fresh checkpoint salvaged %d cells, want 0", len(salvaged))
	}
	for s := 0; s < 2; s++ {
		for r := 0; r < 2; r++ {
			if err := ck.AppendCheckpointCell(testCell(s, r)); err != nil {
				t.Fatalf("AppendCheckpointCell(%d,%d): %v", s, r, err)
			}
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Re-open with the same config: all four cells salvage, appends extend.
	ck2, salvaged, err := OpenCheckpoint(path, h)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(salvaged) != 4 {
		t.Fatalf("salvaged %d cells, want 4", len(salvaged))
	}
	got := salvaged[0]
	want := testCell(0, 0)
	if got.Scenario != want.Scenario || got.Round != want.Round ||
		got.Seed != want.Seed || string(got.Payload) != string(want.Payload) {
		t.Fatalf("salvaged cell mismatch: got %+v want %+v", got, want)
	}
	if got.Record == nil || got.Record.PLTSeconds != want.Record.PLTSeconds {
		t.Fatalf("salvaged record mismatch: %+v", got.Record)
	}
	if err := ck2.AppendCheckpointCell(testCell(2, 0)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatalf("close after reopen: %v", err)
	}
	_, cells, _, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("ReadCheckpointFile: %v", err)
	}
	if len(cells) != 5 {
		t.Fatalf("after reopen+append: %d cells, want 5", len(cells))
	}
}

func TestCheckpointTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.ckpt")
	h := testHeader()
	ck, _, err := OpenCheckpoint(path, h)
	if err != nil {
		t.Fatal(err)
	}
	ck.AppendCheckpointCell(testCell(0, 0))
	ck.AppendCheckpointCell(testCell(0, 1))
	ck.Close()

	// A whole cell as older writers recorded a retried one (an "attempts"
	// count this schema no longer has), then a crash mid-append: a torn
	// (newline-less, half-written) record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"ckpt_cell","scenario":5,"round":0,"proto":"QUIC","arm":0,"seed":5000,"attempts":2,"payload":{"plt_ns":7}}` + "\n")
	f.WriteString(`{"type":"ckpt_cell","scenario":9,"ro`)
	f.Close()

	ck2, salvaged, err := OpenCheckpoint(path, h)
	if err != nil {
		t.Fatalf("reopen torn file: %v", err)
	}
	if len(salvaged) != 3 {
		t.Fatalf("salvaged %d cells, want 3 (torn tail dropped)", len(salvaged))
	}
	if old := salvaged[2]; old.Scenario != 5 || old.Seed != 5000 || string(old.Payload) != `{"plt_ns":7}` {
		t.Fatalf("cell with an attempts count did not restore: %+v", old)
	}
	// The torn bytes must be gone: a fresh append lands on a clean line.
	if err := ck2.AppendCheckpointCell(testCell(1, 0)); err != nil {
		t.Fatal(err)
	}
	ck2.Close()
	_, cells, _, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("after truncate+append: %d cells, want 4", len(cells))
	}
	if cells[3].Scenario != 1 || cells[3].Round != 0 {
		t.Fatalf("appended cell corrupted: %+v", cells[3])
	}
}

func TestCheckpointCorruptLineStopsParse(t *testing.T) {
	var b strings.Builder
	h := testHeader()
	h.Type = TypeCheckpointHeader
	h.Schema = CheckpointSchema
	enc := json.NewEncoder(&b)
	enc.Encode(h)
	enc.Encode(testCellStamped(0, 0))
	b.WriteString("{not json}\n")
	enc.Encode(testCellStamped(0, 1)) // after the damage: must be ignored

	entries, valid, damage := Scan([]byte(b.String()))
	if damage == nil || !strings.Contains(damage.Error(), "line 3") {
		t.Fatalf("damage = %v, want it to name line 3", damage)
	}
	if want := strings.Index(b.String(), "{not json}"); valid != int64(want) {
		t.Fatalf("valid prefix %d, want %d (up to the corrupt line)", valid, want)
	}
	hdr, cells := checkpointOf(entries)
	if hdr == nil {
		t.Fatal("header lost")
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1 (parse stops at corruption)", len(cells))
	}
}

func testCellStamped(s, r int) CheckpointCell {
	c := testCell(s, r)
	c.Type = TypeCheckpointCell
	return c
}

func TestCheckpointConfigMismatchStartsFresh(t *testing.T) {
	if got, want := testHeader().Key(), "fnv1a:fb13cbc69847dc76"; got != want {
		t.Fatalf("resume key %s, but existing checkpoints of this config say %s", got, want)
	}
	c := testHeader()
	c.Rounds++
	if c.Key() == testHeader().Key() {
		t.Fatal("rounds change did not change the resume key")
	}
	path := filepath.Join(t.TempDir(), "fig2.ckpt")
	ck, _, err := OpenCheckpoint(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	ck.AppendCheckpointCell(testCell(0, 0))
	ck.Close()

	h2 := testHeader()
	h2.BaseSeed = 99 // different sweep config
	ck2, salvaged, err := OpenCheckpoint(path, h2)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if len(salvaged) != 0 {
		t.Fatalf("config mismatch salvaged %d cells, want 0", len(salvaged))
	}
	hdr, cells, _, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 || hdr == nil || hdr.BaseSeed != 99 {
		t.Fatalf("file not reinitialized: hdr=%+v cells=%d", hdr, len(cells))
	}
}
