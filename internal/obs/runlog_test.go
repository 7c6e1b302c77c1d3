package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// logKind is one of the two file kinds over the run-log layer: how to
// write its four-record sample, how a report reads it, and how a writer
// reopens it and appends one more record.
type logKind struct {
	name   string
	sample func(t *testing.T, path string)
	// reopen appends one record; refused reports a file left untouched.
	reopen func(t *testing.T, path string) (refused error)
}

var logKinds = []logKind{
	{
		name: "ledger",
		sample: func(t *testing.T, path string) {
			l, err := CreateLedger(path)
			if err != nil {
				t.Fatal(err)
			}
			l.AppendManifest(sampleManifest())
			l.AppendCell(CellRecord{Experiment: "fig2", CellID: CellID{Proto: "QUIC"}, Outcome: OutcomeCompleted})
			l.AppendTiming(TimingRecord{CellID: CellID{Proto: "QUIC"}, WallMS: 1.5})
			l.AppendSweepStats(SweepStats{Experiment: "fig2", Workers: 2})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		reopen: func(t *testing.T, path string) error {
			l, err := CreateLedger(path)
			if err != nil {
				return err
			}
			l.AppendSweepStats(SweepStats{Experiment: "appended"})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return nil
		},
	},
	{
		name: "checkpoint",
		sample: func(t *testing.T, path string) {
			ck, _, err := OpenCheckpoint(path, testHeader())
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 3; r++ {
				ck.AppendCheckpointCell(testCell(0, r))
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
		},
		reopen: func(t *testing.T, path string) error {
			ck, _, err := OpenCheckpoint(path, testHeader())
			if err != nil {
				t.Fatal(err)
			}
			ck.AppendCheckpointCell(testCell(9, 9))
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			return nil
		},
	},
}

// TestOneDamagePolicy: the same damage means the same thing in a ledger
// and in a checkpoint, to a reader and to a writer that reopens the file.
// Every case is built from a kind's four sample lines; want is how many
// of them the valid prefix holds, damage what the report names.
func TestOneDamagePolicy(t *testing.T) {
	cases := []struct {
		name   string
		build  func(lines [][]byte) []byte
		want   int    // records in the valid prefix
		cut    int    // lines[:cut] joined is the valid prefix; -1: all of the input
		damage string // "" when the file is intact or merely torn
	}{
		{"intact", func(l [][]byte) []byte { return bytes.Join(l, nil) }, 4, -1, ""},
		{"torn final line", func(l [][]byte) []byte {
			return append(bytes.Join(l[:3], nil), l[3][:len(l[3])/2]...)
		}, 3, 3, ""},
		{"corrupt complete middle line", func(l [][]byte) []byte {
			return bytes.Join([][]byte{l[0], l[1], []byte("{not json}\n"), l[2], l[3]}, nil)
		}, 2, 2, "line 3: invalid character"},
		{"blank lines", func(l [][]byte) []byte {
			return bytes.Join([][]byte{l[0], []byte("\n  \n"), l[1], l[2], l[3]}, nil)
		}, 4, -1, ""},
		{"unknown type", func(l [][]byte) []byte {
			return bytes.Join([][]byte{l[0], l[1], []byte(`{"type":"from_the_future","x":1}` + "\n"), l[2], l[3]}, nil)
		}, 4, -1, ""},
		{"missing type", func(l [][]byte) []byte {
			return bytes.Join([][]byte{l[0], l[1], []byte(`{"experiment":"fig2"}` + "\n"), l[2], l[3]}, nil)
		}, 2, 2, "line 3: missing record type"},
	}
	for _, kind := range logKinds {
		for _, tc := range cases {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				kind.sample(t, path)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.SplitAfter(raw, []byte("\n"))
				lines = lines[:len(lines)-1] // SplitAfter's empty tail
				if len(lines) != 4 {
					t.Fatalf("sample has %d lines, want 4", len(lines))
				}
				data := tc.build(lines)
				prefix := data
				if tc.cut >= 0 {
					prefix = bytes.Join(lines[:tc.cut], nil)
				}

				// Read.
				entries, valid, damage := Scan(data)
				if len(entries) != tc.want || valid != int64(len(prefix)) {
					t.Fatalf("Scan: %d records in a %d-byte prefix, want %d in %d", len(entries), valid, tc.want, len(prefix))
				}
				if (damage == nil) != (tc.damage == "") || damage != nil && !strings.Contains(damage.Error(), tc.damage) {
					t.Fatalf("Scan: damage %v, want %q", damage, tc.damage)
				}
				if _, err := ReadLedger(bytes.NewReader(data)); (err == nil) != (tc.damage == "") {
					t.Fatalf("ReadLedger: error %v, want damage %q", err, tc.damage)
				}

				// Reopen, append, read.
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				refused := kind.reopen(t, path)
				after, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if refused != nil {
					// Only the ledger refuses, only real damage, and by the
					// report's own words; the file is as it was.
					if kind.name != "ledger" || tc.damage == "" || !strings.Contains(refused.Error(), tc.damage) {
						t.Fatalf("reopen refused with %v, want damage %q", refused, tc.damage)
					}
					if !bytes.Equal(after, data) {
						t.Fatal("a refused ledger was modified")
					}
					return
				}
				if kind.name == "ledger" && tc.damage != "" {
					t.Fatal("CreateLedger appended behind a corrupt line no reader gets past")
				}
				if !bytes.HasPrefix(after, prefix) {
					t.Fatal("reopening changed the valid prefix")
				}
				entries2, valid2, damage2 := Scan(after)
				if damage2 != nil || valid2 != int64(len(after)) {
					t.Fatalf("after reopen+append: damage %v, %d of %d bytes valid", damage2, valid2, len(after))
				}
				if len(entries2) != tc.want+1 {
					t.Fatalf("after reopen+append: %d records, want the prefix's %d and the appended one", len(entries2), tc.want)
				}
				if bytes.Count(after[len(prefix):], []byte("\n")) != 1 {
					t.Fatalf("the append did not land directly behind the valid prefix: %q", after[len(prefix):])
				}
			})
		}
	}
}

// TestCellIDOrderAndFirstPerCell pins the canonical order (scenario,
// round, arm, proto) and the first-occurrence rule every reader shares.
func TestCellIDOrderAndFirstPerCell(t *testing.T) {
	ordered := []CellID{
		{Scenario: 0, Round: 0, Arm: 0, Proto: "QUIC"},
		{Scenario: 0, Round: 0, Arm: 0, Proto: "TCP"},
		{Scenario: 0, Round: 0, Arm: 1, Proto: "QUIC"},
		{Scenario: 0, Round: 1, Arm: 0, Proto: "QUIC"},
		{Scenario: 1, Round: 0, Arm: 0, Proto: "QUIC"},
	}
	shuffled := []CellID{ordered[3], ordered[0], ordered[4], ordered[2], ordered[1]}
	slices.SortFunc(shuffled, CellID.Compare)
	if !slices.Equal(shuffled, ordered) {
		t.Fatalf("canonical order is %v, want %v", shuffled, ordered)
	}

	first, again := testCell(0, 0), testCell(0, 0)
	again.Seed = -1
	got := FirstPerCell([]CheckpointCell{testCell(1, 0), first, again, testCell(0, 1)})
	if len(got) != 3 || got[0].Scenario != 1 || got[1].Seed != first.Seed || got[2].Round != 1 {
		t.Fatalf("FirstPerCell kept %+v, want the three distinct cells in input order, the first (0,0) winning", got)
	}
}
