package main

import (
	"strings"
	"testing"
)

// TestParseBenchLines: name, ns/op, B/op and allocs/op are read from plain
// lines and from the lines of b.SetBytes benchmarks, whose MB/s column
// sits between ns/op and B/op (missed, a guard would compare 0 allocs to
// 0 allocs for ever).
func TestParseBenchLines(t *testing.T) {
	m, err := parse(strings.NewReader(`goos: linux
pkg: quiclab/internal/trace
BenchmarkEmitGrowth-2   	    5049	    235469 ns/op	 1441840 B/op	       4 allocs/op
BenchmarkWriteJSONL-2   	    3848	    304753 ns/op	 832.33 MB/s	    4352 B/op	       2 allocs/op
BenchmarkBare   	100	 12.5 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"quiclab/internal/trace:BenchmarkEmitGrowth": {NsPerOp: 235469, BytesPerOp: 1441840, AllocsPerOp: 4},
		"quiclab/internal/trace:BenchmarkWriteJSONL": {NsPerOp: 304753, BytesPerOp: 4352, AllocsPerOp: 2},
		"quiclab/internal/trace:BenchmarkBare":       {NsPerOp: 12.5},
	}
	if len(m.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(m.Benchmarks), len(want), m.Benchmarks)
	}
	for name, w := range want {
		if got := m.Benchmarks[name]; got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
}
