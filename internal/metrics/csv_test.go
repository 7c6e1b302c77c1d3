package metrics

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchCollector is a cell's worth of series: 5 × 400 points of the
// awkward floats a run records.
func benchCollector() *Collector {
	c := New(time.Millisecond, DefaultCapacity)
	for i, name := range []string{"cc.cwnd_bytes", "transport.srtt_ns", "cc.pacing_rate_bps", "link.queue_bytes", "link.drops"} {
		s := c.Series(name, Kind(i%int(numKinds)))
		for j := 0; j < 400; j++ {
			s.Record(time.Duration(j)*time.Millisecond, 1e6/3.0+float64(j)*math.Pi*float64(i+1))
		}
	}
	return c
}

// TestWriteCSVFormsAgree: the collector form (from the live rings), the
// snapshot form and the format's definition ("%d" and shortest 'g') write
// the same bytes; a nil collector writes the header alone.
func TestWriteCSVFormsAgree(t *testing.T) {
	c := benchCollector()
	c.Series("empty", KindCount)
	c.Series("edge", KindBytes).Record(-5, math.Inf(1))
	c.Lookup("edge").Record(time.Hour, 5e-324)

	var want bytes.Buffer
	fmt.Fprintln(&want, csvHeader)
	for _, s := range c.All() {
		for _, p := range s.Points() {
			fmt.Fprintf(&want, "%s,%s,%d,%s\n", s.Name(), s.Kind(), int64(p.T), strconv.FormatFloat(p.V, 'g', -1, 64))
		}
	}
	var live, snap bytes.Buffer
	if err := c.WriteCSV(&live); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&snap, c.Export()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), want.Bytes()) {
		t.Errorf("Collector.WriteCSV differs from the format's definition")
	}
	if !bytes.Equal(snap.Bytes(), want.Bytes()) {
		t.Errorf("WriteCSV(Export()) differs from the format's definition")
	}

	var none bytes.Buffer
	if err := (*Collector)(nil).WriteCSV(&none); err != nil || none.String() != csvHeader+"\n" {
		t.Errorf("nil collector wrote %q, %v; want the header alone", none.String(), err)
	}
}

// TestWriteCSVAllocsO1: the writer allocates its bufio.Writer, one line
// buffer and the series views — no snapshot of the points, nothing per row.
func TestWriteCSVAllocsO1(t *testing.T) {
	c := benchCollector()
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("WriteCSV of 2000 points allocated %.0f times, want O(1)", allocs)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriteCSVReportsWriterError(t *testing.T) {
	c := benchCollector()
	if err := c.WriteCSV(failingWriter{}); err == nil {
		t.Error("Collector.WriteCSV swallowed the writer's error")
	}
	if err := WriteCSV(failingWriter{}, c.Export()); err == nil {
		t.Error("WriteCSV swallowed the writer's error")
	}
}

// TestReadCSVLineLimit: the scanner starts small and grows to csvMaxLine;
// a row just under the limit parses, one over it is an error.
func TestReadCSVLineLimit(t *testing.T) {
	row := func(n int) string {
		const tail = ",bytes,7,42\n"
		return csvHeader + "\n" + strings.Repeat("n", n-len(tail)) + tail
	}
	got, err := ReadCSV(strings.NewReader(row(csvMaxLine - 1)))
	if err != nil {
		t.Fatalf("row just under the limit rejected: %v", err)
	}
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0] != (Point{T: 7, V: 42}) {
		t.Fatalf("row just under the limit parsed as %d series", len(got))
	}
	if _, err := ReadCSV(strings.NewReader(row(csvMaxLine + 64))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("row over the limit: err = %v, want bufio.ErrTooLong", err)
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	c := benchCollector()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
