package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// CSV serialization for report bundles. One flat file per cell with a
// fixed header and one row per point:
//
//	series,kind,t_ns,value
//	cc.cwnd_bytes,bytes,12000000,29200
//
// Series appear in registration order and points in time order, so the
// bytes are deterministic for a deterministic run. Values use Go's
// shortest round-trip float formatting ('g', -1), so ReadCSV(WriteCSV(x))
// reproduces every sample exactly.

const csvHeader = "series,kind,t_ns,value"

// csvMaxLine is the longest row ReadCSV accepts.
const csvMaxLine = 1 << 20

// WriteCSV writes every registered series as CSV, straight from the live
// rings (no snapshot of the points is taken; nothing records while a cell
// is written).
func (c *Collector) WriteCSV(w io.Writer) error {
	return WriteCSV(w, c.Live())
}

// WriteCSV writes the given series snapshots as CSV. Rows are formatted
// into one reused line buffer whose "name,kind," prefix is built once per
// series; bufio keeps the first write error and Flush reports it.
func WriteCSV(w io.Writer, series []SeriesData) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(csvHeader + "\n")
	line := make([]byte, 0, 128)
	for _, sd := range series {
		kind := sd.KindName
		if kind == "" {
			kind = sd.Kind.String()
		}
		line = append(line[:0], sd.Name...)
		line = append(line, ',')
		line = append(line, kind...)
		line = append(line, ',')
		prefix := len(line)
		for _, p := range sd.Points {
			line = strconv.AppendInt(line[:prefix], int64(p.T), 10)
			line = append(line, ',')
			line = strconv.AppendFloat(line, p.V, 'g', -1, 64)
			line = append(line, '\n')
			bw.Write(line)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a WriteCSV stream back into series snapshots,
// preserving series order of first appearance and point order. The
// ring-buffer metadata (cadence, downsample count) is not carried in
// the CSV; readers that need it use the bundle's summary JSON.
func ReadCSV(r io.Reader) ([]SeriesData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), csvMaxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("metrics: empty CSV")
	}
	if got := sc.Text(); got != csvHeader {
		return nil, fmt.Errorf("metrics: bad CSV header %q", got)
	}
	var out []SeriesData
	index := map[string]int{}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("metrics: CSV line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		name := fields[0]
		tns, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: CSV line %d: bad t_ns %q", lineNo, fields[2])
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: CSV line %d: bad value %q", lineNo, fields[3])
		}
		i, ok := index[name]
		if !ok {
			kind, kok := KindByName(fields[1])
			if !kok {
				return nil, fmt.Errorf("metrics: CSV line %d: unknown kind %q", lineNo, fields[1])
			}
			i = len(out)
			index[name] = i
			out = append(out, SeriesData{Name: name, Kind: kind, KindName: fields[1]})
		}
		out[i].Points = append(out[i].Points, Point{T: time.Duration(tns), V: v})
	}
	return out, sc.Err()
}
