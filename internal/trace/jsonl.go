package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// The JSONL interchange format: one event per line, qlog-inspired.
// Field order is fixed by Event.AppendJSON (pinned by
// testdata/events.jsonl and the differential test against
// encoding/json), every field is a plain number or string, and zero
// fields are omitted, so the same event stream always serializes to the
// same bytes — same-seed runs produce byte-identical logs (the
// determinism tests assert this).
//
// Example lines:
//
//	{"t":36000000,"ev":"packet_sent","pn":3,"size":1350,"stream":1}
//	{"t":54012345,"ev":"rtt_sample","rtt":36012345,"srtt":36010000,"min_rtt":36000000,"rttvar":900000}
//	{"t":60000000,"ev":"state_transition","from":"SlowStart","to":"Recovery"}

// AppendJSON appends the event's JSONL line (without the newline) to dst:
// the one write-side encoder, byte for byte what encoding/json produces
// for the same fields with omitempty. A NaN or infinite Cwnd is an error,
// as it is for encoding/json, and leaves dst as it was.
func (e *Event) AppendJSON(dst []byte) ([]byte, error) {
	if math.IsNaN(e.Cwnd) || math.IsInf(e.Cwnd, 0) {
		return dst, fmt.Errorf("trace: %v event at t=%d: unsupported cwnd %v", e.Type, int64(e.T), e.Cwnd)
	}
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(e.T), 10)
	dst = appendJSONString(append(dst, `,"ev":`...), e.Type.String())
	if e.PN != 0 {
		dst = strconv.AppendUint(append(dst, `,"pn":`...), e.PN, 10)
	}
	if e.Size != 0 {
		dst = strconv.AppendInt(append(dst, `,"size":`...), int64(e.Size), 10)
	}
	if e.StreamID != 0 {
		dst = strconv.AppendUint(append(dst, `,"stream":`...), uint64(e.StreamID), 10)
	}
	if e.RTT != 0 {
		dst = strconv.AppendInt(append(dst, `,"rtt":`...), int64(e.RTT), 10)
	}
	if e.SRTT != 0 {
		dst = strconv.AppendInt(append(dst, `,"srtt":`...), int64(e.SRTT), 10)
	}
	if e.MinRTT != 0 {
		dst = strconv.AppendInt(append(dst, `,"min_rtt":`...), int64(e.MinRTT), 10)
	}
	if e.RTTVar != 0 {
		dst = strconv.AppendInt(append(dst, `,"rttvar":`...), int64(e.RTTVar), 10)
	}
	if e.From != "" {
		dst = appendJSONString(append(dst, `,"from":`...), e.From)
	}
	if e.To != "" {
		dst = appendJSONString(append(dst, `,"to":`...), e.To)
	}
	if e.Cwnd != 0 {
		dst = appendJSONFloat(append(dst, `,"cwnd":`...), e.Cwnd)
	}
	if e.Fault != "" {
		dst = appendJSONString(append(dst, `,"fault":`...), e.Fault)
	}
	if e.Reason != "" {
		dst = appendJSONString(append(dst, `,"reason":`...), e.Reason)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does:
// shortest round-trip digits, exponent form only outside [1e-6, 1e21),
// and a two-digit negative exponent trimmed (e-07 becomes e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString quotes s. Every string the transports emit is
// printable ASCII free of the bytes encoding/json escapes (with its HTML
// escaping on) and is copied as is; anything else — a fault description
// such as "delay=1.5µs" — goes through encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// MarshalJSON encodes the event in the JSONL line format.
func (e Event) MarshalJSON() ([]byte, error) {
	return e.AppendJSON(nil)
}

// eventJSON is the decode shape of one JSONL line ("ev" as a name string).
type eventJSON struct {
	T        int64   `json:"t"`
	Ev       string  `json:"ev"`
	PN       uint64  `json:"pn,omitempty"`
	Size     int     `json:"size,omitempty"`
	StreamID uint32  `json:"stream,omitempty"`
	RTT      int64   `json:"rtt,omitempty"`
	SRTT     int64   `json:"srtt,omitempty"`
	MinRTT   int64   `json:"min_rtt,omitempty"`
	RTTVar   int64   `json:"rttvar,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
	Cwnd     float64 `json:"cwnd,omitempty"`
	Fault    string  `json:"fault,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// UnmarshalJSON decodes one JSONL line.
func (e *Event) UnmarshalJSON(data []byte) error {
	var ej eventJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	t, ok := EventTypeByName(ej.Ev)
	if !ok {
		return fmt.Errorf("trace: unknown event type %q", ej.Ev)
	}
	*e = Event{
		T:        time.Duration(ej.T),
		Type:     t,
		PN:       ej.PN,
		Size:     ej.Size,
		StreamID: ej.StreamID,
		RTT:      time.Duration(ej.RTT),
		SRTT:     time.Duration(ej.SRTT),
		MinRTT:   time.Duration(ej.MinRTT),
		RTTVar:   time.Duration(ej.RTTVar),
		From:     ej.From,
		To:       ej.To,
		Cwnd:     ej.Cwnd,
		Fault:    ej.Fault,
		Reason:   ej.Reason,
	}
	return nil
}

// WriteJSONL writes events to w, one JSON object per line. An event that
// cannot be encoded (see AppendJSON) ends the write with its error and no
// part of its line written.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256) // reused for every event
	for i := range events {
		var err error
		if line, err = events[i].AppendJSON(line[:0]); err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL event stream written by WriteJSONL. Blank
// lines are skipped; any malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// WriteJSONL writes the recorder's event log to w (nil-safe; a nil or
// undetailed recorder writes nothing).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WriteJSONL(w, r.Events)
}
