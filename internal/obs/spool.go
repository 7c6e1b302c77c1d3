package obs

import (
	"bytes"
	"io"
	"os"
)

// Spool accumulates one ledger section (cell records or timing records)
// outside the producing process's heap: it is a Ledger over a temporary
// file, streamed into the real ledger in one copy when the section is
// complete. A sweep engine can therefore emit its per-cell records
// incrementally — memory stays proportional to the in-flight cells, not
// the sweep size — while the ledger keeps its all-cells-then-all-timings
// block layout and its byte-for-byte determinism.
//
// When the temporary file cannot be created the spool degrades to an
// in-memory buffer: correctness and ledger bytes are unchanged, only the
// constant-memory property is lost.
type Spool struct {
	*Ledger              // a non-nil Err means an incomplete section: do not copy it
	f       *os.File     // the temp file; nil when memory-backed
	mem     bytes.Buffer // the section, when no temp file could be created
}

// NewSpool creates a spool backed by a temp file matching pattern (an
// os.CreateTemp pattern), falling back to an in-memory buffer when the
// file cannot be created. Call Close to release the file.
func NewSpool(pattern string) *Spool {
	s := &Spool{}
	if f, err := os.CreateTemp("", pattern); err == nil {
		s.f, s.Ledger = f, NewLedger(f)
	} else {
		s.Ledger = NewLedger(&s.mem)
	}
	return s
}

// CopyTo streams the spooled section into l, preserving record order and
// bytes; if l is already in its sticky error state or the copy fails, the
// section's records count as lost in l. The spool is single-use: call
// CopyTo at most once, then Close.
func (s *Spool) CopyTo(l *Ledger) error {
	if err := s.Ledger.Close(); err != nil { // flushes; the file stays open
		return err
	}
	var r io.Reader = &s.mem
	if s.f != nil {
		if _, err := s.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r = s.f
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		_, l.err = io.Copy(l.w, r)
	}
	if l.err != nil {
		l.errCnt += s.Records()
	}
	return l.err
}

// Close releases the spool, removing its temp file. Safe to call on any
// spool, copied or discarded.
func (s *Spool) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	if rmErr := os.Remove(s.f.Name()); err == nil {
		err = rmErr
	}
	s.f = nil
	return err
}
