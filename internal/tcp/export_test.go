package tcp

import (
	"fmt"

	"quiclab/internal/wire"
)

// CheckScoreboard verifies the sender scoreboard's invariants: strictly
// ascending in seq, and bytes-in-flight == Σ(end-seq) over it (so no dead
// entry can sit in it).
func (c *Conn) CheckScoreboard() error {
	sum, live := 0, c.sb.live()
	for i, ss := range live {
		if i > 0 && live[i-1].seq >= ss.seq {
			return fmt.Errorf("scoreboard[%d].seq = %d after %d: not strictly ascending", i, ss.seq, live[i-1].seq)
		}
		sum += int(ss.end - ss.seq)
	}
	if sum != c.outBytes {
		return fmt.Errorf("outBytes = %d, Σ(end-seq) over %d scoreboard entries = %d", c.outBytes, len(live), sum)
	}
	return nil
}

// SetAckRecvHook installs fn on the dbgAckRecv hook (every ack a
// server-side connection processes) for tests outside the package; nil
// removes it.
func SetAckRecvHook(fn func(c *Conn)) {
	dbgAckRecv = nil
	if fn != nil {
		dbgAckRecv = func(c *Conn, _ *wire.TCPSegment) { fn(c) }
	}
}
