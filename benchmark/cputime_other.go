//go:build !unix

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to wall time where the process's CPU time is not at
// hand; host times are then as noisy as the machine.
func cpuNow() time.Duration { return time.Since(processStart) }
