//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuNow is the CPU time this process has used so far, user and system,
// over all its threads. Differences of it time the benchmark's work:
// unlike wall time it does not count the stretches a shared machine gave
// the processor to someone else.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad argument
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
