//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of what is put back: allocation counts then measure the detector.
const raceEnabled = true
