//go:build race

package node

// raceDetectorEnabled reports whether this build runs under the race
// detector, whose sync.Pool drops what it is given at random, so
// allocation counts do not hold under it.
const raceDetectorEnabled = true
