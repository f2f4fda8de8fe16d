//go:build !race

package node

// raceDetectorEnabled reports whether this build runs under the race
// detector.
const raceDetectorEnabled = false
