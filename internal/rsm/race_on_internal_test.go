//go:build race

package rsm

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
