//go:build !race

package check

const raceDetectorEnabled = false
