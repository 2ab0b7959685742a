//go:build !race

package netem

const raceDetectorEnabled = false
