//go:build race

package netem

// raceDetectorEnabled lets allocation pins on pooled paths skip under the
// race detector, where sync.Pool deliberately drops a quarter of all Puts.
const raceDetectorEnabled = true
