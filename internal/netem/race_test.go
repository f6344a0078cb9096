//go:build race

package netem

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops items at random and every goroutine hand-off is slower.
const raceEnabled = true
