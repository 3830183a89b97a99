//go:build race

package recordlayer

// raceEnabled: the race detector's sync.Pool drops a quarter of what is put
// back, so allocation counts are not what a normal build makes.
const raceEnabled = true
