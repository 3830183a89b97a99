//go:build !race

package recordlayer

const raceEnabled = false
