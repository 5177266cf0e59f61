//go:build !race

package hybridpart

// raceEnabled reports a -race build.
const raceEnabled = false
