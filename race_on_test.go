//go:build race

package hybridpart

// raceEnabled reports a -race build. Its sync.Pool drops a random quarter
// of Puts, so allocation counts of pooled paths vary from run to run.
const raceEnabled = true
