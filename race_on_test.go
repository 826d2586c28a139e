//go:build race

package morpheus_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
