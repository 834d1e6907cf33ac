//go:build race

package peer

// raceEnabled reports that the race detector is on: its runtime
// allocates on its own account, so malloc-count assertions skip.
const raceEnabled = true
