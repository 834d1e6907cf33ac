//go:build race

package netpeer

// raceEnabled reports that the race detector is on: its runtime
// allocates on its own account, so malloc-count assertions skip.
const raceEnabled = true
