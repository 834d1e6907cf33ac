//go:build !race

package netpeer

const raceEnabled = false
