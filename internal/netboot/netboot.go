// Package netboot is the boot-strap/tracker service for networked
// peers (§III-B): nodes register their listen address on join, renew
// the resulting lease while alive, deregister on leave, and newcomers
// fetch a random partial list of live candidates — the role the
// deployment's boot-strap node and web portal played.
//
// The service core is the sharded lease Registry (registry.go); the
// binary TCP tracker (tcp.go, wire.go) is its one endpoint, and
// TCPClient the one client.
package netboot

import "math"

// Entry is one registered peer.
type Entry struct {
	ID   int32
	Addr string
}

// ExcludeNone asks Candidates to exclude nobody. It is outside the ID
// range any peer uses, so no default can silently exclude a real peer
// (0 is the source, typically).
const ExcludeNone int32 = math.MinInt32
