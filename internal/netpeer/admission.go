// Admission control (flash-crowd survival, §VI): the peer-side rungs
// of the overload-degradation ladder. A node protects what it already
// serves before it takes on more:
//
//   - the accept loop sheds handshakes past MaxPendingHandshakes
//     before spending a goroutine on them;
//   - a full partner set answers PartnerRequest with reject-with-
//     alternates — a redirect into the mCache, not a dead end;
//   - the pusher pool refuses subscriptions past UploadSlots with an
//     Unsubscribe notice so the child re-plans immediately.
//
// The tracker's rung (adaptive shedding with retry-after hints) lives
// in internal/netboot; the join engine (join.go) consumes both.
package netpeer

import (
	"fmt"
	"slices"
	"sync/atomic"

	"coolstream/internal/protocol"
)

// RejectedError is Connect's outcome when the remote peer answered the
// handshake with an admission reject. Alternates carries the candidate
// peers the rejecting node suggested instead (possibly empty); they are
// already merged into this node's mCache.
type RejectedError struct {
	Peer       int32
	Alternates []protocol.PeerEntry
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("netpeer: partner %d full (%d alternates)", e.Peer, len(e.Alternates))
}

// admissionStats are the admission-control counters, atomics for the
// same reason as netStats: the accept loop and pushers must not take
// n.mu to account a shed.
type admissionStats struct {
	handshakesShed     atomic.Uint64
	partnersRejected   atomic.Uint64
	partnersAdmitted   atomic.Uint64
	rejectsReceived    atomic.Uint64
	subscribesRejected atomic.Uint64
}

// AdmissionStats is a snapshot of a node's admission counters.
type AdmissionStats struct {
	// HandshakesShed counts inbound connections dropped by the
	// pending-handshake bound before any protocol work.
	HandshakesShed uint64
	// PartnersRejected counts inbound handshakes refused by the
	// MaxPartners cap (each carried alternates when the mCache had any).
	PartnersRejected uint64
	// PartnersAdmitted counts inbound handshakes that registered.
	PartnersAdmitted uint64
	// RejectsReceived counts this node's own Connects refused by a full
	// remote peer.
	RejectsReceived uint64
	// SubscribesRejected counts subscriptions refused by the
	// UploadSlots cap.
	SubscribesRejected uint64
}

// Admission returns a snapshot of the node's admission counters.
func (n *Node) Admission() AdmissionStats {
	return AdmissionStats{
		HandshakesShed:     n.adm.handshakesShed.Load(),
		PartnersRejected:   n.adm.partnersRejected.Load(),
		PartnersAdmitted:   n.adm.partnersAdmitted.Load(),
		RejectsReceived:    n.adm.rejectsReceived.Load(),
		SubscribesRejected: n.adm.subscribesRejected.Load(),
	}
}

// reservePartnerSlot decides inbound partner admission BEFORE the
// accept frame is sent: it counts live conns plus in-flight reserved
// handshakes against MaxPartners, so two concurrent handshakes cannot
// both squeeze through the last slot. An existing partnership with the
// same peer is exempt — its conn would be replaced, not added. The
// reservation is released by register (success or not) or
// releasePartnerSlot (send failure).
func (n *Node) reservePartnerSlot(peer int32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	if n.cfg.MaxPartners > 0 {
		if _, dup := n.conns[peer]; !dup && len(n.conns)+n.hsReserved >= n.cfg.MaxPartners {
			return false
		}
	}
	n.hsReserved++
	return true
}

// releasePartnerSlot returns a reservation that never reached register.
func (n *Node) releasePartnerSlot() {
	n.mu.Lock()
	n.hsReserved--
	n.mu.Unlock()
}

// rejectAlternates builds the candidate list attached to an admission
// reject: up to RejectAlternates mCache entries, excluding the
// requester and ourselves, in sorted-ID order (deterministic for the
// wire tests; the joiner shuffles its own dial order anyway).
func (n *Node) rejectAlternates(requester int32) []protocol.PeerEntry {
	want := n.cfg.RejectAlternates
	if want <= 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]int32, 0, len(n.mcache))
	for id := range n.mcache {
		if id == requester || id == n.cfg.ID {
			continue
		}
		if e := n.mcache[id]; e.addr == "" || e.addr == n.selfAddr {
			continue
		}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if len(ids) > want {
		ids = ids[:want]
	}
	entries := make([]protocol.PeerEntry, 0, len(ids))
	for _, id := range ids {
		entries = append(entries, protocol.PeerEntry{ID: id, Addr: n.mcache[id].addr})
	}
	return entries
}

// PlaybackStats returns the raw on-time/due block counters behind
// Continuity. The surge harness snapshots them before a join storm and
// again after, so established-peer continuity can be measured over the
// storm window alone instead of diluted across the whole run.
func (n *Node) PlaybackStats() (onTime, total int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.onTime, n.total
}
