package peer

// faultStep runs the sequential per-tick fault draws. It sits between
// the accounting and control phases: the data plane has settled, no
// parallel work is in flight, and the control pass that follows will
// observe the damage in the same tick (Inequality (1) lag, stalled
// sub-streams, shrunken partner sets). Running sequentially on the
// world-level fault RNG keeps firings identical at any GOMAXPROCS.
func (w *World) faultStep(dt float64) {
	if w.Faults == nil || w.Faults.Cfg.PartnerKillRate <= 0 {
		return
	}
	// PartnerKillRate is partnerships killed per second; the integer
	// part fires unconditionally, the fractional part as a Bernoulli
	// draw, so the expected kill count is exact at any tick period.
	mean := w.Faults.Cfg.PartnerKillRate * dt
	kills := int(mean)
	if frac := mean - float64(kills); frac > 0 && w.faultRNG.Bool(frac) {
		kills++
	}
	for i := 0; i < kills; i++ {
		w.killRandomPartnership()
	}
}

// killRandomPartnership picks a uniformly random (peer, partner) edge
// among active non-server peers and severs it. Candidate collection
// walks the sorted active-ID snapshot, so the same seed enumerates the
// same candidates in the same order on every run.
func (w *World) killRandomPartnership() {
	cands := w.killScratch[:0]
	for _, id := range w.tickIDs {
		n := w.nodes[id]
		if n.State == StateDeparted || n.IsServer() || len(n.partnerIDs) == 0 {
			continue
		}
		cands = append(cands, id)
	}
	w.killScratch = cands
	if len(cands) == 0 {
		return
	}
	n := w.nodes[cands[w.faultRNG.Intn(len(cands))]]
	pid := n.partnerIDs[w.faultRNG.Intn(len(n.partnerIDs))]
	// Route through the effect-apply path, applied immediately: the
	// fault phase is sequential, so the firing sequence is identical
	// under any shard count.
	w.applyEffect(effect{kind: effKill, src: int32(n.ID), a: int32(pid)}, w.Engine.Now())
}

// severPartnership models an abrupt mid-session connection kill (the
// paper's silent partner departures seen as broken TCP links): both
// ends drop the partnership at once, and any sub-stream flowing over
// the link stalls until fillStalledSubstreams re-subscribes it.
func (w *World) severPartnership(a, b *Node) {
	a.delPartner(b.ID)
	b.delPartner(a.ID)
	a.partnerChanges++
	b.partnerChanges++
	w.Faults.Stats.PartnerKills++
	for j := range a.Subs {
		if a.Subs[j].Parent == b.ID {
			b.removeChild(j, a.ID)
			a.Subs[j].Parent = NoParent
			a.Subs[j].RateBps = 0
		}
		if b.Subs[j].Parent == a.ID {
			a.removeChild(j, b.ID)
			b.Subs[j].Parent = NoParent
			b.Subs[j].RateBps = 0
		}
	}
	// The control pass rescans both nodes' partner sets immediately.
	a.bmDue = 0
	b.bmDue = 0
	w.touchNode(a.ID)
	w.touchNode(b.ID)
}
