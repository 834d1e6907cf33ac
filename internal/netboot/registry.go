// The sharded, lease-based peer registry — the core behind the binary
// TCP tracker (tcp.go).
//
// The original tracker was a single map behind a single mutex, with
// two production bugs the chaos harness exposed at scale:
//
//   - crashed peers stayed registered forever: Abort() sends no Leave,
//     so /candidates kept handing out dead addresses indefinitely;
//   - every candidates query sorted and shuffled the ENTIRE registry
//     under the global lock — O(N log N) per request, serialized across
//     all requests, which collapses exactly at the paper's 40k evening
//     peak.
//
// This registry fixes both structurally:
//
//   - Leases: Register grants a TTL lease and re-Register renews it.
//     A peer that dies silently simply stops renewing; its lease
//     lapses, candidate sampling skips it immediately (the expiry is
//     checked per returned entry), and the next sweep reclaims the
//     memory. Liveness is a property of the data, not of a cleanup
//     protocol the crashed peer was supposed to run.
//   - Sharding: peers hash to one of S shards (splitmix64 finalizer,
//     the same stable hash the sharded fluid engine uses for its
//     node→shard assignment) with per-shard locks, so registrations
//     and renewals contend only within a shard. Count is an O(S) fold
//     of per-shard counters.
//   - Epoch snapshots: each shard keeps a compact immutable slice of
//     its leases, rebuilt only when the shard's membership version
//     bumps (join/leave/address change — NOT renewals, which only
//     touch the lease's atomic expiry). Candidate queries sample from
//     the snapshots without sorting, without holding any write lock,
//     and without touching the maps at all.
//
// Renewal is therefore the hot path by design: one shard-lock map hit
// plus one atomic store, no version bump, no snapshot invalidation.
package netboot

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coolstream/internal/xrand"
)

// Registry limits and defaults.
const (
	// DefaultLeaseTTL is the lease granted per Register when the config
	// does not override it.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultCandidates is the candidate count when a query asks for
	// n <= 0.
	DefaultCandidates = 10
	// DefaultMaxCandidates caps one query's result server-side: a single
	// request must not be able to serialize the whole registry.
	DefaultMaxCandidates = 64
	// MaxAddrBytes bounds one registered address; anything longer is
	// abuse, not an address.
	MaxAddrBytes = 256
)

// Registry errors, distinguishable with errors.Is.
var (
	// ErrOwnerLimit rejects a registration that would exceed the
	// per-owner (per-IP) bound.
	ErrOwnerLimit = errors.New("netboot: per-owner registration limit reached")
	// ErrBadAddr rejects an empty or oversized address.
	ErrBadAddr = errors.New("netboot: bad addr")
)

// RegistryConfig sizes a Registry. The zero value selects production
// defaults (8 shards, 30 s leases, 64-candidate clamp, no per-owner
// bound).
type RegistryConfig struct {
	// Shards is the shard count (default 8). More shards mean less
	// write contention; Count stays O(Shards).
	Shards int
	// LeaseTTL is the lease granted per Register/renewal. 0 selects
	// DefaultLeaseTTL; negative disables expiry (entries live until
	// Leave — the pre-lease behaviour, for tests that need it).
	LeaseTTL time.Duration
	// MaxCandidates clamps one query's n server-side (default
	// DefaultMaxCandidates).
	MaxCandidates int
	// MaxPerOwner bounds live registrations per owner key (the
	// registrant's IP on both server paths). 0 = unbounded.
	MaxPerOwner int
	// Seed drives candidate sampling.
	Seed uint64
	// Clock overrides the time source (tests pin lease expiry).
	Clock func() time.Time
}

// lease is one registered peer. The addr and owner are immutable — a
// re-registration under a new address replaces the lease object — so
// snapshot readers may use them without locks; only the expiry mutates,
// atomically, on renewal.
type lease struct {
	id      int32
	addr    string
	owner   string
	expires atomic.Int64 // UnixNano; math.MaxInt64 when expiry is disabled
}

// regSnapshot is one shard's immutable lease slice at a membership
// version.
type regSnapshot struct {
	version uint64
	leases  []*lease
}

// regShard is one lock domain of the registry.
type regShard struct {
	mu      sync.Mutex
	peers   map[int32]*lease
	version atomic.Uint64 // bumped on join/leave/addr change, not renewal
	live    atomic.Int64  // len(peers); expired-but-unswept entries included

	snapMu sync.Mutex // serializes snapshot rebuilds
	snap   atomic.Pointer[regSnapshot]
}

// Registry is the sharded lease registry.
type Registry struct {
	cfg     RegistryConfig
	shards  []*regShard
	queries atomic.Uint64 // per-query sampling stream derivation
	shed    atomic.Pointer[shedState]

	ownerMu sync.Mutex
	owners  map[string]int
}

// NewRegistry builds a registry from cfg (zero value = defaults).
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = DefaultMaxCandidates
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Registry{cfg: cfg, shards: make([]*regShard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i] = &regShard{peers: make(map[int32]*lease)}
	}
	if cfg.MaxPerOwner > 0 {
		r.owners = make(map[string]int)
	}
	return r
}

// splitmix64 is the finalizer mix used repo-wide for stable ID→shard
// assignment (Steele et al., OOPSLA 2014).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *Registry) shardFor(id int32) *regShard {
	return r.shards[splitmix64(uint64(uint32(id)))%uint64(len(r.shards))]
}

// LeaseTTL returns the configured lease duration (0 when expiry is
// disabled).
func (r *Registry) LeaseTTL() time.Duration {
	if r.cfg.LeaseTTL < 0 {
		return 0
	}
	return r.cfg.LeaseTTL
}

// MaxCandidates returns the server-side clamp on one query's n.
func (r *Registry) MaxCandidates() int { return r.cfg.MaxCandidates }

func (r *Registry) expiryAt(now time.Time) int64 {
	if r.cfg.LeaseTTL < 0 {
		return math.MaxInt64
	}
	return now.Add(r.cfg.LeaseTTL).UnixNano()
}

// ownerInc reserves one registration slot for owner (no-op when the
// bound is off). Callers may hold a shard lock; the owner lock is
// strictly innermost.
func (r *Registry) ownerInc(owner string) error {
	if r.owners == nil || owner == "" {
		return nil
	}
	r.ownerMu.Lock()
	defer r.ownerMu.Unlock()
	if r.owners[owner] >= r.cfg.MaxPerOwner {
		return fmt.Errorf("%w (%q at %d)", ErrOwnerLimit, owner, r.cfg.MaxPerOwner)
	}
	r.owners[owner]++
	return nil
}

func (r *Registry) ownerDec(owner string) {
	if r.owners == nil || owner == "" {
		return
	}
	r.ownerMu.Lock()
	if r.owners[owner] > 1 {
		r.owners[owner]--
	} else {
		delete(r.owners, owner)
	}
	r.ownerMu.Unlock()
}

// Register grants (or renews) id's lease at addr and returns the lease
// duration. owner keys the per-IP bound ("" = exempt). Renewing with an
// unchanged address is the hot path: one atomic expiry store, no
// membership version bump, no snapshot invalidation.
func (r *Registry) Register(id int32, addr, owner string) (time.Duration, error) {
	if addr == "" || len(addr) > MaxAddrBytes {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadAddr, len(addr))
	}
	exp := r.expiryAt(r.cfg.Clock())
	sh := r.shardFor(id)
	sh.mu.Lock()
	if l, ok := sh.peers[id]; ok {
		if l.addr == addr {
			l.expires.Store(exp) // renewal
			sh.mu.Unlock()
			return r.LeaseTTL(), nil
		}
		// Address change: replace the lease object so snapshot readers
		// never observe a mutating addr.
		delete(sh.peers, id)
		sh.live.Add(-1)
		sh.version.Add(1)
		r.ownerDec(l.owner)
	}
	if err := r.ownerInc(owner); err != nil {
		sh.mu.Unlock()
		return 0, err
	}
	l := &lease{id: id, addr: addr, owner: owner}
	l.expires.Store(exp)
	sh.peers[id] = l
	sh.live.Add(1)
	sh.version.Add(1)
	sh.mu.Unlock()
	return r.LeaseTTL(), nil
}

// Leave removes id's registration (graceful departure).
func (r *Registry) Leave(id int32) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	if l, ok := sh.peers[id]; ok {
		delete(sh.peers, id)
		sh.live.Add(-1)
		sh.version.Add(1)
		r.ownerDec(l.owner)
	}
	sh.mu.Unlock()
}

// Count returns the registered-peer count as an O(shards) fold. It may
// transiently include expired leases not yet reclaimed by Sweep;
// candidate queries never return them regardless.
func (r *Registry) Count() int {
	var n int64
	for _, sh := range r.shards {
		n += sh.live.Load()
	}
	return int(n)
}

// Sweep reclaims expired leases and returns how many it evicted.
// Servers run it periodically; correctness never depends on it —
// sampling checks every lease's expiry — it only bounds memory and
// keeps Count honest.
func (r *Registry) Sweep() int {
	if r.cfg.LeaseTTL < 0 {
		return 0
	}
	now := r.cfg.Clock().UnixNano()
	evicted := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		changed := false
		for id, l := range sh.peers {
			if l.expires.Load() <= now {
				delete(sh.peers, id)
				sh.live.Add(-1)
				r.ownerDec(l.owner)
				changed = true
				evicted++
			}
		}
		if changed {
			sh.version.Add(1)
		}
		sh.mu.Unlock()
	}
	return evicted
}

// snapshot returns the shard's lease slice for its current membership
// version, rebuilding it only when the version moved. Readers get an
// immutable slice; the only mutable state they touch afterwards is each
// lease's atomic expiry.
func (sh *regShard) snapshot() *regSnapshot {
	if s := sh.snap.Load(); s != nil && s.version == sh.version.Load() {
		return s
	}
	sh.snapMu.Lock()
	defer sh.snapMu.Unlock()
	if s := sh.snap.Load(); s != nil && s.version == sh.version.Load() {
		return s
	}
	sh.mu.Lock()
	v := sh.version.Load() // stable: bumps happen under sh.mu
	leases := make([]*lease, 0, len(sh.peers))
	for _, l := range sh.peers {
		leases = append(leases, l)
	}
	sh.mu.Unlock()
	s := &regSnapshot{version: v, leases: leases}
	sh.snap.Store(s)
	return s
}

// Candidates returns up to n random live peers, excluding one ID. n is
// clamped to the configured maximum; n <= 0 selects the default. Only
// unexpired leases are returned — a crashed peer drops out of the
// candidate set the moment its lease lapses, swept or not.
//
// Large registries are sampled by random probing into the epoch
// snapshots (O(n) expected, no sorting, no locks); small ones by a
// single reservoir pass. Neither path blocks writers.
func (r *Registry) Candidates(n int, exclude int32) []Entry {
	if n <= 0 {
		n = DefaultCandidates
	}
	if n > r.cfg.MaxCandidates {
		n = r.cfg.MaxCandidates
	}
	now := r.cfg.Clock().UnixNano()
	snaps := make([]*regSnapshot, len(r.shards))
	total := 0
	for i, sh := range r.shards {
		snaps[i] = sh.snapshot()
		total += len(snaps[i].leases)
	}
	out := make([]Entry, 0, min(n, total))
	if total == 0 {
		return out
	}
	rng := xrand.New(r.cfg.Seed ^ splitmix64(r.queries.Add(1)))

	if total <= 4*n {
		// Small registry: one reservoir pass over the snapshots.
		live := 0
		for _, s := range snaps {
			for _, l := range s.leases {
				if l.id == exclude || l.expires.Load() <= now {
					continue
				}
				live++
				if len(out) < n {
					out = append(out, Entry{ID: l.id, Addr: l.addr})
				} else if j := rng.Intn(live); j < n {
					out[j] = Entry{ID: l.id, Addr: l.addr}
				}
			}
		}
		return out
	}

	// Large registry: probe random snapshot positions. n is clamped
	// small, so linear duplicate checks beat a map.
	for attempts := 6*n + 16; attempts > 0 && len(out) < n; attempts-- {
		idx := rng.Intn(total)
		var l *lease
		for _, s := range snaps {
			if idx < len(s.leases) {
				l = s.leases[idx]
				break
			}
			idx -= len(s.leases)
		}
		if l.id == exclude || l.expires.Load() <= now {
			continue
		}
		if !containsID(out, l.id) {
			out = append(out, Entry{ID: l.id, Addr: l.addr})
		}
	}
	if len(out) < n {
		// Probe budget exhausted (heavy expiry or pathological luck):
		// finish with a scan so callers still get everything available.
		for _, s := range snaps {
			for _, l := range s.leases {
				if len(out) >= n {
					return out
				}
				if l.id == exclude || l.expires.Load() <= now || containsID(out, l.id) {
					continue
				}
				out = append(out, Entry{ID: l.id, Addr: l.addr})
			}
		}
	}
	return out
}

func containsID(es []Entry, id int32) bool {
	for i := range es {
		if es[i].ID == id {
			return true
		}
	}
	return false
}
