// Package fault injects deterministic, virtual-time-scheduled faults into
// the simulated cluster: transient NIC send/fetch failures, notification
// loss, NIC registration-memory exhaustion, and node lifecycle events
// (delayed attach, mid-run detach).
//
// A fault plan (see ParsePlan) paired with a seed yields an Injector.  Every
// injection decision is a pure function of (per-rule seed key, src, dst,
// attempt, virtual now) — no shared RNG stream is consumed — so the same
// plan+seed reproduces identical decisions regardless of host goroutine
// interleaving.  Faults add latency, retries and re-homing work; they never
// lose data, so a faulted run completes with correct results (DEGRADED, not
// FAILED, in the bench harness).
//
// A nil *Injector disables all injection: consumers guard every hook with a
// nil check, so a run without a plan charges exactly what a run under an
// empty plan does (bench.TestFaultsDisabledBitIdentical compares the two
// with ==).
//
// Every injection is recorded once, in stats.Counters (EvFaultsInjected
// plus the per-class event).
package fault

import (
	"cables/internal/sim"
	"cables/internal/stats"
)

// Retry policy constants shared by the VMMC data-plane retry loops.
const (
	// MaxSendRetries bounds transient send/fetch/notify retries; past the
	// cap the operation proceeds (the fault window is treated as over for
	// that operation) so progress is guaranteed.
	MaxSendRetries = 8
	// MaxRegRetries bounds NIC registration-recovery attempts under
	// registration-memory pressure before falling back to remote homing.
	MaxRegRetries = 12
	// backoffBase is the first retry's backoff; attempt n waits
	// backoffBase << n, capped at backoffCap.
	backoffBase = 25 * sim.Microsecond
	backoffCap  = 800 * sim.Microsecond
)

// Backoff returns the exponential backoff delay charged before retry
// attempt (0-based): 25us, 50us, 100us, ... capped at 800us.
func Backoff(attempt int) sim.Time {
	d := backoffBase << uint(attempt)
	if d > backoffCap || d <= 0 {
		return backoffCap
	}
	return d
}

// Injector evaluates a fault plan against a seed; all decision methods are
// deterministic in their arguments.  An injector belongs to one cell, whose
// tasks run one at a time in its scheduler slot, so it needs no lock.
// The zero-value rules: a nil *Injector injects nothing (callers nil-check).
type Injector struct {
	plan Plan
	// keys[i] is rule i's decision-hash key, derived from the seed so that
	// two rules of the same kind fire independently.
	keys []uint64

	ctr *stats.Counters

	// detachSeen[n] flips once when node n's detach is first observed, so
	// the detach counter records exactly once.
	detachSeen []bool
}

// New builds an injector for plan with the given seed.
func New(plan Plan, seed uint64) *Injector {
	rng := sim.NewRNG(seed)
	inj := &Injector{plan: plan, keys: make([]uint64, len(plan.Rules))}
	for i := range inj.keys {
		inj.keys[i] = rng.Uint64()
	}
	inj.detachSeen = make([]bool, plan.MaxNode()+1)
	return inj
}

// BindCounters routes injection counters into ctr (EvFaultsInjected and the
// per-class retry/loss events).  Call once during cluster construction.
func (j *Injector) BindCounters(ctr *stats.Counters) { j.ctr = ctr }

// decide is the deterministic coin flip: rule i fires for (src, dst,
// attempt, now) iff hash(key_i, src, dst, attempt, now) < p.  The hash is
// SplitMix64 over the mixed arguments, matching sim.RNG's output quality.
func (j *Injector) decide(i, src, dst, attempt int, now sim.Time, p float64) bool {
	x := j.keys[i]
	x ^= uint64(src)*0x9E3779B97F4A7C15 + uint64(dst)*0xC2B2AE3D27D4EB4F
	x ^= uint64(attempt)*0x165667B19E3779F9 + uint64(now)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p
}

// note records one injection: bumps EvFaultsInjected and the per-class
// counter ev on node.
func (j *Injector) note(node int, ev stats.Event) {
	if j.ctr != nil {
		j.ctr.Add(node, stats.EvFaultsInjected, 1)
		j.ctr.Add(node, ev, 1)
	}
}

// fail evaluates all rules of kind k (KindSend, KindFetch or KindNotify)
// for an operation from src to dst at instant now, on retry attempt
// (0-based), and counts a failure in the class's retry counter.
func (j *Injector) fail(k RuleKind, src, dst, attempt int, now sim.Time) bool {
	if j == nil {
		return false
	}
	for i := range j.plan.Rules {
		r := &j.plan.Rules[i]
		if r.Kind != k || !r.matches(src, now) {
			continue
		}
		if j.decide(i, src, dst, attempt, now, r.P) {
			ev := stats.EvSendRetries
			switch k {
			case KindFetch:
				ev = stats.EvFetchRetries
			case KindNotify:
				ev = stats.EvNotifyLost
			}
			j.note(src, ev)
			return true
		}
	}
	return false
}

// Retry is the one transient-failure rule of the data path: it returns the
// virtual penalty an operation of class k (KindSend, KindFetch or
// KindNotify) from src to dst at instant now pays before it goes through.
// Each failed attempt, drawn in order from attempt 0, costs a full attempt
// per plus the Backoff before the next; past MaxSendRetries the operation
// proceeds regardless, so faults delay but never lose data.  A nil
// injector returns 0.
func (j *Injector) Retry(k RuleKind, src, dst int, now, per sim.Time) sim.Time {
	var penalty sim.Time
	for a := 0; a < MaxSendRetries && j.fail(k, src, dst, a, now); a++ {
		penalty += per + Backoff(a)
	}
	return penalty
}

// RegReserve returns the NIC registration-memory pressure (bytes reserved by
// a competing consumer) on node at instant now.  The VMMC layer subtracts it
// from the node's effective registered-byte limit.
func (j *Injector) RegReserve(node int, now sim.Time) int64 {
	if j == nil {
		return 0
	}
	var sum int64
	for i := range j.plan.Rules {
		r := &j.plan.Rules[i]
		if r.Kind == KindNICMem && r.matches(node, now) {
			sum += r.Reserve
		}
	}
	return sum
}

// NoteRegRecovery records one completed deregister/re-register recovery
// cycle on node.
func (j *Injector) NoteRegRecovery(node int) {
	if j == nil {
		return
	}
	j.note(node, stats.EvRegRecoveries)
}

// DetachAt returns the virtual instant node detaches, or 0 if the plan
// never detaches it.
func (j *Injector) DetachAt(node int) sim.Time {
	if j == nil {
		return 0
	}
	for i := range j.plan.Rules {
		r := &j.plan.Rules[i]
		if r.Kind == KindDetach && r.Node == node {
			return r.From
		}
	}
	return 0
}

// Detached reports whether node has detached by virtual instant now.  The
// first observation records the detach in the counters.
func (j *Injector) Detached(node int, now sim.Time) bool {
	if j == nil {
		return false
	}
	at := j.DetachAt(node)
	if at == 0 || now < at {
		return false
	}
	if node < len(j.detachSeen) && !j.detachSeen[node] {
		j.detachSeen[node] = true
		j.note(node, stats.EvNodeDetaches)
	}
	return true
}

// AttachDelay returns the extra virtual latency the plan imposes on node's
// attach, recording the injection if non-zero.
func (j *Injector) AttachDelay(node int) sim.Time {
	if j == nil {
		return 0
	}
	var d sim.Time
	for i := range j.plan.Rules {
		r := &j.plan.Rules[i]
		if r.Kind == KindAttach && r.Node == node {
			d += r.Delay
		}
	}
	if d > 0 {
		j.note(node, stats.EvAttachDelays)
	}
	return d
}

// NoteRehome records protocol state (a lock, barrier or page) re-homing
// from a detached node to node, or home placement on node giving up under
// registration-memory pressure.  The caller bumps the specific
// EvLockRehomes/EvBarrierRehomes/EvPageRehomes counter, if any; this adds
// EvFaultsInjected.
func (j *Injector) NoteRehome(node int) {
	if j == nil {
		return
	}
	if j.ctr != nil {
		j.ctr.Add(node, stats.EvFaultsInjected, 1)
	}
}
