// Package faults is a small injectable failure-point registry: named
// sites in production code call Check/Mutate, which are no-ops until a
// test or chaos harness enables a Plan — a deterministic schedule of
// fault rules (every Nth hit, optionally capped; errors, panics,
// payload corruption).
//
// Cost when disabled: one atomic pointer load per site hit — no
// allocation, no lock — so sites can sit on paths that care about
// performance. The scheduler's inner loops carry no sites at all; only
// the batch engine's compute path and the disk store's open/read/write
// paths are instrumented.
//
// Enabling a plan is process-wide. Tests that enable one must Disable
// it before finishing (t.Cleanup) and must not run in parallel with
// tests that expect a fault-free process.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Site names one instrumented failure point.
type Site string

// The instrumented sites. A Rule naming any other site is legal (the
// registry is open) but will never fire until code calls hooks with
// that name.
const (
	// DiskOpen guards store.OpenDisk's directory creation.
	DiskOpen Site = "store.disk.open"
	// DiskRead guards the disk tier's entry reads.
	DiskRead Site = "store.disk.read"
	// DiskWrite guards the disk tier's entry writes; Corrupt rules here
	// produce torn entries that the read-side verification must reject.
	DiskWrite Site = "store.disk.write"
	// BatchCompute guards the batch worker's compute path, inside the
	// panic-recovery perimeter — Panic rules here exercise quarantine.
	BatchCompute Site = "batch.compute"
)

// Rule is one injected failure. A rule fires on every Every-th hit at
// its site until Limit is exhausted (Every: n, Limit: 1 fires on
// exactly the nth hit); its effect is then Panic, or Corrupt/Err.
type Rule struct {
	Site Site

	// Every fires on every Every-th hit at the site. 0 disables.
	Every int
	// Limit caps the rule's total fires; 0 means unlimited.
	Limit int

	// Err is returned by Check/Mutate when the rule fires.
	Err error
	// Panic, when non-empty, makes the hook panic instead of returning —
	// the injected value identifies itself as a fault.
	Panic string
	// Corrupt, at data sites (Mutate), mutilates the payload instead of
	// failing the operation: the write "succeeds" torn.
	Corrupt bool
}

type ruleState struct {
	Rule
	fires int
}

// Plan is one deterministic fault schedule: a rule fires on hit counts
// at its site. Under concurrent hits, which caller receives the nth hit
// follows the goroutine interleaving.
type Plan struct {
	mu     sync.Mutex
	bySite map[Site][]*ruleState
	hits   map[Site]uint64
	fires  map[Site]uint64
}

// NewPlan builds a plan from the rules.
func NewPlan(rules ...Rule) *Plan {
	p := &Plan{
		bySite: make(map[Site][]*ruleState),
		hits:   make(map[Site]uint64),
		fires:  make(map[Site]uint64),
	}
	for _, r := range rules {
		p.bySite[r.Site] = append(p.bySite[r.Site], &ruleState{Rule: r})
	}
	return p
}

// Hits returns how many times the site has been reached.
func (p *Plan) Hits(site Site) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// Fires returns how many injections actually triggered at the site.
func (p *Plan) Fires(site Site) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fires[site]
}

// TotalFires returns the number of injections across all sites.
func (p *Plan) TotalFires() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, f := range p.fires {
		n += f
	}
	return n
}

// active is the process-wide enabled plan; nil means every hook is a
// no-op after a single atomic load.
var active atomic.Pointer[Plan]

// Enable installs the plan process-wide. Passing nil disables.
func Enable(p *Plan) { active.Store(p) }

// Disable removes the active plan; all hooks return to no-ops.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Check consults the active plan at site: nil when disabled or no rule
// fires, the rule's error otherwise. Panic rules panic here.
func Check(site Site) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	_, err := p.apply(site, nil)
	return err
}

// Mutate is the data-site hook: it returns the payload to actually use
// (possibly mutilated by a Corrupt rule) or an error. When disabled it
// returns data unchanged.
func Mutate(site Site, data []byte) ([]byte, error) {
	p := active.Load()
	if p == nil {
		return data, nil
	}
	return p.apply(site, data)
}

// apply counts the hit, selects at most one firing rule, and applies
// its effects.
func (p *Plan) apply(site Site, data []byte) ([]byte, error) {
	p.mu.Lock()
	p.hits[site]++
	n := p.hits[site]
	var fired *Rule
	for _, rs := range p.bySite[site] {
		if rs.Limit > 0 && rs.fires >= rs.Limit {
			continue
		}
		if rs.Every > 0 && n%uint64(rs.Every) == 0 {
			rs.fires++
			p.fires[site]++
			fired = &rs.Rule
			break
		}
	}
	p.mu.Unlock()
	if fired == nil {
		return data, nil
	}
	if fired.Panic != "" {
		panic(fmt.Sprintf("faults: injected panic at %s: %s", site, fired.Panic))
	}
	if fired.Corrupt && data != nil {
		return mutilate(data), fired.Err
	}
	return data, fired.Err
}

// mutilate simulates a torn write: the payload's first half survives,
// followed by garbage — never valid JSON, so read-side verification
// must reject it.
func mutilate(data []byte) []byte {
	out := append([]byte(nil), data[:len(data)/2]...)
	return append(out, "\x00torn-write"...)
}
