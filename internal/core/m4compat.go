package cables

import (
	"fmt"

	"cables/internal/apps/appapi"
	"cables/internal/fault"
	"cables/internal/memsys"
	"cables/internal/nodeos"
	"cables/internal/sim"
	"cables/internal/wire"
)

// M4Runtime adapts CableS to the appapi.Runtime interface: it is the
// paper's "implementation of the M4 macros for our pthreads system" used to
// run the SPLASH-2 applications on CableS (Figure 5's dashed lines).
// Workers are pthreads; nodes attach dynamically as threads are created;
// BARRIER maps to the pthread_barrier extension; G_MALLOC maps to the
// dynamic shared-memory allocator with map-unit first-touch placement.
type M4Runtime struct {
	rt    *Runtime
	procs int

	threads map[int]*Thread
	nextID  int
	mutexes map[int]*Mutex
}

// M4Config shapes an M4-on-CableS run.
type M4Config struct {
	Procs        int
	ProcsPerNode int
	ArenaBytes   int64
	Costs        *sim.Costs
	// Placement optionally overrides the allocator's home policy.
	Placement string
	// Fault optionally injects deterministic faults (see internal/fault).
	Fault *fault.Injector
	// Wire selects the wire plane's opt-in mode.
	Wire wire.Options
	// Protocol names the coherence policy (coherence.Names); empty
	// selects genima.
	Protocol string
}

// NewM4 builds the CableS backend for a P-processor run.
func NewM4(cfg M4Config) *M4Runtime {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("cables: invalid processor count %d", cfg.Procs))
	}
	if cfg.ProcsPerNode <= 0 {
		cfg.ProcsPerNode = 2
	}
	nodes := (cfg.Procs + cfg.ProcsPerNode - 1) / cfg.ProcsPerNode
	rt := New(Config{
		MaxNodes:        nodes,
		ProcsPerNode:    cfg.ProcsPerNode,
		ArenaBytes:      cfg.ArenaBytes,
		Costs:           cfg.Costs,
		Placement:       cfg.Placement,
		CoordinatorMain: true,
		Fault:           cfg.Fault,
		Wire:            cfg.Wire,
		Protocol:        cfg.Protocol,
	})
	rt.Start()
	return &M4Runtime{
		rt:      rt,
		procs:   cfg.Procs,
		threads: make(map[int]*Thread),
		mutexes: make(map[int]*Mutex),
	}
}

// BackendName implements appapi.Name.
func (m *M4Runtime) BackendName() string { return "cables" }

// Cluster implements appapi.Runtime.
func (m *M4Runtime) Cluster() *nodeos.Cluster { return m.rt.cl }

// Main implements appapi.Runtime.
func (m *M4Runtime) Main() *sim.Task { return m.rt.main.Task }

// Procs implements appapi.Runtime.
func (m *M4Runtime) Procs() int { return m.procs }

// Acc implements appapi.Runtime.
func (m *M4Runtime) Acc() *memsys.Accessor { return m.rt.Acc() }

// Spawn implements appapi.Runtime (the CREATE macro via pthread_create).
func (m *M4Runtime) Spawn(parent *sim.Task, fn func(t *sim.Task)) int {
	th := m.rt.Create(parent, func(th *Thread) { fn(th.Task) })
	m.nextID++
	id := m.nextID
	m.threads[id] = th
	return id
}

// Join implements appapi.Runtime (WAIT_FOR_END via pthread_join).
func (m *M4Runtime) Join(parent *sim.Task, id int) {
	th, ok := m.threads[id]
	if !ok {
		panic(fmt.Sprintf("cables: join of unknown worker %d", id))
	}
	m.rt.Join(parent, th)
}

func (m *M4Runtime) mutex(t *sim.Task, id int) *Mutex {
	mx, ok := m.mutexes[id]
	if !ok {
		mx = m.rt.NewMutex(t)
		m.mutexes[id] = mx
	}
	return mx
}

// Lock implements appapi.Runtime (LOCK via pthread_mutex_lock).
func (m *M4Runtime) Lock(t *sim.Task, id int) { m.mutex(t, id).Lock(t) }

// Unlock implements appapi.Runtime (UNLOCK via pthread_mutex_unlock).
func (m *M4Runtime) Unlock(t *sim.Task, id int) { m.mutex(t, id).Unlock(t) }

// Barrier implements appapi.Runtime (BARRIER via the pthread_barrier
// extension).
func (m *M4Runtime) Barrier(t *sim.Task, name string, parties int) {
	m.rt.Barrier(t, name, parties)
}

// Malloc implements appapi.Runtime (G_MALLOC via the dynamic allocator).
func (m *M4Runtime) Malloc(t *sim.Task, label string, size int64) (memsys.Addr, error) {
	return m.rt.mem.Malloc(t, size)
}

// Finish implements appapi.Runtime.
func (m *M4Runtime) Finish() sim.Time { return m.rt.End(m.rt.main.Task) }

var _ appapi.Runtime = (*M4Runtime)(nil)
