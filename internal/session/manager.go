package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ibox/internal/obs"
	"ibox/internal/par"
)

// Manager owns the server's live sessions: it enforces the global and
// per-tenant caps (the admission-control layer for long-lived stateful
// clients, where the request path's semaphore handles one-shot work),
// reaps idle sessions past their TTL, publishes the serve.session.*
// metric family, and closes every session at drain.

// Limits bound the session population.
type Limits struct {
	// MaxSessions caps live sessions across all tenants; default 256.
	MaxSessions int
	// MaxPerTenant caps live sessions per tenant; default MaxSessions.
	MaxPerTenant int
	// TTL is the idle deadline: a session with no subscribers and no
	// control-plane interaction for this long is expired by the reaper.
	// 0 selects 15 minutes; negative disables reaping.
	TTL time.Duration
	// ReapEvery is the reaper's scan interval; default min(TTL/4, 5s).
	ReapEvery time.Duration
}

func (l Limits) withDefaults() Limits {
	if l.MaxSessions <= 0 {
		l.MaxSessions = 256
	}
	if l.MaxPerTenant <= 0 {
		l.MaxPerTenant = l.MaxSessions
	}
	if l.TTL == 0 {
		l.TTL = 15 * time.Minute
	}
	if l.ReapEvery <= 0 {
		l.ReapEvery = l.TTL / 4
		if l.ReapEvery > 5*time.Second {
			l.ReapEvery = 5 * time.Second
		}
		if l.ReapEvery < 10*time.Millisecond {
			l.ReapEvery = 10 * time.Millisecond
		}
	}
	return l
}

// Capacity errors, distinguished so the front door can shed with the
// right reason label.
var (
	ErrSessionLimit = errors.New("session: server session limit reached")
	ErrTenantLimit  = errors.New("session: tenant session limit reached")
	ErrNotFound     = errors.New("session: not found")
	ErrDraining     = errors.New("session: manager draining")
)

// Manager tracks live sessions. All methods are safe for concurrent
// use.
type Manager struct {
	limits Limits
	pool   *par.Pool

	mu        sync.Mutex
	sessions  map[string]*Session
	reserved  map[string]struct{} // ids admitted but not yet in sessions
	perTenant map[string]int
	total     int // reserved slots (admitted, possibly not yet in sessions)
	draining  bool

	seq atomic.Uint64

	reapStop chan struct{}
	reapDone chan struct{}
	reapOnce sync.Once

	// serve.session.* metric family (nil handles when obs disabled).
	active    *obs.Gauge      // serve.session.active
	byState   *obs.GaugeVec   // serve.session.state{state}
	byTenant  *obs.GaugeVec   // serve.session.tenant{tenant}
	created   *obs.Counter    // serve.session.created
	closed    *obs.Counter    // serve.session.closed
	expired   *obs.Counter    // serve.session.expired
	mutations *obs.Counter    // serve.session.mutations
	events    *obs.Counter    // serve.session.events
	shed      *obs.CounterVec // serve.session.shed{reason}
}

// NewManager builds a manager enforcing limits. pool, when non-nil, is
// handed to every session so their tick work shares the server's
// worker pool.
func NewManager(limits Limits, pool *par.Pool) *Manager {
	m := &Manager{
		limits:    limits.withDefaults(),
		pool:      pool,
		sessions:  make(map[string]*Session),
		reserved:  make(map[string]struct{}),
		perTenant: make(map[string]int),
	}
	if r := obs.Get(); r != nil {
		m.active = r.Gauge("serve.session.active")
		m.byState = r.GaugeVec("serve.session.state", "state")
		m.byTenant = r.GaugeVec("serve.session.tenant", "tenant")
		m.created = r.Counter("serve.session.created")
		m.closed = r.Counter("serve.session.closed")
		m.expired = r.Counter("serve.session.expired")
		m.mutations = r.Counter("serve.session.mutations")
		m.events = r.Counter("serve.session.events")
		m.shed = r.CounterVec("serve.session.shed", "reason")
	}
	if m.limits.TTL > 0 {
		m.reapStop = make(chan struct{})
		m.reapDone = make(chan struct{})
		go m.reapLoop()
	}
	return m
}

// Limits returns the manager's effective limits.
func (m *Manager) Limits() Limits { return m.limits }

// Create admits and starts a new session. The Manager fills in the ID
// (when empty), the shared pool, and its bookkeeping hooks.
func (m *Manager) Create(cfg Config) (*Session, error) {
	if cfg.Tenant == "" {
		cfg.Tenant = "default"
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.shed.With("draining").Add(1)
		return nil, ErrDraining
	}
	if m.total >= m.limits.MaxSessions {
		m.mu.Unlock()
		m.shed.With("sessions_full").Add(1)
		return nil, fmt.Errorf("%w (%d)", ErrSessionLimit, m.limits.MaxSessions)
	}
	if m.perTenant[cfg.Tenant] >= m.limits.MaxPerTenant {
		m.mu.Unlock()
		m.shed.With("tenant_sessions_full").Add(1)
		return nil, fmt.Errorf("%w (%s: %d)", ErrTenantLimit, cfg.Tenant, m.limits.MaxPerTenant)
	}
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("s-%d", m.seq.Add(1))
	}
	if m.idTaken(cfg.ID) {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: id %q already exists", cfg.ID)
	}
	// Reserve the slot AND the id under one critical section, so two
	// concurrent Creates with the same explicit id cannot both pass the
	// dup check and silently overwrite each other in m.sessions. Both
	// are released if New fails.
	m.reserved[cfg.ID] = struct{}{}
	m.total++
	m.perTenant[cfg.Tenant]++
	m.mu.Unlock()

	if cfg.Pool == nil {
		cfg.Pool = m.pool
	}
	cfg.onEvent = func(n int) { m.events.Add(int64(n)) }
	cfg.onMutate = func() { m.mutations.Add(1) }
	userClose := cfg.OnClose
	cfg.OnClose = func(s *Session) {
		m.remove(s)
		if userClose != nil {
			userClose(s)
		}
	}
	s, err := New(cfg)
	if err != nil {
		m.mu.Lock()
		delete(m.reserved, cfg.ID)
		m.release(cfg.Tenant)
		m.mu.Unlock()
		return nil, err
	}
	m.mu.Lock()
	delete(m.reserved, s.ID())
	m.sessions[s.ID()] = s
	m.mu.Unlock()
	// A very short session (tiny Duration, unpaced) can reach its
	// terminal state before the registration above; its OnClose→remove
	// then found nothing to delete, so unregister it here. remove is
	// idempotent, and ids are unique among live sessions, so at most one
	// of the two calls finds the entry.
	if s.State().terminal() {
		m.remove(s)
	}
	m.created.Add(1)
	m.publishGauges()
	return s, nil
}

// idTaken reports whether id names a live or reserved session; m.mu
// must be held.
func (m *Manager) idTaken(id string) bool {
	if _, ok := m.sessions[id]; ok {
		return true
	}
	_, ok := m.reserved[id]
	return ok
}

// release returns a reserved slot under m.mu.
func (m *Manager) release(tenant string) {
	m.total--
	if m.perTenant[tenant] <= 1 {
		delete(m.perTenant, tenant)
		m.byTenant.With(tenant).Set(0)
	} else {
		m.perTenant[tenant]--
	}
}

// remove unregisters a finished session (the Session's OnClose hook).
// Idempotent: only the call that finds the registration releases the
// slot and counts the close.
func (m *Manager) remove(s *Session) {
	m.mu.Lock()
	_, ok := m.sessions[s.ID()]
	if ok {
		delete(m.sessions, s.ID())
		m.release(s.Tenant())
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	if s.State() == Expired {
		m.expired.Add(1)
	} else {
		m.closed.Add(1)
	}
	m.publishGauges()
}

// Get returns a live session by id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s, nil
}

// List snapshots every live session, sorted by id.
func (m *Manager) List() []Info {
	m.mu.Lock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.Unlock()
	infos := make([]Info, 0, len(out))
	for _, s := range out {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Active reports the number of live sessions.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// publishGauges republishes the session population gauges; also called
// by the serving tier's rolling collector so per-state counts track
// transitions that happen without population changes (pause/resume).
func (m *Manager) publishGauges() {
	if m.active == nil {
		return
	}
	m.mu.Lock()
	n := len(m.sessions)
	counts := make(map[State]int, 4)
	for _, s := range m.sessions {
		counts[s.State()]++
	}
	tenants := make(map[string]int, len(m.perTenant))
	for t, c := range m.perTenant {
		tenants[t] = c
	}
	m.mu.Unlock()
	m.active.Set(float64(n))
	for _, st := range []State{Running, Paused, Closed, Expired} {
		m.byState.With(st.String()).Set(float64(counts[st]))
	}
	for t, c := range tenants {
		m.byTenant.With(t).Set(float64(c))
	}
}

// PublishStats is publishGauges for external collectors.
func (m *Manager) PublishStats() { m.publishGauges() }

// reapLoop expires idle sessions: no subscribers and no control-plane
// interaction for TTL.
func (m *Manager) reapLoop() {
	defer close(m.reapDone)
	t := time.NewTicker(m.limits.ReapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.reapOnceNow(time.Now())
		case <-m.reapStop:
			return
		}
	}
}

// reapOnceNow scans for idle sessions; split out so tests can force a
// scan without waiting for the ticker.
func (m *Manager) reapOnceNow(now time.Time) {
	m.mu.Lock()
	var idle []*Session
	for _, s := range m.sessions {
		if s.Subscribers() > 0 {
			continue
		}
		if now.Sub(time.Unix(0, s.lastActive.Load())) >= m.limits.TTL {
			idle = append(idle, s)
		}
	}
	m.mu.Unlock()
	for _, s := range idle {
		s.expire(now, m.limits.TTL)
	}
}

// Shutdown drains the manager: no new sessions, every live session
// closed with reason "drain", the reaper stopped. Blocks until every
// session's run goroutine has exited.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.draining = true
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	m.mu.Unlock()
	for _, s := range live {
		s.Close("drain")
		<-s.Done()
	}
	if m.reapStop != nil {
		m.reapOnce.Do(func() {
			close(m.reapStop)
			<-m.reapDone
		})
	}
	m.publishGauges()
}
