package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"chipletactuary/client"
)

// BackendState is the monitor's verdict on one backend.
type BackendState int

const (
	// StateUnknown means the backend has never answered a probe. The
	// scheduler treats it optimistically (eligible for work at full
	// weight) so a freshly joined backend is not starved waiting for
	// its first probe round.
	StateUnknown BackendState = iota
	// StateUp means the backend is answering probes.
	StateUp
	// StateDown means the backend is marked down: it receives no new
	// shards until enough consecutive probes succeed to mark it up.
	StateDown
)

// String renders the state for logs and stats.
func (s BackendState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// Health is a point-in-time view of one backend as the monitor sees
// it: smoothed latency and load observations plus the mark-down state
// machine's position.
type Health struct {
	Name        string
	State       BackendState
	Weight      float64       // scheduling weight; 0 when down
	Latency     time.Duration // EWMA probe round-trip
	Utilization float64       // EWMA worker utilization, 0..1
	QueueDepth  float64       // EWMA queue depth
	Probes      int           // probes attempted
	Failures    int           // probes failed
	LastErr     error         // most recent probe failure, nil when up
}

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// ProbeEvery sets the probe interval for Run. Default 500ms.
func ProbeEvery(d time.Duration) MonitorOption {
	return func(m *Monitor) { m.every = d }
}

// ProbeTimeout bounds one probe round-trip. A backend that hangs past
// the timeout — wedged, stopped, or partitioned — counts as a failed
// probe even though its TCP connection never errored. Default 1s.
func ProbeTimeout(d time.Duration) MonitorOption {
	return func(m *Monitor) { m.timeout = d }
}

// MarkDownAfter sets how many consecutive probe failures demote an Up
// backend to Down. Hysteresis: one dropped packet should not drain a
// healthy backend's queue. Default 3. A backend that has never been up
// is marked down on its first failure — there is no history to defend.
func MarkDownAfter(n int) MonitorOption {
	return func(m *Monitor) { m.markDown = n }
}

// MarkUpAfter sets how many consecutive probe successes re-admit a
// Down backend. Default 2.
func MarkUpAfter(n int) MonitorOption {
	return func(m *Monitor) { m.markUp = n }
}

// ProbeEWMA sets the smoothing factor applied to latency, utilization
// and queue-depth observations, in (0, 1]; higher weighs the newest
// observation more. Default 0.3.
func ProbeEWMA(alpha float64) MonitorOption {
	return func(m *Monitor) { m.alpha = alpha }
}

// MonitorEvents installs a sink for mark-down/mark-up events. The
// callback runs outside the monitor's lock but on its probe
// goroutine; keep it fast.
func MonitorEvents(f func(Event)) MonitorOption {
	return func(m *Monitor) { m.onEvent = f }
}

// probeState is the monitor's book on one backend id.
type probeState struct {
	name       string
	state      BackendState
	lat        float64 // EWMA, nanoseconds
	util       float64 // EWMA, 0..1
	depth      float64 // EWMA
	haveObs    bool    // EWMAs initialized
	consecFail int
	consecOK   int
	probes     int
	failures   int
	lastErr    error
}

// Monitor probes a registry's backends and distills the answers into
// per-backend health states and scheduling weights. Backends that
// implement client.Prober (remote daemons via /v1/metricz,
// local sessions via their own metrics) report load; backends that do
// not are probed as always-healthy at weight 1.
//
// Run the probe loop with Run, or drive rounds by hand with ProbeOnce
// (tests, one-shot tools). Safe for concurrent use.
type Monitor struct {
	reg      *Registry
	every    time.Duration
	timeout  time.Duration
	markDown int
	markUp   int
	alpha    float64
	onEvent  func(Event)

	mu        sync.Mutex
	state     map[int]*probeState
	listeners map[int]func()
	nextLis   int
}

// refLatency anchors the latency term of the scheduling weight: a
// backend answering probes in refLatency gets half the latency credit.
const refLatency = 50 * time.Millisecond

// NewMonitor builds a monitor over the registry's members.
func NewMonitor(reg *Registry, opts ...MonitorOption) (*Monitor, error) {
	if reg == nil {
		return nil, fmt.Errorf("fleet: monitor needs a registry")
	}
	m := &Monitor{
		reg:       reg,
		every:     500 * time.Millisecond,
		timeout:   time.Second,
		markDown:  3,
		markUp:    2,
		alpha:     0.3,
		state:     make(map[int]*probeState),
		listeners: make(map[int]func()),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.every <= 0 || m.timeout <= 0 {
		return nil, fmt.Errorf("fleet: probe interval and timeout must be positive")
	}
	if m.markDown < 1 || m.markUp < 1 {
		return nil, fmt.Errorf("fleet: mark-down and mark-up thresholds must be at least 1")
	}
	if m.alpha <= 0 || m.alpha > 1 {
		return nil, fmt.Errorf("fleet: EWMA factor %v outside (0, 1]", m.alpha)
	}
	return m, nil
}

// Run probes every live backend once immediately, then every probe
// interval, until ctx is canceled.
func (m *Monitor) Run(ctx context.Context) {
	m.ProbeOnce(ctx)
	ticker := time.NewTicker(m.every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			m.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce probes every live backend concurrently and waits for the
// round to finish. Each probe is bounded by the probe timeout.
func (m *Monitor) ProbeOnce(ctx context.Context) {
	members := m.reg.live()
	var wg sync.WaitGroup
	for _, mem := range members {
		prober, ok := mem.backend.(client.Prober)
		if !ok {
			continue
		}
		wg.Add(1)
		go func(mem *member, prober client.Prober) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.timeout)
			defer cancel()
			start := time.Now()
			st, err := prober.Probe(pctx)
			m.record(mem, st, time.Since(start), err)
		}(mem, prober)
	}
	wg.Wait()
}

// record folds one probe result into the backend's book, driving the
// mark-down/mark-up state machine and the EWMAs. Events and listener
// callbacks fire outside the lock.
func (m *Monitor) record(mem *member, st client.Status, lat time.Duration, err error) {
	var events []Event
	changed := false
	m.mu.Lock()
	ps := m.state[mem.id]
	if ps == nil {
		ps = &probeState{name: mem.name}
		m.state[mem.id] = ps
	}
	ps.probes++
	if err != nil {
		ps.failures++
		ps.consecOK = 0
		ps.consecFail++
		ps.lastErr = err
		switch {
		case ps.state == StateUnknown:
			// A backend that never answered a probe has no track record
			// to defend: mark it down immediately so the scheduler never
			// waits out markDown rounds on something that never came up.
			ps.state = StateDown
			changed = true
			events = append(events, Event{
				Backend: mem.name, Kind: "mark-down",
				Detail: fmt.Sprintf("never came up: %v", err),
			})
		case ps.state == StateUp && ps.consecFail >= m.markDown:
			ps.state = StateDown
			changed = true
			events = append(events, Event{
				Backend: mem.name, Kind: "mark-down",
				Detail: fmt.Sprintf("%d consecutive probe failures: %v", ps.consecFail, err),
			})
		}
	} else {
		ps.consecFail = 0
		ps.consecOK++
		ps.lastErr = nil
		m.observe(ps, st, lat)
		switch {
		case ps.state == StateUnknown:
			ps.state = StateUp
			changed = true
		case ps.state == StateDown && ps.consecOK >= m.markUp:
			ps.state = StateUp
			changed = true
			events = append(events, Event{
				Backend: mem.name, Kind: "mark-up",
				Detail: fmt.Sprintf("%d consecutive probe successes", ps.consecOK),
			})
		}
	}
	var fire []func()
	if changed {
		fire = make([]func(), 0, len(m.listeners))
		for _, f := range m.listeners {
			fire = append(fire, f)
		}
	}
	m.mu.Unlock()
	if m.onEvent != nil {
		for _, ev := range events {
			m.onEvent(ev)
		}
	}
	for _, f := range fire {
		f()
	}
}

// observe folds one successful probe's load figures into the EWMAs.
func (m *Monitor) observe(ps *probeState, st client.Status, lat time.Duration) {
	obsLat := float64(lat)
	obsUtil := clamp01(st.Utilization)
	obsDepth := math.Max(0, st.MeanQueueDepth)
	if !ps.haveObs {
		ps.lat, ps.util, ps.depth = obsLat, obsUtil, obsDepth
		ps.haveObs = true
		return
	}
	ps.lat = m.alpha*obsLat + (1-m.alpha)*ps.lat
	ps.util = m.alpha*obsUtil + (1-m.alpha)*ps.util
	ps.depth = m.alpha*obsDepth + (1-m.alpha)*ps.depth
}

// up reports whether the scheduler may hand backend id new work.
// Unknown is optimistic: a backend is innocent until a probe fails.
func (m *Monitor) up(id int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.state[id]
	return ps == nil || ps.state != StateDown
}

// weight scores backend id for shard assignment: 0 when down, else a
// value in (0, 1] discounted by smoothed utilization and probe
// latency. A backend with no observations yet scores 1.
func (m *Monitor) weight(id int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.state[id]
	if ps == nil {
		return 1
	}
	if ps.state == StateDown {
		return 0
	}
	if !ps.haveObs {
		return 1
	}
	w := 1 - 0.6*ps.util
	w *= float64(refLatency) / (float64(refLatency) + ps.lat)
	// Twice the nominal latency credit: a zero-latency idle backend
	// should score 1, not 0.5.
	w *= 2
	if w > 1 {
		w = 1
	}
	if w < 0.05 {
		w = 0.05
	}
	return w
}

// addListener registers a callback fired after every state change
// (mark-down or mark-up); the returned func removes it. The scheduler
// uses this to re-dispatch parked workers when the fleet changes.
func (m *Monitor) addListener(f func()) func() {
	m.mu.Lock()
	id := m.nextLis
	m.nextLis++
	m.listeners[id] = f
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		delete(m.listeners, id)
		m.mu.Unlock()
	}
}

// stateOf reports the current state of backend id.
func (m *Monitor) stateOf(id int) BackendState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.state[id]; ps != nil {
		return ps.state
	}
	return StateUnknown
}

// Snapshot reports the health of every backend the monitor has
// probed, sorted by name.
func (m *Monitor) Snapshot() []Health {
	m.mu.Lock()
	ids := make([]int, 0, len(m.state))
	for id := range m.state {
		ids = append(ids, id)
	}
	out := make([]Health, 0, len(ids))
	for _, id := range ids {
		ps := m.state[id]
		out = append(out, Health{
			Name:        ps.name,
			State:       ps.state,
			Latency:     time.Duration(ps.lat),
			Utilization: ps.util,
			QueueDepth:  ps.depth,
			Probes:      ps.probes,
			Failures:    ps.failures,
			LastErr:     ps.lastErr,
		})
	}
	m.mu.Unlock()
	for i := range out {
		// weight re-locks; fill in after releasing the monitor lock.
		out[i].Weight = m.weightByName(out[i].Name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// weightByName resolves a weight for Snapshot without holding the
// lock across the weight computation.
func (m *Monitor) weightByName(name string) float64 {
	m.mu.Lock()
	id := -1
	for i, ps := range m.state {
		if ps.name == name {
			id = i
			break
		}
	}
	m.mu.Unlock()
	if id < 0 {
		return 0
	}
	return m.weight(id)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0 || math.IsNaN(v):
		return 0
	case v > 1:
		return 1
	}
	return v
}
