package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// opTimeout is every operation's deadline: an rpc round trip, a stream
// train, a kv op, or a connect-churn lifetime.
const opTimeout = 500 * time.Millisecond

// opStats accumulates one measured window.
type opStats struct {
	lat      hist // successful operation latency, ns
	failed   atomic.Uint64
	timeouts atomic.Uint64
	wrong    atomic.Uint64 // outputs that failed their check (also failed)
	checked  atomic.Uint64 // outputs compared against what was sent or written
	bytes    atomic.Uint64 // verified payload bytes delivered

	connect       hist // Endpoint.Connect latency, ns
	connectFailed atomic.Uint64
	dial          hist // base-conn dial latency, ns

	// kv-ycsb splits of lat.
	push, xdp, read, update hist
	next                    hist // ycsb generator cost per op, ns

	start   time.Time
	timeout time.Duration
	// win splits a measured window into sub-windows of winDur (nil
	// elsewhere), whose op counts and latency quantiles go to the
	// record.
	win    []subWindow
	winDur time.Duration
}

// subWindow is one slice of a measured window, by completion time.
type subWindow struct {
	lat           hist
	failed, bytes atomic.Uint64
}

const secondsMax = 60

func newOpStats() *opStats { return &opStats{start: time.Now(), timeout: opTimeout} }

// newWindowStats returns stats for a window of d split into n
// sub-windows.
func newWindowStats(d time.Duration, n int) *opStats {
	s := newOpStats()
	s.win, s.winDur = make([]subWindow, n), d/time.Duration(n)
	return s
}

// sub returns the sub-window that time t falls in (late completions
// count in the last one).
func (s *opStats) sub(t time.Time) *subWindow {
	if s.win == nil {
		return nil
	}
	i := int(t.Sub(s.start) / s.winDur)
	if i >= len(s.win) {
		i = len(s.win) - 1
	}
	return &s.win[i]
}

func (s *opStats) ok(t0 time.Time, payload int) {
	now := time.Now()
	s.lat.add(int64(now.Sub(t0)))
	s.bytes.Add(uint64(payload))
	if w := s.sub(now); w != nil {
		w.lat.add(int64(now.Sub(t0)))
		w.bytes.Add(uint64(payload))
	}
}

func (s *opStats) failed1() {
	s.failed.Add(1)
	if w := s.sub(time.Now()); w != nil {
		w.failed.Add(1)
	}
}

func (s *opStats) fail(err error) {
	s.failed1()
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Add(1)
	}
}

// check counts one output comparison and reports whether it passed; a
// wrong output is a failed operation.
func (s *opStats) check(good bool) bool {
	s.checked.Add(1)
	if !good {
		s.wrong.Add(1)
		s.failed1()
	}
	return good
}

func (s *opStats) attempted() uint64 { return s.lat.count() + s.failed.Load() }

func (s *opStats) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, s.timeout)
}

// errWrongOutput marks an operation whose output failed its check.
var errWrongOutput = errors.New("wrong output")
