package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/wire"
)

// The traced run records spans from the benchmark's own wrappers around
// each layer's public functions: a span opens when a call enters the
// layer below a wrapper and closes when it returns. Spans travel in the
// call's context, so a wrapper deeper in the same call becomes a child;
// spans of one operation share its op ID. Each span's self time (its
// duration minus the time its children cover) is folded into a
// histogram per span name as the span ends, and the last spanRingSize
// spans stay in memory to be written out when the run ends.

const spanRingSize = 1 << 15

type spanKey struct{}

type span struct {
	op, id uint64
	parent *span
	name   string
	start  time.Time
	child  atomic.Int64 // ns covered by closed children
	// outside is the part of child spent in dials and discovery calls:
	// what core.negotiate_self excludes from a Connect.
	outside atomic.Int64
}

// spanRec is a closed span as written out.
type spanRec struct {
	Op      uint64 `json:"op"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu   sync.Mutex
	self map[string]*hist // span name -> self-time histogram
	ring []spanRec
	next int
	wrap bool

	// cur is the parent for spans opened on goroutines the benchmark
	// does not drive (the server's discovery queries). It holds the
	// Connect in flight, and the workloads connect one at a time, so that
	// Connect is their cause.
	cur atomic.Pointer[span]

	// Base-conn counters: messages and calls reaching a transport send.
	sendMsgs, sendCalls atomic.Uint64
	// fifo matches app sends to the base-conn sends that carry them.
	fifo sendFIFO
	// coalesceWait is the time from an app send call to the start of
	// the first base-conn send carrying that message.
	coalesceWait hist
	// kvServerSelf is the time a kv shard conn spends from Recv return
	// to the next Send call (the store's work on the push path).
	kvServerSelf hist
	// negotiateSelf is Connect time minus the dials and discovery calls
	// made during it.
	negotiateSelf hist
	// discoveryCalls counts DiscoveryClient calls.
	discoveryCalls atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]*hist{}, ring: make([]spanRec, spanRingSize)}
}

func (t *tracer) hist(name string) *hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.self[name]
	if !ok {
		h = &hist{}
		t.self[name] = h
	}
	return h
}

// start opens a span under the span in ctx (or under t.cur when
// fromCur is set and ctx carries none) and returns the context to pass
// to the layer below.
func (t *tracer) start(ctx context.Context, name string, fromCur bool) (context.Context, *span) {
	parent, _ := ctx.Value(spanKey{}).(*span)
	if parent == nil && fromCur {
		parent = t.cur.Load()
	}
	s := &span{id: t.ids.Add(1), parent: parent, name: name, start: time.Now()}
	if parent != nil {
		s.op = parent.op
	} else {
		s.op = s.id
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

func (t *tracer) end(s *span) {
	end := time.Now()
	dur := int64(end.Sub(s.start))
	if p := s.parent; p != nil {
		p.child.Add(dur)
		if s.name == "core.dial" || s.name == "discovery.query" {
			p.outside.Add(dur)
		}
	}
	if s.name == "core.connect" {
		t.negotiateSelf.add(dur - s.outside.Load())
	}
	t.hist(s.name).add(dur - s.child.Load())
	rec := spanRec{Op: s.op, ID: s.id, Name: s.name,
		StartNs: int64(s.start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch))}
	if s.parent != nil {
		rec.Parent = s.parent.id
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next, t.wrap = 0, true
	}
	t.mu.Unlock()
}

// selfQuantile is the q-quantile self time of a span name in µs (0 when
// the layer never ran in this workload).
func (t *tracer) selfQuantile(name string, q float64) float64 {
	return t.hist(name).quantile(q, 0) / 1e3
}

// writeSpans writes the retained spans, oldest first, as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	recs := t.ring[:t.next]
	if t.wrap {
		recs = append(append([]spanRec(nil), t.ring[t.next:]...), t.ring[:t.next]...)
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sendFIFO holds app-send timestamps in send order. Every layer below
// the coalescer keeps message order and maps one message to one
// datagram (frames never split: payloads stay below the frame size), so
// the k-th data datagram the base conn sends carries the k-th message.
type sendFIFO struct {
	mu sync.Mutex
	q  []time.Time
}

func (f *sendFIFO) push(t time.Time) {
	f.mu.Lock()
	f.q = append(f.q, t)
	f.mu.Unlock()
}

func (f *sendFIFO) pop(now time.Time, h *hist) {
	f.mu.Lock()
	if len(f.q) > 0 {
		h.add(int64(now.Sub(f.q[0])))
		f.q = f.q[1:]
	}
	f.mu.Unlock()
}

// dataTag is the runtime's first byte on a negotiated connection's data
// datagrams (control datagrams carry 0x00).
const dataTag = 0x01

// tconn is the benchmark's span wrapper around one layer's conn. It
// forwards the zero-copy and burst paths so wrapping a layer does not
// change which datapath the layer above takes.
type tconn struct {
	core.Conn
	t                  *tracer
	sendName, recvName string
	base               bool // a transport conn: count messages per send call
	fifo               bool // client base conn under a negotiated stack: pop the send FIFO
	kvShard            bool // kv shard conn: time Recv return to Send call
	lastRecv           atomic.Int64
}

func (t *tracer) wrapConn(c core.Conn, sendName, recvName string) *tconn {
	return &tconn{Conn: c, t: t, sendName: sendName, recvName: recvName}
}

func (t *tracer) wrapBase(c core.Conn) *tconn {
	w := t.wrapConn(c, "transport.send", "transport.recv")
	w.base = true
	return w
}

func (c *tconn) beforeSend(now time.Time, bs ...[]byte) {
	if c.kvShard {
		if r := c.lastRecv.Swap(0); r != 0 {
			c.t.kvServerSelf.add(now.UnixNano() - r)
		}
	}
	if !c.base {
		return
	}
	c.t.sendCalls.Add(1)
	c.t.sendMsgs.Add(uint64(len(bs)))
	if c.fifo {
		for _, b := range bs {
			if len(b) > 0 && b[0] == dataTag {
				c.t.fifo.pop(now, &c.t.coalesceWait)
			}
		}
	}
}

func (c *tconn) afterRecv() {
	if c.kvShard {
		c.lastRecv.Store(time.Now().UnixNano())
	}
}

func (c *tconn) Send(ctx context.Context, p []byte) error {
	ctx, s := c.t.start(ctx, c.sendName, false)
	c.beforeSend(s.start, p)
	err := c.Conn.Send(ctx, p)
	c.t.end(s)
	return err
}

func (c *tconn) Recv(ctx context.Context) ([]byte, error) {
	ctx, s := c.t.start(ctx, c.recvName, false)
	p, err := c.Conn.Recv(ctx)
	c.t.end(s)
	c.afterRecv()
	return p, err
}

func (c *tconn) SendBuf(ctx context.Context, b *wire.Buf) error {
	ctx, s := c.t.start(ctx, c.sendName, false)
	c.beforeSend(s.start, b.Bytes())
	err := core.SendBuf(ctx, c.Conn, b)
	c.t.end(s)
	return err
}

func (c *tconn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	ctx, s := c.t.start(ctx, c.recvName, false)
	b, err := core.RecvBuf(ctx, c.Conn)
	c.t.end(s)
	c.afterRecv()
	return b, err
}

func (c *tconn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	ctx, s := c.t.start(ctx, c.sendName, false)
	ps := make([][]byte, len(bs))
	for i, b := range bs {
		ps[i] = b.Bytes()
	}
	c.beforeSend(s.start, ps...)
	err := core.SendBufs(ctx, c.Conn, bs)
	c.t.end(s)
	return err
}

func (c *tconn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	ctx, s := c.t.start(ctx, c.recvName, false)
	n, err := core.RecvBufs(ctx, c.Conn, into)
	c.t.end(s)
	c.afterRecv()
	return n, err
}

func (c *tconn) Headroom() int { return core.HeadroomOf(c.Conn) }

// negotiate connects ep over raw and returns the conn and how long
// Connect took. When traced, raw becomes a traced base conn (popping the
// send FIFO when fifo is set) and Connect a "core.connect" span, which
// also parents the discovery calls the server makes meanwhile.
func negotiate(ctx context.Context, tr *tracer, ep *bertha.Endpoint, raw core.Conn, fifo bool) (core.Conn, time.Duration, error) {
	if tr != nil {
		w := tr.wrapBase(raw)
		w.fifo = fifo
		raw = w
		var s *span
		ctx, s = tr.start(ctx, "core.connect", false)
		tr.cur.Store(s)
		defer func() {
			tr.cur.CompareAndSwap(s, nil)
			tr.end(s)
		}()
	}
	t0 := time.Now()
	conn, err := ep.Connect(ctx, raw)
	return conn, time.Since(t0), err
}

// tlistener wraps a base listener: accepted conns become traced base
// conns.
type tlistener struct {
	core.Listener
	t       *tracer
	kvShard bool
}

func (l *tlistener) Accept(ctx context.Context) (core.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	w := l.t.wrapBase(c)
	w.kvShard = l.kvShard
	return w, nil
}

// tdialer wraps an Env dialer: the dial is a span ("core.dial") and the
// dialed conn a traced base conn.
type tdialer struct {
	core.Dialer
	t *tracer
}

func (d *tdialer) Dial(ctx context.Context, addr core.Addr) (core.Conn, error) {
	ctx, s := d.t.start(ctx, "core.dial", false)
	c, err := d.Dialer.Dial(ctx, addr)
	d.t.end(s)
	if err != nil {
		return nil, err
	}
	return d.t.wrapBase(c), nil
}

// tdiscovery wraps a DiscoveryClient: every call is a "discovery.query"
// span, parented by the operation in flight.
type tdiscovery struct {
	core.DiscoveryClient
	t *tracer
}

func (d *tdiscovery) Query(ctx context.Context, types []string) ([]core.ImplOffer, error) {
	ctx, s := d.t.start(ctx, "discovery.query", true)
	d.t.discoveryCalls.Add(1)
	offers, err := d.DiscoveryClient.Query(ctx, types)
	d.t.end(s)
	return offers, err
}

func (d *tdiscovery) Claim(ctx context.Context, implName string, res core.Resources) (uint64, error) {
	ctx, s := d.t.start(ctx, "discovery.query", true)
	d.t.discoveryCalls.Add(1)
	id, err := d.DiscoveryClient.Claim(ctx, implName, res)
	d.t.end(s)
	return id, err
}

func (d *tdiscovery) Release(ctx context.Context, claimID uint64) error {
	ctx, s := d.t.start(ctx, "discovery.query", true)
	d.t.discoveryCalls.Add(1)
	err := d.DiscoveryClient.Release(ctx, claimID)
	d.t.end(s)
	return err
}
