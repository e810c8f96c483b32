package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/framing"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// The rpc-echo and stream workloads run over one negotiated stack: the
// server declares Serialize |> Encrypt |> HTTP2, the client declares
// nothing and inherits it, and traffic crosses loopback UDP into the
// server's reactor listener. Their per-layer traced runs also drive the
// same chunnels hand-assembled over transport.UDPPair, with a span
// wrapper at each layer boundary.

var cryptKey = []byte("perfbench-aes-gcm-key-0123456789")

// echoServer owns a listener and one echo goroutine per accepted conn.
type echoServer struct {
	cancel context.CancelFunc
	ln     core.Listener
	wg     sync.WaitGroup
}

func serveEcho(ln core.Listener) *echoServer {
	ctx, cancel := context.WithCancel(context.Background())
	s := &echoServer{cancel: cancel, ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept(ctx)
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				echoLoop(ctx, c)
			}()
		}
	}()
	return s
}

// echoLoop echoes every message on c, zero-copy, until ctx ends or the
// conn fails.
func echoLoop(ctx context.Context, c core.Conn) {
	defer c.Close()
	for {
		b, err := core.RecvBuf(ctx, c)
		if err != nil {
			return
		}
		if core.SendBuf(ctx, c, b) != nil {
			return
		}
	}
}

// close stops the server and waits a bounded time for its goroutines.
func (s *echoServer) close() {
	s.cancel()
	s.ln.Close()
	waitBounded(&s.wg)
}

// waitBounded waits for wg, but never more than teardownWait: teardown
// must not hang the run on a goroutine the program fails to release.
func waitBounded(wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(teardownWait):
	}
}

const teardownWait = 2 * time.Second

// negotiatedEcho is a client endpoint connected to an echo server
// endpoint over loopback UDP.
type negotiatedEcho struct {
	srv  *echoServer
	cli  *bertha.Endpoint
	addr string
	conn core.Conn
	tr   *tracer
}

func echoStack() *bertha.Stack {
	return bertha.Wrap(bertha.Serialize(), bertha.Encrypt(cryptKey), bertha.HTTP2(framing.DefaultMaxFrame))
}

func newNegotiatedEcho(ctx context.Context, tr *tracer, coalesce bool) (*negotiatedEcho, error) {
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	bertha.RegisterStandard(regS)
	bertha.RegisterStandard(regC)
	var sopts, copts []bertha.Option
	sopts = append(sopts, bertha.WithRegistry(regS))
	copts = append(copts, bertha.WithRegistry(regC))
	if coalesce {
		sopts = append(sopts, bertha.WithCoalescing(bertha.CoalesceConfig{}))
		copts = append(copts, bertha.WithCoalescing(bertha.CoalesceConfig{}))
	}
	srvEp, err := bertha.New("echo-srv", echoStack(), sopts...)
	if err != nil {
		return nil, err
	}
	cliEp, err := bertha.New("echo-cli", bertha.Wrap(), copts...)
	if err != nil {
		return nil, err
	}
	base, err := transport.ListenUDP("srvhost", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var bl core.Listener = base
	if tr != nil {
		bl = &tlistener{Listener: base, t: tr}
	}
	ln, err := srvEp.Listen(ctx, bl)
	if err != nil {
		base.Close()
		return nil, err
	}
	e := &negotiatedEcho{srv: serveEcho(ln), cli: cliEp, addr: base.Addr().Addr, tr: tr}
	st := newOpStats()
	if e.conn, err = e.dial(ctx, st, true); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// dial opens one negotiated connection, timing the base dial and the
// Connect into st.
func (e *negotiatedEcho) dial(ctx context.Context, st *opStats, fifo bool) (core.Conn, error) {
	ctx, cancel := st.opCtx(ctx)
	defer cancel()
	t0 := time.Now()
	raw, err := transport.DialUDP("clihost", e.addr)
	if err != nil {
		return nil, err
	}
	st.dial.since(t0)
	conn, took, err := negotiate(ctx, e.tr, e.cli, raw, fifo)
	if err != nil {
		return nil, err
	}
	st.connect.add(int64(took))
	return conn, nil
}

// connectOnce is the connect probe: one more connection on this
// workload's stack, closed once established.
func (e *negotiatedEcho) connectOnce(ctx context.Context, st *opStats) {
	c, err := e.dial(ctx, st, false)
	if err != nil {
		st.fail(err)
		st.connectFailed.Add(1)
		return
	}
	c.Close()
}

func (e *negotiatedEcho) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	e.srv.close()
}

// handEcho is the same chunnel stack assembled by hand over a connected
// UDP pair; the client side carries a span wrapper at every boundary
// when traced, the server side echoes.
type handEcho struct {
	conn core.Conn
	srv  core.Conn
	wg   sync.WaitGroup
	stop context.CancelFunc
}

func newHandEcho(tr *tracer) (*handEcho, error) {
	a, b, err := transport.UDPPair("clihost", "srvhost")
	if err != nil {
		return nil, err
	}
	layer := func(c core.Conn, name string) core.Conn {
		if tr == nil {
			return c
		}
		return tr.wrapConn(c, name+".send", name+".recv")
	}
	build := func(c core.Conn, traced bool) (core.Conn, error) {
		wrap := layer
		if !traced {
			wrap = func(c core.Conn, _ string) core.Conn { return c }
		}
		f, err := framing.New(wrap(c, "hand.transport"), framing.DefaultMaxFrame)
		if err != nil {
			return nil, err
		}
		e, err := crypt.New(wrap(f, "framing"), cryptKey)
		if err != nil {
			return nil, err
		}
		s, err := serialize.New(wrap(e, "crypt"), serialize.FormatBincode)
		if err != nil {
			return nil, err
		}
		return wrap(s, "serialize"), nil
	}
	h := &handEcho{}
	if h.conn, err = build(a, true); err != nil {
		a.Close()
		b.Close()
		return nil, err
	}
	if h.srv, err = build(b, false); err != nil {
		h.conn.Close()
		b.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.stop = cancel
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		echoLoop(ctx, h.srv)
	}()
	return h, nil
}

func (h *handEcho) close() {
	h.stop()
	h.conn.Close()
	h.srv.Close()
	waitBounded(&h.wg)
}

// echoClient is the client half shared by rpc-echo and stream.
type echoClient struct {
	conn    core.Conn
	tr      *tracer
	fifo    bool // push app-send times for core.coalesce_wait
	rng     *rand.Rand
	seq     uint64
	closeFn func()
	probe   func(ctx context.Context, st *opStats)
}

func (c *echoClient) connect(ctx context.Context, st *opStats) { c.probe(ctx, st) }
func (c *echoClient) shutdown()                                { c.closeFn() }

// rpcEcho is one connection with one 64-byte request outstanding.
type rpcEcho struct{ echoClient }

const rpcPayload = 64

func (r *rpcEcho) run(ctx context.Context, until time.Time, maxOps int, st *opStats) {
	req := make([]byte, rpcPayload)
	headroom := core.HeadroomOf(r.conn)
	for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(until); n++ {
		r.seq++
		binary.LittleEndian.PutUint64(req, r.seq)
		r.rng.Read(req[8:])
		if err := r.roundTrip(ctx, req, headroom, st); err != nil {
			st.fail(err)
		}
	}
}

func (r *rpcEcho) roundTrip(ctx context.Context, req []byte, headroom int, st *opStats) error {
	ctx, cancel := st.opCtx(ctx)
	defer cancel()
	var s *span
	if r.tr != nil {
		ctx, s = r.tr.start(ctx, "op", false)
		defer r.tr.end(s)
	}
	t0 := time.Now()
	if r.fifo {
		r.tr.fifo.push(t0)
	}
	if err := core.SendBuf(ctx, r.conn, wire.NewBufFrom(headroom, req)); err != nil {
		return err
	}
	for {
		b, err := core.RecvBuf(ctx, r.conn)
		if err != nil {
			return err
		}
		got := b.Bytes()
		if len(got) >= 8 && binary.LittleEndian.Uint64(got) < r.seq {
			b.Release() // a late echo of a request that already timed out
			continue
		}
		good := bytes.Equal(got, req)
		b.Release()
		if !st.check(good) {
			return nil
		}
		st.ok(t0, len(req))
		return nil
	}
}

// stream sends trains of seeded length and seeded payload sizes without
// an explicit flush, then reads every echo before the next train.
type stream struct {
	echoClient
	pool []byte

	sizes [streamMaxTrain]int
	sent  [streamMaxTrain]time.Time
	got   [streamMaxTrain]bool
}

const (
	streamMaxTrain = 128
	streamMinSize  = 64
	streamMaxSize  = 8 << 10
	// streamTrainBytes ends a train early: the client reads no echo until
	// it has sent the whole train, so a train's echoes must fit the
	// client socket's default receive buffer (208 KiB on Linux, counting
	// per-datagram overhead), or the kernel drops them and nothing in
	// this stack recovers a lost datagram.
	streamTrainBytes = 64 << 10
)

// body writes message seq's bytes into dst: the sequence number, then a
// seeded pool slice chosen by seq.
func (s *stream) body(dst []byte, seq uint64, size int) {
	binary.LittleEndian.PutUint64(dst, seq)
	off := int(seq % 1024)
	copy(dst[8:size], s.pool[off:off+size-8])
}

func (s *stream) run(ctx context.Context, until time.Time, maxOps int, st *opStats) {
	headroom := core.HeadroomOf(s.conn)
	scratch := make([]byte, streamMaxSize)
	for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(until); {
		train, bytes := 1+s.rng.Intn(streamMaxTrain), 0
		for i := 0; i < train; i++ {
			// Log-uniform sizes: as many small messages as large ones.
			s.sizes[i] = int(streamMinSize * math.Pow(2, 7*s.rng.Float64()))
			s.got[i] = false
			if bytes += s.sizes[i]; i > 0 && bytes > streamTrainBytes {
				train = i
			}
		}
		s.train(ctx, train, headroom, scratch, st)
		n += train
	}
}

func (s *stream) train(ctx context.Context, train, headroom int, scratch []byte, st *opStats) {
	ctx, cancel := st.opCtx(ctx)
	defer cancel()
	if s.tr != nil {
		var sp *span
		ctx, sp = s.tr.start(ctx, "op", false)
		defer s.tr.end(sp)
	}
	first := s.seq + 1
	sent := 0
	for ; sent < train; sent++ {
		size := s.sizes[sent]
		b := wire.NewBuf(headroom, size)
		s.body(b.Bytes(), first+uint64(sent), size)
		s.sent[sent] = time.Now()
		if s.fifo {
			s.tr.fifo.push(s.sent[sent])
		}
		if err := core.SendBuf(ctx, s.conn, b); err != nil {
			st.fail(err)
			break
		}
	}
	s.seq += uint64(train)
	for i := sent + 1; i < train; i++ {
		st.fail(fmt.Errorf("train aborted"))
	}
	for pending := sent; pending > 0; {
		b, err := core.RecvBuf(ctx, s.conn)
		if err != nil {
			for i := 0; i < pending; i++ {
				st.fail(err)
			}
			return
		}
		got := b.Bytes()
		if len(got) < 8 {
			b.Release()
			st.check(false)
			pending--
			continue
		}
		seq := binary.LittleEndian.Uint64(got)
		if seq < first {
			b.Release() // a late echo from a train that already timed out
			continue
		}
		i := int(seq - first)
		if i >= sent || s.got[i] {
			b.Release()
			st.check(false) // an echo nobody sent, or a duplicate
			pending--
			continue
		}
		s.got[i] = true
		pending--
		size := s.sizes[i]
		s.body(scratch, seq, size)
		good := bytes.Equal(got, scratch[:size])
		b.Release()
		if st.check(good) {
			st.ok(s.sent[i], size)
		}
	}
}

// setupEcho builds the negotiated (hand == false) or hand-assembled
// instance of the rpc-echo or stream workload.
func setupEcho(ctx context.Context, seed int64, tr *tracer, streaming, hand bool) (instance, error) {
	var conn core.Conn
	var closeFn func()
	probe := func(context.Context, *opStats) {}
	fifo := false
	if hand {
		h, err := newHandEcho(tr)
		if err != nil {
			return nil, err
		}
		conn, closeFn = h.conn, h.close
	} else {
		e, err := newNegotiatedEcho(ctx, tr, streaming)
		if err != nil {
			return nil, err
		}
		conn, closeFn, probe = e.conn, e.close, e.connectOnce
		fifo = tr != nil
	}
	c := echoClient{conn: conn, tr: tr, fifo: fifo, rng: rand.New(rand.NewSource(seed)), closeFn: closeFn, probe: probe}
	if !streaming {
		return &rpcEcho{c}, nil
	}
	pool := make([]byte, 1024+streamMaxSize)
	c.rng.Read(pool)
	return &stream{echoClient: c, pool: pool}, nil
}
