package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/chunnels/localfast"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/discovery"
	"github.com/bertha-net/bertha/internal/transport"
)

// connect-churn is Fig. 3's establishment path: each operation dials
// loopback UDP, negotiates LocalOrRemote with a server whose endpoint
// queries an in-process discovery service over loopback UDP, gets
// spliced onto UNIX datagram sockets, echoes three 128-byte messages
// and closes.

const (
	churnEchoes  = 3
	churnPayload = 128
)

var sockSeq atomic.Uint64

type churnInstance struct {
	srv  *echoServer
	ipc  core.Listener
	disc *discovery.Server
	dcli *discovery.Client
	cli  *bertha.Endpoint
	addr string
	tr   *tracer
	rng  *rand.Rand
	seq  uint64
}

func setupChurn(ctx context.Context, seed int64, tr *tracer, sockDir string) (instance, error) {
	c := &churnInstance{tr: tr, rng: rand.New(rand.NewSource(seed))}
	ok := false
	defer func() {
		if !ok {
			c.shutdown()
		}
	}()
	dl, err := transport.ListenUDP("srvhost", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.disc = discovery.Serve(discovery.NewService(), dl)
	dconn, err := transport.DialUDP("srvhost", dl.Addr().Addr)
	if err != nil {
		return nil, err
	}
	c.dcli = discovery.NewClient(dconn)
	var dc core.DiscoveryClient = c.dcli
	if tr != nil {
		dc = &tdiscovery{DiscoveryClient: dc, t: tr}
	}

	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(sockDir, fmt.Sprintf("ipc-%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	if c.ipc, err = transport.ListenUnix("host0", path); err != nil {
		return nil, err
	}
	regS, regC := bertha.NewRegistry(), bertha.NewRegistry()
	localfast.Register(regS)
	localfast.Register(regC)
	envS := bertha.NewEnv("host0")
	envS.Provide(localfast.EnvListener, c.ipc)
	envS.SetDialer(&transport.MultiDialer{HostID: "host0"})
	envC := bertha.NewEnv("host0")
	var d core.Dialer = &transport.MultiDialer{HostID: "host0"}
	if tr != nil {
		d = &tdialer{Dialer: d, t: tr}
	}
	envC.SetDialer(d)
	srvEp, err := bertha.New("container-app", bertha.Wrap(bertha.LocalOrRemote()),
		bertha.WithRegistry(regS), bertha.WithEnv(envS), bertha.WithDiscovery(dc))
	if err != nil {
		return nil, err
	}
	if c.cli, err = bertha.New("client", bertha.Wrap(), bertha.WithRegistry(regC), bertha.WithEnv(envC)); err != nil {
		return nil, err
	}
	base, err := transport.ListenUDP("host0", "127.0.0.1:0")
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
	c.addr = base.Addr().Addr
	c.srv = serveEcho(ln)
	ok = true
	return c, nil
}

// lifetimeResult is what one operation's goroutine reports back.
type lifetimeResult struct {
	dial, connect time.Duration
	err           error
}

// run is a closed loop of connection lifetimes, one at a time: two
// connections at once make the server's serial accept loop stall for
// good after its first splice hang.
func (c *churnInstance) run(ctx context.Context, until time.Time, maxOps int, st *opStats) {
	for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(until); n++ {
		var msgs [churnEchoes][]byte
		for i := range msgs {
			c.seq++
			msgs[i] = make([]byte, churnPayload)
			binary.LittleEndian.PutUint64(msgs[i], c.seq)
			c.rng.Read(msgs[i][8:])
		}
		c.op(ctx, msgs, st)
	}
}

// op runs one connection lifetime on its own goroutine, so an operation
// the program never finishes costs its deadline and no more: op returns
// and drops the result.
func (c *churnInstance) op(ctx context.Context, msgs [churnEchoes][]byte, st *opStats) {
	ctx, cancel := st.opCtx(ctx)
	defer cancel()
	var root *span
	if c.tr != nil {
		ctx, root = c.tr.start(ctx, "op", false)
		defer c.tr.end(root)
	}
	t0 := time.Now()
	done := make(chan lifetimeResult, 1)
	connected := new(atomic.Bool)
	go func() { done <- c.lifetime(ctx, msgs, connected) }()
	select {
	case r := <-done:
		if r.dial > 0 {
			st.dial.add(int64(r.dial))
		}
		if r.connect > 0 {
			st.connect.add(int64(r.connect))
		}
		if !connected.Load() {
			st.connectFailed.Add(1)
		}
		switch {
		case errors.Is(r.err, errWrongOutput):
			st.check(false)
		case r.err != nil:
			st.fail(r.err)
		default:
			st.check(true)
			st.ok(t0, churnEchoes*churnPayload)
		}
	case <-ctx.Done():
		st.fail(ctx.Err())
		if !connected.Load() {
			st.connectFailed.Add(1)
		}
	}
}

func (c *churnInstance) lifetime(ctx context.Context, msgs [churnEchoes][]byte, connected *atomic.Bool) (r lifetimeResult) {
	t0 := time.Now()
	raw, err := transport.DialUDP("host0", c.addr)
	if err != nil {
		r.err = err
		return r
	}
	r.dial = time.Since(t0)
	conn, took, err := negotiate(ctx, c.tr, c.cli, raw, false)
	if err != nil {
		r.err = err
		return r
	}
	r.connect = took
	connected.Store(true)
	defer conn.Close()
	for _, m := range msgs {
		if err := conn.Send(ctx, m); err != nil {
			r.err = err
			return r
		}
		got, err := conn.Recv(ctx)
		if err != nil {
			r.err = err
			return r
		}
		if !bytes.Equal(got, m) {
			r.err = errWrongOutput
			return r
		}
	}
	return r
}

// connect-churn's connect latency comes from its own operations.
func (c *churnInstance) connect(context.Context, *opStats) {}

func (c *churnInstance) shutdown() {
	if c.srv != nil {
		c.srv.close()
	}
	if c.ipc != nil {
		c.ipc.Close()
	}
	if c.dcli != nil {
		c.dcli.Close()
	}
	if c.disc != nil {
		c.disc.Close()
	}
}
