package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bertha-net/bertha/bertha"
	"github.com/bertha-net/bertha/internal/chunnels/shard"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/kv"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/ycsb"
)

// kv-ycsb is Fig. 5's mixed deployment: a preloaded 3-shard kv.Server
// over the in-process pipe network, client 0 linking the shard
// client-push implementation and client 1 relying on the server's XDP
// steering, each with one YCSB-A operation outstanding.

const (
	kvShards    = 3
	kvRecords   = 1000
	kvValueSize = 100
	kvClients   = 2
)

// A kv value is [key KeyLen][seq u64][filler]: every value names its key
// and the write that produced it (seq 0 is the preload), and the filler
// is a seeded pool slice chosen by seq, so a Get can be checked against
// the writes issued for its key.
type kvValues struct {
	pool    []byte
	written [kvRecords]atomic.Uint64 // highest seq issued per record
	seq     atomic.Uint64
}

func (v *kvValues) encode(dst []byte, key string, seq uint64) []byte {
	dst = append(dst[:0], key...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	off := int(seq % 512)
	return append(dst, v.pool[off:off+kvValueSize-len(dst)]...)
}

// check reports whether val is a value preloaded or written for record
// rec (whose key is key).
func (v *kvValues) check(val []byte, rec int, key string, scratch []byte) bool {
	if len(val) != kvValueSize || string(val[:len(key)]) != key {
		return false
	}
	seq := binary.LittleEndian.Uint64(val[len(key):])
	if seq > v.written[rec].Load() {
		return false
	}
	return bytes.Equal(val, v.encode(scratch, key, seq))
}

type kvInstance struct {
	pn      *transport.PipeNetwork
	srv     *kv.Server
	vals    *kvValues
	tr      *tracer
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	clients [kvClients]*kv.Client
	gens    [kvClients]*ycsb.Generator
	eps     [kvClients]*bertha.Endpoint
	nprobe  int
}

func setupKV(ctx context.Context, seed int64, tr *tracer) (instance, error) {
	srv, err := kv.NewServer(kvShards)
	if err != nil {
		return nil, err
	}
	k := &kvInstance{pn: transport.NewPipeNetwork(), srv: srv, tr: tr, vals: &kvValues{}}
	lctx, cancel := context.WithCancel(context.Background())
	k.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			k.shutdown()
		}
	}()
	wrapL := func(l core.Listener, kvShard bool) core.Listener {
		if tr == nil {
			return l
		}
		return &tlistener{Listener: l, t: tr, kvShard: kvShard}
	}
	var shardAddrs []core.Addr
	for i := 0; i < kvShards; i++ {
		l, err := k.pn.Listen("srvhost", fmt.Sprintf("shard%d", i))
		if err != nil {
			return nil, err
		}
		shardAddrs = append(shardAddrs, l.Addr())
		srv.ServeShard(i, wrapL(l, true))
	}
	regS := bertha.NewRegistry()
	shard.RegisterServer(regS)
	shard.RegisterXDP(regS)
	envS := bertha.NewEnv("srvhost")
	envS.SetDialer(&transport.MultiDialer{HostID: "srvhost", Pipe: k.pn})
	envS.Provide(shard.EnvQueues, srv.Queues())
	srvEp, err := bertha.New("kv-srv", bertha.Wrap(bertha.Shard(shardAddrs, kv.ShardFunc(kvShards))),
		bertha.WithRegistry(regS), bertha.WithEnv(envS))
	if err != nil {
		return nil, err
	}
	baseL, err := k.pn.Listen("srvhost", "kv")
	if err != nil {
		return nil, err
	}
	nl, err := srvEp.Listen(lctx, wrapL(baseL, false))
	if err != nil {
		return nil, err
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		defer nl.Close()
		for {
			if _, err := nl.Accept(lctx); err != nil {
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	k.vals.pool = make([]byte, 512+kvValueSize)
	rng.Read(k.vals.pool)
	var buf []byte
	for rec := 0; rec < kvRecords; rec++ {
		key := ycsb.Key(rec)
		idx, err := kv.ShardOf(key, kvShards)
		if err != nil {
			return nil, err
		}
		padded, err := kv.PadKey(key)
		if err != nil {
			return nil, err
		}
		buf = k.vals.encode(buf, key, 0)
		srv.Shard(idx).Apply(kv.Request{Op: kv.OpPut, Key: padded, Value: buf})
	}

	st := newOpStats()
	for i := range k.clients {
		regC := bertha.NewRegistry()
		if i == 0 {
			shard.RegisterClient(regC)
		}
		envC := bertha.NewEnv(fmt.Sprintf("clihost%d", i))
		var d core.Dialer = &transport.MultiDialer{HostID: envC.Host, Pipe: k.pn}
		if tr != nil {
			d = &tdialer{Dialer: d, t: tr}
		}
		envC.SetDialer(d)
		if k.eps[i], err = bertha.New(fmt.Sprintf("kv-cli-%d", i), bertha.Wrap(),
			bertha.WithRegistry(regC), bertha.WithEnv(envC)); err != nil {
			return nil, err
		}
		if k.clients[i], err = k.dial(ctx, i, st); err != nil {
			return nil, err
		}
		if k.gens[i], err = ycsb.NewGenerator(ycsb.Config{
			Workload: ycsb.WorkloadA, Records: kvRecords,
			Dist: ycsb.Uniform, OverrideDist: true,
			ValueSize: kvValueSize, Seed: seed*kvClients + int64(i),
		}); err != nil {
			return nil, err
		}
	}
	ok = true
	return k, nil
}

// dial connects a kv client through endpoint i (0: client-push, 1: XDP).
func (k *kvInstance) dial(ctx context.Context, i int, st *opStats) (*kv.Client, error) {
	ctx, cancel := st.opCtx(ctx)
	defer cancel()
	host := k.eps[i].Env().Host
	t0 := time.Now()
	raw, err := k.pn.DialFrom(ctx, host, core.Addr{Net: "pipe", Addr: "kv"})
	if err != nil {
		return nil, err
	}
	st.dial.since(t0)
	conn, took, err := negotiate(ctx, k.tr, k.eps[i], raw, false)
	if err != nil {
		return nil, err
	}
	st.connect.add(int64(took))
	return kv.NewClient(conn), nil
}

func (k *kvInstance) run(ctx context.Context, until time.Time, maxOps int, st *opStats) {
	var wg sync.WaitGroup
	for i := range k.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k.client(ctx, i, until, maxOps, st)
		}(i)
	}
	wg.Wait()
}

func (k *kvInstance) client(ctx context.Context, i int, until time.Time, maxOps int, st *opStats) {
	cli, gen := k.clients[i], k.gens[i]
	path := &st.push
	if i == 1 {
		path = &st.xdp
	}
	val, scratch := make([]byte, 0, kvValueSize), make([]byte, 0, kvValueSize)
	for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(until); n++ {
		t0 := time.Now()
		op := gen.Next()
		st.next.since(t0)
		rec, err := strconv.Atoi(op.Key)
		if err != nil || rec < 0 || rec >= kvRecords {
			st.fail(fmt.Errorf("ycsb key %q outside the preloaded records", op.Key))
			continue
		}
		octx, cancel := st.opCtx(ctx)
		var s *span
		if k.tr != nil {
			octx, s = k.tr.start(octx, "op", false)
		}
		t1 := time.Now()
		switch op.Kind {
		case ycsb.Read:
			got, err := cli.Get(octx, op.Key)
			if err != nil {
				st.fail(err)
			} else if st.check(k.vals.check(got, rec, op.Key, scratch)) {
				st.ok(t1, len(got))
				st.read.since(t1)
				path.since(t1)
			}
		default:
			seq := k.vals.seq.Add(1)
			for w := &k.vals.written[rec]; ; {
				old := w.Load()
				if old >= seq || w.CompareAndSwap(old, seq) {
					break
				}
			}
			val = k.vals.encode(val, op.Key, seq)
			if err := cli.Update(octx, op.Key, val); err != nil {
				st.fail(err)
			} else {
				st.ok(t1, len(val))
				st.update.since(t1)
				path.since(t1)
			}
		}
		if s != nil {
			k.tr.end(s)
		}
		cancel()
	}
}

// connect is the connect probe: a fresh client through the push and
// XDP endpoints alternately, closed once connected.
func (k *kvInstance) connect(ctx context.Context, st *opStats) {
	c, err := k.dial(ctx, k.nprobe%kvClients, st)
	k.nprobe++
	if err != nil {
		st.fail(err)
		st.connectFailed.Add(1)
		return
	}
	c.Close()
}

func (k *kvInstance) shutdown() {
	for _, c := range k.clients {
		if c != nil {
			c.Close()
		}
	}
	k.cancel()
	waitBounded(&k.wg)
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.srv.Close()
	}()
	waitBounded(&k.wg)
}
