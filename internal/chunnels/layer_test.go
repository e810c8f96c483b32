package chunnels_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bertha-net/bertha/internal/chunnels/compress"
	"github.com/bertha-net/bertha/internal/chunnels/crypt"
	"github.com/bertha-net/bertha/internal/chunnels/serialize"
	"github.com/bertha-net/bertha/internal/chunnels/traced"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/transport"
	"github.com/bertha-net/bertha/internal/wire"
)

// kernelCases are the stateless 1:1 chunnels, each built by its public
// constructor over core.Layer. rejects is false for a kernel whose
// Decap passes unrecognised bytes through instead of dropping them.
var kernelCases = []struct {
	name    string
	wrap    func(core.Conn) (core.Conn, error)
	rejects bool
}{
	{"serialize", func(c core.Conn) (core.Conn, error) { return serialize.New(c, serialize.FormatBincode) }, true},
	{"crypt", func(c core.Conn) (core.Conn, error) { return crypt.New(c, []byte("layer-contract")) }, true},
	{"traced", func(c core.Conn) (core.Conn, error) { return traced.New(c), nil }, false},
	{"compress", func(c core.Conn) (core.Conn, error) { return compress.New(c, 1) }, true},
}

// junk are wire messages no rejecting kernel accepts: a wrong format
// tag, a ciphertext shorter than a nonce, and a DEFLATE block of the
// reserved type.
var junk = [][]byte{{0x07}, {0x09, 0x09}}

// failKernel fails the Encap of its second message (counted across the
// layer's life) and passes everything else through.
type failKernel struct{ calls atomic.Int32 }

func (k *failKernel) Encap(b *wire.Buf) (*wire.Buf, error) {
	if k.calls.Add(1) == 2 {
		b.Release()
		return nil, errors.New("encap refused")
	}
	return b, nil
}

func (k *failKernel) Decap(b *wire.Buf) (*wire.Buf, error) { return b, nil }
func (k *failKernel) Headroom(inner int) int               { return inner }

// TestLayerContract runs every kernel through core.Layer over a pipe
// pair and checks the burst contract the adapter owns: single-message
// and burst round trips, per-element drops compacted in order, the
// first error for an all-bad burst, BatchError{Sent: 0} when an Encap
// fails mid-burst, and Buf conservation throughout.
func TestLayerContract(t *testing.T) {
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			ctx := ctxT(t)
			base := wire.BufsOutstanding()
			a, b := transport.Pipe(core.Addr{Addr: "a"}, core.Addr{Addr: "b"}, 64)
			defer a.Close()
			defer b.Close()
			tx, err := kc.wrap(a)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := kc.wrap(b)
			if err != nil {
				t.Fatal(err)
			}
			msg := func(i int) []byte { return []byte(fmt.Sprintf("message-%d", i)) }
			burst := func(n int) []*wire.Buf {
				bs := make([]*wire.Buf, n)
				for i := range bs {
					bs[i] = wire.NewBufFrom(core.HeadroomOf(tx), msg(i))
				}
				return bs
			}
			// recvAll reads exactly n messages through rx.RecvBufs.
			recvAll := func(n int) [][]byte {
				var got [][]byte
				into := make([]*wire.Buf, 8)
				for len(got) < n {
					k, err := core.RecvBufs(ctx, rx, into)
					if err != nil {
						t.Fatalf("RecvBufs: %v", err)
					}
					for _, m := range into[:k] {
						got = append(got, m.CopyOut())
					}
				}
				return got
			}

			// Single message, both the Buf and the copying API.
			if err := core.SendBuf(ctx, tx, wire.NewBufFrom(core.HeadroomOf(tx), msg(0))); err != nil {
				t.Fatal(err)
			}
			if m, err := core.RecvBuf(ctx, rx); err != nil || !bytes.Equal(m.CopyOut(), msg(0)) {
				t.Fatalf("RecvBuf after SendBuf: err %v", err)
			}
			if err := tx.Send(ctx, msg(1)); err != nil {
				t.Fatal(err)
			}
			if p, err := rx.Recv(ctx); err != nil || !bytes.Equal(p, msg(1)) {
				t.Fatalf("Recv after Send = %q, %v", p, err)
			}

			// Burst round trip, in order.
			if err := core.SendBufs(ctx, tx, burst(5)); err != nil {
				t.Fatal(err)
			}
			for i, p := range recvAll(5) {
				if !bytes.Equal(p, msg(i)) {
					t.Fatalf("burst element %d = %q, want %q", i, p, msg(i))
				}
			}

			if kc.rejects {
				// A burst of one bad message keeps RecvBuf's error.
				sendRaw(t, ctx, a, junk[0])
				_, wantErr := core.RecvBuf(ctx, rx)
				if wantErr == nil {
					t.Fatal("RecvBuf accepted a junk message")
				}

				// A corrupt element mid-burst is dropped; the
				// survivors arrive compacted and in order.
				good := capture(t, ctx, tx, b, 2)
				sendRaw(t, ctx, a, good[0], junk[0], good[1])
				into := make([]*wire.Buf, 8)
				n, err := core.RecvBufs(ctx, rx, into)
				if err != nil || n != 2 {
					t.Fatalf("RecvBufs over [good, junk, good] = %d, %v; want 2, nil", n, err)
				}
				for i, m := range into[:n] {
					if p := m.CopyOut(); !bytes.Equal(p, msg(i)) {
						t.Fatalf("survivor %d = %q, want %q", i, p, msg(i))
					}
				}
				if into[2] != nil {
					t.Fatal("dropped slot still holds a released Buf")
				}

				// An all-bad burst returns the first error.
				sendRaw(t, ctx, a, junk[0], junk[1])
				if n, err := core.RecvBufs(ctx, rx, into); n != 0 || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("all-bad burst = %d, %v; want 0, %v", n, err, wantErr)
				}
			} else {
				// Unrecognised bytes pass through untouched.
				sendRaw(t, ctx, a, junk[0])
				if p, err := rx.Recv(ctx); err != nil || !bytes.Equal(p, junk[0]) {
					t.Fatalf("pass-through = %q, %v", p, err)
				}
			}

			// An Encap failure mid-burst, below the kernel under test:
			// nothing is sent and the whole burst is released.
			ftx, err := kc.wrap(core.Layer(a, &failKernel{}))
			if err != nil {
				t.Fatal(err)
			}
			var be *core.BatchError
			if err := core.SendBufs(ctx, ftx, burst(3)); !errors.As(err, &be) || be.Sent != 0 {
				t.Fatalf("SendBufs with a failing Encap = %v, want BatchError{Sent: 0}", err)
			}
			short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			defer cancel()
			if m, err := core.RecvBuf(short, b); err == nil {
				m.Release()
				t.Fatal("a burst with a failed Encap reached the wire")
			}

			if n := wire.BufsOutstanding(); n != base {
				t.Fatalf("%d Bufs outstanding, want %d", n, base)
			}
		})
	}
}

// sendRaw puts messages on the wire as a single burst, bypassing any kernel.
func sendRaw(t *testing.T, ctx context.Context, c core.Conn, msgs ...[]byte) {
	t.Helper()
	bs := make([]*wire.Buf, len(msgs))
	for i, p := range msgs {
		bs[i] = wire.NewBufFrom(0, p)
	}
	if err := core.SendBufs(ctx, c, bs); err != nil {
		t.Fatal(err)
	}
}

// capture sends n messages through tx and returns their wire bytes as
// read from the raw receiving pipe half.
func capture(t *testing.T, ctx context.Context, tx, raw core.Conn, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		if err := tx.Send(ctx, []byte(fmt.Sprintf("message-%d", i))); err != nil {
			t.Fatal(err)
		}
		p, err := raw.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}
