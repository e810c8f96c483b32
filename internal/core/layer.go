package core

import (
	"context"

	"github.com/bertha-net/bertha/internal/wire"
)

// Kernel is the per-message transform of a stateless 1:1 chunnel:
// everything the chunnel does to one message on the way down (Encap)
// and on the way up (Decap). Layer drives it over a connection and
// supplies the datapath methods, so a kernel never handles bursts,
// errors of its neighbours, or the copying []byte facade.
//
// Both methods consume b on every path: on success they return the
// message to pass on — b itself after an in-place Prepend/TrimFront,
// or a fresh Buf at a copy boundary (b released) — and on error they
// have released b. A kernel must be safe for concurrent Encap and
// Decap calls.
type Kernel interface {
	// Encap turns one outgoing message into what the layer below sends.
	Encap(b *wire.Buf) (*wire.Buf, error)
	// Decap turns one received message into what the layer above
	// sees. An error drops the message.
	Decap(b *wire.Buf) (*wire.Buf, error)
	// Headroom reports the headroom a message entering Encap should
	// reserve, given inner, the headroom of the connection below:
	// the kernel's worst-case header plus inner for in-place kernels.
	Headroom(inner int) int
}

// Layer wraps conn with kernel k. The returned connection is the one
// burst implementation every stateless 1:1 chunnel shares, and it owns
// the batch contract:
//
//   - SendBufs encapsulates the whole burst before sending any of it.
//     An Encap failure releases the burst and returns
//     &BatchError{Sent: 0}.
//   - RecvBufs decapsulates every received message, drops the ones
//     Decap rejects (datagram semantics), and compacts the survivors
//     in order into into's prefix. It fails only when the whole burst
//     was bad, with the first Decap error — so a burst of one behaves
//     like RecvBuf.
func Layer(conn Conn, k Kernel) Conn {
	return &layerConn{Conn: conn, k: k}
}

type layerConn struct {
	Conn
	k Kernel
}

func (l *layerConn) Send(ctx context.Context, p []byte) error {
	return l.SendBuf(ctx, wire.NewBufFrom(l.Headroom(), p))
}

func (l *layerConn) SendBuf(ctx context.Context, b *wire.Buf) error {
	out, err := l.k.Encap(b)
	if err != nil {
		return err
	}
	return SendBuf(ctx, l.Conn, out)
}

func (l *layerConn) SendBufs(ctx context.Context, bs []*wire.Buf) error {
	for i, b := range bs {
		out, err := l.k.Encap(b)
		if err != nil {
			bs[i] = nil // Encap released it
			ReleaseAll(bs)
			return &BatchError{Sent: 0, Err: err}
		}
		bs[i] = out
	}
	return SendBufs(ctx, l.Conn, bs)
}

func (l *layerConn) Recv(ctx context.Context) ([]byte, error) {
	b, err := l.RecvBuf(ctx)
	if err != nil {
		return nil, err
	}
	return b.CopyOut(), nil
}

func (l *layerConn) RecvBuf(ctx context.Context) (*wire.Buf, error) {
	b, err := RecvBuf(ctx, l.Conn)
	if err != nil {
		return nil, err
	}
	return l.k.Decap(b)
}

func (l *layerConn) RecvBufs(ctx context.Context, into []*wire.Buf) (int, error) {
	n, err := RecvBufs(ctx, l.Conn, into)
	if err != nil {
		return 0, err
	}
	out := 0
	var first error
	for i := 0; i < n; i++ {
		b, err := l.k.Decap(into[i])
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		into[out] = b
		out++
	}
	// Dropped elements were released by Decap; clear the stale slots so
	// no caller can reach a Buf the pool has handed to someone else.
	clear(into[out:n])
	if out == 0 {
		return 0, first
	}
	return out, nil
}

// Headroom implements HeadroomConn.
func (l *layerConn) Headroom() int { return l.k.Headroom(HeadroomOf(l.Conn)) }
