// Package compress implements the compression chunnel (DEFLATE per
// message). It is an extra composable stage used by the optimizer
// ablations: it is idempotent metadata-wise (compressing twice wastes
// cycles for no benefit, so the optimizer eliminates adjacent
// duplicates) and commutes with nothing by default (compressing after
// encryption is useless, and the metadata encodes that by omission).
package compress

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/bertha-net/bertha/internal/chunnels/base"
	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/spec"
	"github.com/bertha-net/bertha/internal/wire"
)

// Type is the chunnel type name.
const Type = "compress"

// Node builds the DAG node: compress(level). Level follows
// compress/flate (1 fastest … 9 best, -1 default).
func Node(level int) spec.Node {
	return spec.New(Type, wire.Int(int64(level)))
}

// Register installs the userspace fallback implementation and optimizer
// metadata.
func Register(reg *core.Registry) {
	reg.MustRegister(&base.Impl{
		ImplInfo: core.ImplInfo{
			Name:     Type + "/flate",
			Type:     Type,
			Endpoint: spec.EndpointBoth,
			Location: core.LocUserspace,
		},
		WrapFn: func(ctx context.Context, conn core.Conn, args, params []wire.Value, side core.Side, env *core.Env) (core.Conn, error) {
			level := int(base.IntOr(args, 0, int64(flate.DefaultCompression)))
			return New(conn, level)
		},
	})
	reg.SetTypeMeta(Type, core.TypeMeta{Idempotent: true})
}

// New wraps conn with per-message DEFLATE compression.
func New(conn core.Conn, level int) (core.Conn, error) {
	w, err := flate.NewWriter(nil, level)
	if err != nil {
		return nil, fmt.Errorf("compress: invalid level %d", level)
	}
	return core.Layer(conn, &kernel{w: w, inner: core.HeadroomOf(conn)}), nil
}

// kernel deflates and inflates whole messages. Compression rewrites
// the message, so it is a copy boundary rather than a prepend: Encap
// returns a fresh Buf reserving the headroom of the connection below.
type kernel struct {
	inner int // headroom of the connection below
	mu    sync.Mutex
	buf   bytes.Buffer
	w     *flate.Writer
}

func (k *kernel) Encap(b *wire.Buf) (*wire.Buf, error) {
	defer b.Release()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.buf.Reset()
	k.w.Reset(&k.buf)
	if _, err := k.w.Write(b.Bytes()); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	if err := k.w.Close(); err != nil {
		return nil, fmt.Errorf("compress: %w", err)
	}
	return wire.NewBufFrom(k.inner, k.buf.Bytes()), nil
}

// Decap inflates into an unpooled buffer (inflation allocates its
// output regardless).
func (k *kernel) Decap(b *wire.Buf) (*wire.Buf, error) {
	defer b.Release()
	r := flate.NewReader(bytes.NewReader(b.Bytes()))
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return nil, fmt.Errorf("compress: inflate: %w", err)
	}
	return wire.WrapBuf(out), nil
}

// Headroom: upstream headroom cannot reach the layers below a copy
// boundary, so reserving it would be waste.
func (k *kernel) Headroom(int) int { return 0 }
