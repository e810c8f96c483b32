package testutil

import (
	"bytes"
	"testing"

	"github.com/bertha-net/bertha/internal/wire"
)

// Kernel is the per-message half of core.Kernel (testutil cannot import
// core: core's own tests import testutil).
type Kernel interface {
	Encap(b *wire.Buf) (*wire.Buf, error)
	Decap(b *wire.Buf) (*wire.Buf, error)
}

// FuzzDecap is the body of every kernel's Decap fuzz target. Decap of
// arbitrary peer bytes p must not panic and must release the Buf on
// every error path; and Decap must undo Encap, giving p back.
func FuzzDecap(t *testing.T, k Kernel, p []byte) {
	base := wire.BufsOutstanding()
	if out, err := k.Decap(wire.NewBufFrom(0, p)); err == nil {
		out.Release()
	} else if out != nil {
		t.Fatalf("Decap returned a message along with error %v", err)
	}
	if n := wire.BufsOutstanding(); n != base {
		t.Fatalf("Decap leaked a Buf: %d outstanding, want %d", n, base)
	}

	enc, err := k.Encap(wire.NewBufFrom(wire.DefaultHeadroom, p))
	if err != nil {
		t.Fatalf("Encap: %v", err)
	}
	dec, err := k.Decap(enc)
	if err != nil {
		t.Fatalf("Decap(Encap(p)): %v", err)
	}
	if got := dec.CopyOut(); !bytes.Equal(got, p) {
		t.Fatalf("Decap(Encap(p)) = %x, want %x", got, p)
	}
}
