package crypt

import (
	"testing"

	"github.com/bertha-net/bertha/internal/testutil"
	"github.com/bertha-net/bertha/internal/wire"
)

// FuzzCryptDecap feeds arbitrary peer bytes to the AES-GCM opener.
func FuzzCryptDecap(f *testing.F) {
	k, err := newKernel([]byte("fuzz-key"))
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := k.Encap(wire.NewBufFrom(wire.DefaultHeadroom, []byte("payload")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed.CopyOut())
	f.Fuzz(func(t *testing.T, p []byte) {
		testutil.FuzzDecap(t, k, p)
	})
}
