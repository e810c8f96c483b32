package compress

import (
	"bytes"
	"compress/flate"
	"testing"

	"github.com/bertha-net/bertha/internal/testutil"
)

// FuzzCompressDecap feeds arbitrary peer bytes to the inflater.
func FuzzCompressDecap(f *testing.F) {
	var z bytes.Buffer
	w, _ := flate.NewWriter(&z, flate.BestSpeed)
	w.Write([]byte("payload payload payload"))
	w.Close()
	f.Add(z.Bytes())
	w, _ = flate.NewWriter(nil, flate.BestSpeed)
	k := &kernel{w: w}
	f.Fuzz(func(t *testing.T, p []byte) {
		testutil.FuzzDecap(t, k, p)
	})
}
