package serialize

import (
	"testing"

	"github.com/bertha-net/bertha/internal/testutil"
)

// FuzzSerializeDecap feeds arbitrary peer bytes to the format-tag check.
func FuzzSerializeDecap(f *testing.F) {
	f.Add([]byte{formatTag[FormatBincode], 'o', 'k'})
	f.Fuzz(func(t *testing.T, p []byte) {
		testutil.FuzzDecap(t, tagKernel(formatTag[FormatBincode]), p)
	})
}
