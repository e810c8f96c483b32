package traced

import (
	"testing"

	"github.com/bertha-net/bertha/internal/telemetry/tracing"
	"github.com/bertha-net/bertha/internal/testutil"
)

// FuzzTracedDecap feeds arbitrary peer bytes to the trace-context
// parser.
func FuzzTracedDecap(f *testing.F) {
	ctx := make([]byte, tracing.ContextSize)
	tracing.EncodeContext(ctx, 0x0123456789abcdef, 7, 2)
	f.Add(append(ctx, "payload"...))
	f.Fuzz(func(t *testing.T, p []byte) {
		testutil.FuzzDecap(t, kernel{}, p)
	})
}
