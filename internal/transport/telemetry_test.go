package transport

import (
	"sync"
	"testing"

	"github.com/bertha-net/bertha/internal/core"
	"github.com/bertha-net/bertha/internal/telemetry"
)

// TestReactorConcurrentStartGauges starts two reactor listeners at
// once, each with more shards than any listener before it, so both
// publish per-shard gauges concurrently (run under -race to check that
// the registration is serialized). Afterwards every shard index has its
// gauge.
func TestReactorConcurrentStartGauges(t *testing.T) {
	shardGaugesMu.Lock()
	published := reactorShardGauges
	shardGaugesMu.Unlock()

	ls := make([]*reactorListener, 2)
	for i := range ls {
		l, err := ListenUDP("srv", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		ls[i] = l.(*reactorListener)
		if err := ls[i].ConfigureReactor(core.ReactorConfig{Shards: published + 1 + i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.start()
		}()
	}
	wg.Wait()

	gauges := telemetry.Default().Snapshot().Gauges
	for i := 0; i < published+len(ls); i++ {
		if _, ok := gauges[shardGaugeName(i)]; !ok {
			t.Fatalf("no gauge %s after concurrent starts", shardGaugeName(i))
		}
	}
}
