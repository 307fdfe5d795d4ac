package vkernel

import (
	"sync"
	"testing"

	"kernelgpt/internal/prog"
	"kernelgpt/internal/telemetry"
)

// TestPoolCounters: the concurrent Run path counts every borrow, and
// misses (fresh VM builds) never exceed borrows. Exact reuse depends
// on sync.Pool internals, so only the invariants are pinned.
func TestPoolCounters(t *testing.T) {
	tgt := targetFor(t, "dm")
	k := New(testCorpus)
	reg := telemetry.NewRegistry()
	k.InstrumentPool(reg)
	g := prog.NewGen(tgt, 1)
	const runs = 32
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		p := g.Generate(3).Detach() // read concurrently with the next Generate
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Run(p)
		}()
	}
	wg.Wait()
	gets := reg.Counter("vkernel_vm_pool_gets_total").Value()
	misses := reg.Counter("vkernel_vm_pool_misses_total").Value()
	if gets != runs {
		t.Errorf("pool gets = %d, want %d", gets, runs)
	}
	if misses < 1 || misses > gets {
		t.Errorf("pool misses = %d, want in [1, %d]", misses, gets)
	}
}

// TestUninstrumentedPoolIsInert: the default kernel carries nil
// counters and Run must not panic or allocate telemetry.
func TestUninstrumentedPoolIsInert(t *testing.T) {
	tgt := targetFor(t, "dm")
	k := New(testCorpus)
	g := prog.NewGen(tgt, 1)
	if res := k.Run(g.Generate(3)); res == nil {
		t.Fatal("nil result")
	}
	if k.poolGets != nil || k.poolMisses != nil {
		t.Fatal("counters allocated without InstrumentPool")
	}
}
