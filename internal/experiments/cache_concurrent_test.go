package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"defectsim/internal/netlist"
)

// TestConcurrentCacheSamePath hammers one cache path from many goroutines
// — the access pattern a serving daemon produces — and pins the contract:
// every call succeeds, partial reads during rename races fall back to a
// fresh run (never an error), and the file left behind is a loadable
// cache for whichever config wrote last. Run under -race in CI.
func TestConcurrentCacheSamePath(t *testing.T) {
	nl := netlist.RippleAdder(3)
	path := filepath.Join(t.TempDir(), "shared.cache")
	cfgA := smallConfig()
	cfgA.RandomVectors = 8
	cfgB := cfgA
	cfgB.Seed = cfgA.Seed + 1 // different digest: A and B keep evicting each other

	const goroutines = 6
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		cfg := cfgA
		if g%2 == 1 {
			cfg = cfgB
		}
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p, _, err := RunCachedCtx(context.Background(), nl, cfg, path)
				if err != nil {
					errs <- err
					return
				}
				if p.TestSet == nil || p.SwitchRes == nil {
					t.Error("cached pipeline missing simulation results")
					return
				}
			}
		}(cfg)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent RunCachedCtx failed: %v", err)
	}

	// Whatever won the last write must be a clean, loadable cache for its
	// own config. Probe the file's bytes with DecodeCached directly — a
	// RunCachedCtx miss would overwrite the file and mask which config
	// actually won.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pA, errA := DecodeCached(context.Background(), nl, cfgA, data)
	pB, errB := DecodeCached(context.Background(), nl, cfgB, data)
	for _, err := range []error{errA, errB} {
		if err != nil && !errors.Is(err, errCacheMismatch) {
			t.Fatalf("file left behind is corrupt: %v", err)
		}
	}
	hitA, hitB := errA == nil, errB == nil
	if !hitA && !hitB {
		t.Fatal("file left behind is a hit for neither config")
	}
	if hitA && hitB {
		t.Fatal("one file cannot satisfy two different configs")
	}
	winner := pA
	if hitB {
		winner = pB
	}
	if winner.TestSet == nil || winner.SwitchRes == nil {
		t.Fatal("winning cache file is missing simulation results")
	}
}

// TestCacheKeyIdentity pins what participates in the result-cache key:
// result-determining fields change it, execution-only knobs do not.
func TestCacheKeyIdentity(t *testing.T) {
	cfg := DefaultConfig()
	base := CacheKey("c17", cfg)
	if base == "" || len(base) != 32 {
		t.Fatalf("malformed key %q", base)
	}
	same := cfg
	same.Workers = 7 // execution-only
	if CacheKey("c17", same) != base {
		t.Fatal("Workers must not change the cache key")
	}
	if CacheKey("c432", cfg) == base {
		t.Fatal("circuit must change the cache key")
	}
	seed := cfg
	seed.Seed++
	if CacheKey("c17", seed) == base {
		t.Fatal("seed must change the cache key")
	}
	vec := cfg
	vec.RandomVectors++
	if CacheKey("c17", vec) == base {
		t.Fatal("vector budget must change the cache key")
	}
}
