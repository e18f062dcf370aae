package critarea

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"defectsim/internal/defect"
	"defectsim/internal/geom"
)

func TestShortAreaParallelWires(t *testing.T) {
	// Two parallel horizontal wires, width 2, length 100, spacing s = 4.
	// A square defect of side x shorts them iff x > s; the critical region
	// is then a band of height (x − s) over the common run minus/plus end
	// effects: dilating each wire by x/2 gives overlap height (x − s) and
	// width 100 + x (both ends extend by x/2). Exact expected area:
	// (100 + x)·(x − s).
	a := []geom.Rect{geom.R(0, 0, 100, 2)}
	b := []geom.Rect{geom.R(0, 6, 100, 8)}
	const s = 4
	for _, x := range []int{1, 2, 3, 4} {
		if got := ShortArea(a, b, x); got != 0 {
			t.Errorf("x=%d ≤ spacing must give 0, got %g", x, got)
		}
	}
	for _, x := range []int{5, 6, 8, 12} {
		want := float64(100+x) * float64(x-s)
		if got := ShortArea(a, b, x); math.Abs(got-want) > 1e-9 {
			t.Errorf("x=%d: ShortArea = %g, want %g", x, got, want)
		}
	}
}

func TestShortAreaOddSizesExact(t *testing.T) {
	// Half-λ scaling must make odd sizes exact, not rounded: two unit
	// squares with gap 1 and size 3 → each dilated by 1.5.
	a := []geom.Rect{geom.R(0, 0, 2, 2)}
	b := []geom.Rect{geom.R(3, 0, 5, 2)}
	// Dilated: a' = [-1.5,3.5]×[-1.5,3.5], b' = [1.5,6.5]×[-1.5,3.5];
	// overlap = 2×5 = 10.
	if got := ShortArea(a, b, 3); math.Abs(got-10) > 1e-9 {
		t.Fatalf("ShortArea odd = %g, want 10", got)
	}
}

func TestShortAreaEmptyAndZero(t *testing.T) {
	a := []geom.Rect{geom.R(0, 0, 10, 2)}
	if ShortArea(nil, a, 5) != 0 || ShortArea(a, nil, 5) != 0 || ShortArea(a, a, 0) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
}

func TestShortAreaMonotoneInSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []geom.Rect {
			n := 1 + rng.Intn(4)
			rs := make([]geom.Rect, n)
			for i := range rs {
				x, y := rng.Intn(60), rng.Intn(60)
				rs[i] = geom.R(x, y, x+1+rng.Intn(20), y+1+rng.Intn(6))
			}
			return rs
		}
		a, b := mk(), mk()
		prev := -1.0
		for x := 1; x <= 16; x++ {
			cur := ShortArea(a, b, x)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenArea(t *testing.T) {
	wire := []geom.Rect{geom.R(0, 0, 50, 2)} // width 2, length 50
	if OpenArea(wire, 2) != 0 {
		t.Fatal("defect ≤ width cannot sever")
	}
	if got := OpenArea(wire, 5); got != 50*3 {
		t.Fatalf("OpenArea = %g, want 150", got)
	}
	two := append(wire, geom.R(0, 10, 10, 14)) // width 4, length 10
	if got := OpenArea(two, 6); got != 50*4+10*2 {
		t.Fatalf("OpenArea two wires = %g", got)
	}
	if OpenArea(nil, 10) != 0 || OpenArea(wire, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCutOpenArea(t *testing.T) {
	cuts := []geom.Rect{geom.R(0, 0, 2, 2), geom.R(10, 10, 12, 12)}
	if CutOpenArea(cuts, 1) != 0 {
		t.Fatal("defect smaller than cut cannot kill it")
	}
	if got := CutOpenArea(cuts, 2); got != 8 {
		t.Fatalf("CutOpenArea = %g, want 8", got)
	}
}

func TestAverageIntegration(t *testing.T) {
	dist := defect.SizeDist{X0: 2}
	// Constant A(x) = 1: average = Σ f(x) ≈ ∫f ≈ CDF(max) mass sampled at
	// integers — just require it to be positive and below 1.2.
	avg := Average(dist, 30, func(int) float64 { return 1 })
	if avg <= 0.5 || avg > 1.2 {
		t.Fatalf("Average of constant 1 = %g, implausible", avg)
	}
}

func TestAvgShortLessThanMaxSize(t *testing.T) {
	dist := defect.SizeDist{X0: 2}
	a := []geom.Rect{geom.R(0, 0, 100, 2)}
	b := []geom.Rect{geom.R(0, 5, 100, 7)}
	avg := AvgShortArea(a, b, dist, 24)
	if avg <= 0 {
		t.Fatal("parallel wires must have positive short critical area")
	}
	// Wires twice as far apart must have a much smaller critical area.
	c := []geom.Rect{geom.R(0, 11, 100, 13)}
	avgFar := AvgShortArea(a, c, dist, 24)
	if avgFar >= avg/2 {
		t.Fatalf("critical area must fall steeply with spacing: near %g far %g", avg, avgFar)
	}
}

func TestAvgOpenNarrowVsWide(t *testing.T) {
	dist := defect.SizeDist{X0: 2}
	narrow := AvgOpenArea([]geom.Rect{geom.R(0, 0, 100, 2)}, dist, 24)
	wide := AvgOpenArea([]geom.Rect{geom.R(0, 0, 100, 6)}, dist, 24)
	if narrow <= wide {
		t.Fatalf("narrow wires must be more open-prone: narrow %g wide %g", narrow, wide)
	}
}

func TestAvgCutOpenArea(t *testing.T) {
	dist := defect.SizeDist{X0: 2}
	one := AvgCutOpenArea([]geom.Rect{geom.R(0, 0, 2, 2)}, dist, 24)
	two := AvgCutOpenArea([]geom.Rect{geom.R(0, 0, 2, 2), geom.R(8, 0, 10, 2)}, dist, 24)
	if one <= 0 || math.Abs(two-2*one) > 1e-9 {
		t.Fatalf("cut weights must add: one %g two %g", one, two)
	}
}

// randomRects returns 1..maxN rects with corners in [0, 60) and extents in
// [1, 20]×[1, 6], the shape mix of TestShortAreaMonotoneInSizeProperty.
func randomRects(rng *rand.Rand, maxN int) []geom.Rect {
	rs := make([]geom.Rect, 1+rng.Intn(maxN))
	for i := range rs {
		x, y := rng.Intn(60), rng.Intn(60)
		rs[i] = geom.R(x, y, x+1+rng.Intn(20), y+1+rng.Intn(6))
	}
	return rs
}

func TestShortAreaThresholdProperty(t *testing.T) {
	// A square defect of side x shorts two shapes with per-axis gaps dx, dy
	// iff x > max(dx, dy): the first size with area is 1 + the closest
	// pair's larger per-axis gap.
	const maxSize = 30
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRects(rng, 3), randomRects(rng, 3)
		g := math.MaxInt
		for _, ra := range a {
			for _, rb := range b {
				dx, dy := ra.GapTo(rb)
				g = min(g, max(dx, dy))
			}
		}
		if g+1 > maxSize {
			return ShortArea(a, b, maxSize) == 0
		}
		return ShortArea(a, b, g+1) > 0 && ShortArea(a, b, g) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// perSizeAvg is the reference AvgShortArea: one ShortArea per size.
func perSizeAvg(a, b []geom.Rect, dist defect.SizeDist, maxSize int) float64 {
	return Average(dist, maxSize, func(x int) float64 { return ShortArea(a, b, x) })
}

func TestAvgShortAreaMatchesPerSizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRects(rng, 8), randomRects(rng, 8)
		dist := defect.SizeDist{X0: 1 + 3*rng.Float64()}
		maxSize := 1 + rng.Intn(30)
		got, want := AvgShortArea(a, b, dist, maxSize), perSizeAvg(a, b, dist, maxSize)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Logf("seed %d: one-pass %v, per-size %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAvgShortAreaConcurrent(t *testing.T) {
	// Concurrent extractions share the pooled curve buffers; every
	// goroutine must still get its own pair's exact result.
	dist := defect.SizeDist{X0: 2}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				a, b := randomRects(rng, 8), randomRects(rng, 8)
				got, want := AvgShortArea(a, b, dist, 24), perSizeAvg(a, b, dist, 24)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("goroutine %d pair %d: one-pass %v, per-size %v", seed, i, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestAvgShortAreaDegenerate(t *testing.T) {
	dist := defect.SizeDist{X0: 2}
	a := []geom.Rect{geom.R(0, 0, 10, 2)}
	far := []geom.Rect{geom.R(0, 1000, 10, 1002)}
	for _, c := range []struct {
		name    string
		a, b    []geom.Rect
		maxSize int
	}{
		{"empty a", nil, a, 24},
		{"empty b", a, nil, 24},
		{"out of reach", a, far, 24},
		{"no sizes", a, a, 0},
	} {
		if got := AvgShortArea(c.a, c.b, dist, c.maxSize); got != 0 {
			t.Errorf("%s: AvgShortArea = %g, want 0", c.name, got)
		}
	}
	// Identical and zero-width shapes still short from size 1 on.
	line := []geom.Rect{geom.R(5, 0, 5, 10)}
	for _, b := range [][]geom.Rect{a, line} {
		got, want := AvgShortArea(a, b, dist, 24), perSizeAvg(a, b, dist, 24)
		if want <= 0 || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("AvgShortArea(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// FuzzAvgShortArea checks the one-pass curve against the per-size
// reference on two small rect sets decoded from the input: a header byte
// per set count, the size-distribution peak and maxSize, then four bytes
// per rect (signed corner, unsigned extent mod 32, so zero-width shapes,
// overlaps, touches and gaps all occur).
func FuzzAvgShortArea(f *testing.F) {
	f.Add([]byte{0x21, 3, 24, 0, 0, 100, 2, 0, 6, 100, 2, 2, 3, 2, 2})
	f.Add([]byte{0x33, 1, 12, 10, 10, 4, 4, 250, 250, 31, 31, 12, 12, 0, 5, 0, 0, 0, 0, 20, 20, 3, 3})
	f.Add([]byte{0x11, 7, 30, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		na, nb := int(data[0]&0x0f)%6, int(data[0]>>4)%6
		dist := defect.SizeDist{X0: 0.5 + float64(data[1]%16)/2}
		maxSize := int(data[2] % 33)
		data = data[3:]
		next := func() (geom.Rect, bool) {
			if len(data) < 4 {
				return geom.Rect{}, false
			}
			x, y := int(int8(data[0])), int(int8(data[1]))
			r := geom.R(x, y, x+int(data[2]%32), y+int(data[3]%32))
			data = data[4:]
			return r, true
		}
		var a, b []geom.Rect
		for i := 0; i < na+nb; i++ {
			r, ok := next()
			if !ok {
				break
			}
			if i < na {
				a = append(a, r)
			} else {
				b = append(b, r)
			}
		}
		got, want := AvgShortArea(a, b, dist, maxSize), perSizeAvg(a, b, dist, maxSize)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("a=%v b=%v X0=%g maxSize=%d: one-pass %v, per-size %v", a, b, dist.X0, maxSize, got, want)
		}
	})
}
