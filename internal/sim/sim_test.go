package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{7800 * Nanosecond, "7.80us"},
		{22 * Microsecond, "22.0us"},
		{13 * Millisecond, "13.00ms"},
		{3690 * Millisecond, "3.690s"},
		{-4 * Microsecond, "-4.00us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ns: got %q want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Micros() != 1500 {
		t.Errorf("Micros: %v", d.Micros())
	}
	if d.Millis() != 1.5 {
		t.Errorf("Millis: %v", d.Millis())
	}
	if d.Seconds() != 0.0015 {
		t.Errorf("Seconds: %v", d.Seconds())
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 || MaxTime(4, 4) != 4 {
		t.Error("MaxTime wrong")
	}
}

// TestBreakdownTotalIsSum is a property test: Total always equals the sum
// of the categories, and AddAll composes.
func TestBreakdownTotalIsSum(t *testing.T) {
	f := func(vals [NumCategories]int32) bool {
		var b Breakdown
		var sum Time
		for i, v := range vals {
			d := Time(v)
			if d < 0 {
				d = -d
			}
			b.Add(Category(i), d)
			sum += d
		}
		var c Breakdown
		c.AddAll(&b)
		c.AddAll(&b)
		return b.Total() == sum && c.Total() == 2*sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBreakdownSub checks b.Sub(a) + a == b category-wise.
func TestBreakdownSub(t *testing.T) {
	f := func(a, b [NumCategories]int32) bool {
		var x, y Breakdown
		for i := range a {
			x.Add(Category(i), Time(a[i]))
			y.Add(Category(i), Time(b[i]))
		}
		d := y.Sub(x)
		for i := range d {
			if d[i]+x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategoryString(t *testing.T) {
	if CatLocal.String() != "local" || CatComm.String() != "comm" {
		t.Error("category names wrong")
	}
	if Category(99).String() != "Category(99)" {
		t.Error("out-of-range category formatting wrong")
	}
}

func TestTaskChargeAdvancesClockAndBreakdown(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	task.Charge(CatComm, 10*Microsecond)
	task.Charge(CatLocal, 5*Microsecond)
	task.Charge(CatComm, -3) // ignored
	if task.Now() != 15*Microsecond {
		t.Errorf("clock: %v", task.Now())
	}
	b := task.Snapshot()
	if b[CatComm] != 10*Microsecond || b[CatLocal] != 5*Microsecond {
		t.Errorf("breakdown: %v", b)
	}
}

func TestTaskAttributeDoesNotAdvanceClock(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	task.Attribute(CatRemoteOS, 2031*Millisecond)
	if task.Now() != 0 {
		t.Errorf("clock advanced: %v", task.Now())
	}
	if task.Snapshot()[CatRemoteOS] != 2031*Millisecond {
		t.Error("attribution lost")
	}
}

func TestTaskComputeAppliesLoadFactor(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	task.Load = func() float64 { return 2.0 }
	task.Compute(100 * Microsecond)
	if got := task.Now(); got != 200*Microsecond {
		t.Errorf("dilated compute: %v", got)
	}
	if task.Snapshot()[CatCompute] != 200*Microsecond {
		t.Error("compute attribution wrong")
	}
}

func TestTaskWaitUntil(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	task.Charge(CatLocal, 10*Microsecond)
	if now := task.WaitUntil(5 * Microsecond); now != 10*Microsecond {
		t.Errorf("past wait moved clock: %v", now)
	}
	if now := task.WaitUntil(25 * Microsecond); now != 25*Microsecond {
		t.Errorf("future wait: %v", now)
	}
	if task.Snapshot()[CatWait] != 15*Microsecond {
		t.Errorf("wait attribution: %v", task.Snapshot())
	}
}

func TestTaskCancel(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	task.CancelPoint() // no-op
	task.Cancel()
	if !task.Canceled() {
		t.Fatal("not canceled")
	}
	defer func() {
		if r := recover(); r != ErrCanceled {
			t.Errorf("panic value: %v", r)
		}
	}()
	task.CancelPoint()
	t.Fatal("unreachable")
}

// TestDetachedSpanAllocFree: with no probe attached, an OpenSpan/CloseSpan
// pair is two nil checks and must not allocate.
func TestDetachedSpanAllocFree(t *testing.T) {
	task := NewTask(1, 0, DefaultCosts())
	if n := testing.AllocsPerRun(1000, func() {
		task.OpenSpan(1, 42)
		task.CloseSpan()
	}); n != 0 {
		t.Errorf("detached span pair allocates %.1f times, want 0", n)
	}
}

func TestCostsCalibration(t *testing.T) {
	c := DefaultCosts()
	if got := c.SendTime(8); got < 7700*Nanosecond || got > 7900*Nanosecond {
		t.Errorf("1-word send: %v", got)
	}
	if got := c.SendTime(4096); got < 51*Microsecond || got > 53*Microsecond {
		t.Errorf("4KB send: %v", got)
	}
	if got := c.FetchTime(8); got < 21*Microsecond || got > 23*Microsecond {
		t.Errorf("1-word fetch: %v", got)
	}
	if got := c.FetchTime(4096); got < 79*Microsecond || got > 83*Microsecond {
		t.Errorf("4KB fetch: %v", got)
	}
	// 125 MB/s occupancy.
	if got := c.Occupancy(1 << 20); got != Time((1<<20)*8) {
		t.Errorf("occupancy: %v", got)
	}
}

func TestLinuxProfile(t *testing.T) {
	c := DefaultCosts().LinuxOS()
	if c.MapGranularity != 4<<10 {
		t.Errorf("linux granularity: %d", c.MapGranularity)
	}
	if c.OSThreadCreate >= DefaultCosts().OSThreadCreate {
		t.Error("linux thread create should be cheaper")
	}
}

// TestRNGDeterminism: same seed, same stream; Split gives a different one.
func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(42)
	d := c.Split()
	same := true
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("split stream identical to parent")
	}
}

// TestRNGRanges is a property test on Intn/Float64 bounds.
func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		fl := r.Float64()
		return v >= 0 && v < m && fl >= 0 && fl < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewRNG(1).Intn(0)
}
