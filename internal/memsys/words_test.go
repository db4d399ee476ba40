package memsys

import (
	"math"
	"math/rand"
	"testing"
)

// wordPatterns are the bit patterns a word store could mangle: NaNs with
// payloads (quiet and signalling, both signs), -0, subnormals, infinities
// and the extremes.
var wordPatterns = []uint64{
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8deadbeef0001, 0x7ff4000000000000,
	0x8000000000000000, 0x0000000000000001, 0x000fffffffffffff, 0x800fffffffffffff,
	0x7ff0000000000000, 0xfff0000000000000, 0x7fefffffffffffff, 0xffffffffffffffff,
	0x0102030405060708,
}

// TestWordStoreRoundTrips: random block, scalar and strided writes of
// awkward bit patterns, at random offsets and lengths that cross page
// boundaries, read back bit for bit through every reader, so the block,
// scalar and strided paths agree with each other and with a plain model of
// the arena's words.
func TestWordStoreRoundTrips(t *testing.T) {
	const pages = 8
	r := rand.New(rand.NewSource(1))
	acc, _, task := newAcc()
	model := make([]uint64, pages*PageWords)
	addr := func(i int) Addr { return SpaceBase + Addr(8*i) }
	pattern := func() uint64 {
		if r.Intn(3) == 0 {
			return r.Uint64()
		}
		return wordPatterns[r.Intn(len(wordPatterns))]
	}
	// span picks a run of n words from first, crossing up to three pages.
	span := func() (first, n int) {
		n = 1 + r.Intn(3*PageWords)
		return r.Intn(len(model) - n + 1), n
	}
	// strided picks up to 20 groups of w words, stride bytes apart.
	strided := func() (first, stride, w, n int) {
		w = 1 + r.Intn(3)
		stride = 8 * (w + r.Intn(PageWords))
		groups := 1 + r.Intn(min(20, (len(model)-w)/(stride/8)+1))
		words := (groups-1)*stride/8 + w
		return r.Intn(len(model) - words + 1), stride, w, groups * w
	}
	at := func(first, stride, w, k int) int { return first + k/w*stride/8 + k%w }

	for iter := 0; iter < 400; iter++ {
		switch r.Intn(5) {
		case 0:
			first, n := span()
			v := make([]float64, n)
			for k := range v {
				v[k] = math.Float64frombits(pattern())
				model[first+k] = math.Float64bits(v[k])
			}
			acc.WriteF64s(task, addr(first), v)
		case 1:
			first, n := span()
			v := make([]int64, n)
			for k := range v {
				v[k] = int64(pattern())
				model[first+k] = uint64(v[k])
			}
			acc.WriteI64s(task, addr(first), v)
		case 2:
			i, b := r.Intn(len(model)), pattern()
			acc.WriteF64(task, addr(i), math.Float64frombits(b))
			model[i] = b
		case 3:
			i, b := r.Intn(len(model)), pattern()
			acc.WriteI64(task, addr(i), int64(b))
			model[i] = b
		case 4:
			first, stride, w, n := strided()
			v := make([]float64, n)
			for k := range v {
				v[k] = math.Float64frombits(pattern())
				model[at(first, stride, w, k)] = math.Float64bits(v[k])
			}
			acc.WriteF64Strided(task, addr(first), stride, w, v)
		}

		first, n := span()
		fs, is := make([]float64, n), make([]int64, n)
		acc.ReadF64s(task, addr(first), fs)
		acc.ReadI64s(task, addr(first), is)
		for k := range fs {
			want := model[first+k]
			if got := math.Float64bits(fs[k]); got != want {
				t.Fatalf("iter %d: ReadF64s word %d = %#x, want %#x", iter, first+k, got, want)
			}
			if got := uint64(is[k]); got != want {
				t.Fatalf("iter %d: ReadI64s word %d = %#x, want %#x", iter, first+k, got, want)
			}
		}
		for range 8 {
			i := r.Intn(len(model))
			if got := math.Float64bits(acc.ReadF64(task, addr(i))); got != model[i] {
				t.Fatalf("iter %d: ReadF64 word %d = %#x, want %#x", iter, i, got, model[i])
			}
			if got := uint64(acc.ReadI64(task, addr(i))); got != model[i] {
				t.Fatalf("iter %d: ReadI64 word %d = %#x, want %#x", iter, i, got, model[i])
			}
		}
		sf, stride, w, sn := strided()
		v := make([]float64, sn)
		acc.ReadF64Strided(task, addr(sf), stride, w, v)
		for k := range v {
			if got, want := math.Float64bits(v[k]), model[at(sf, stride, w, k)]; got != want {
				t.Fatalf("iter %d: ReadF64Strided word %d = %#x, want %#x", iter, at(sf, stride, w, k), got, want)
			}
		}
	}
}
