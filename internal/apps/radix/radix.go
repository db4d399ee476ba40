// Package radix ports the SPLASH-2 RADIX kernel: a parallel radix sort.
// Each pass builds per-processor histograms over contiguous key blocks, a
// global prefix computes write offsets, and the permutation phase scatters
// keys across the whole destination array — the communication- and
// false-sharing-heavy access pattern the paper cites ([5,16]).
package radix

import (
	"cables/internal/apps/appapi"
	"cables/internal/memsys"
	"cables/internal/sim"
)

// Config sizes the RADIX run.
type Config struct {
	// N is the number of 64-bit keys (paper: n16777216; scaled default 128K).
	N int
	// RadixBits is the digit width (SPLASH default: 10 bits -> radix 1024).
	RadixBits int
	// Passes is the number of digit passes.
	Passes int
}

// DefaultConfig returns the scaled default problem size.
func DefaultConfig() Config { return Config{N: 128 << 10, RadixBits: 10, Passes: 2} }

const opCost = 5 * sim.Nanosecond

// Run executes RADIX on rt.
func Run(rt appapi.Runtime, cfg Config) appapi.Result {
	if cfg.N == 0 {
		cfg = DefaultConfig()
	}
	n := cfg.N
	radix := 1 << cfg.RadixBits
	procs := rt.Procs()
	main := rt.Main()
	acc := rt.Acc()

	src, err := rt.Malloc(main, "radix.keys", int64(n)*8)
	if err != nil {
		panic("radix: " + err.Error())
	}
	dst, err := rt.Malloc(main, "radix.keys2", int64(n)*8)
	if err != nil {
		panic("radix: " + err.Error())
	}
	// hist[p][d]: per-processor digit counts; offs[p][d]: write cursors.
	hist, err := rt.Malloc(main, "radix.hist", int64(procs)*int64(radix)*8)
	if err != nil {
		panic("radix: " + err.Error())
	}
	offs, err := rt.Malloc(main, "radix.offs", int64(procs)*int64(radix)*8)
	if err != nil {
		panic("radix: " + err.Error())
	}
	histA := func(p, d int) memsys.Addr { return hist + memsys.Addr((p*radix+d)*8) }
	offsA := func(p, d int) memsys.Addr { return offs + memsys.Addr((p*radix+d)*8) }

	var sec appapi.Section
	var red appapi.Reduce

	appapi.RunWorkers(rt, procs, func(t *sim.Task, p int) {
		lo, hi := share(n, procs, p)
		keys := make([]int64, hi-lo)
		counts := make([]int64, radix)

		// Init: fill owned key block with a deterministic pseudo-random
		// sequence bounded by the sortable digit range.
		rng := newWorkerRNG(p)
		mask := int64(1)<<(cfg.RadixBits*cfg.Passes) - 1
		for i := range keys {
			keys[i] = int64(rng.Uint64()) & mask
		}
		acc.WriteI64s(t, src+memsys.Addr(lo*8), keys)
		rt.Barrier(t, "radix.init", procs)
		sec.Enter(t)

		from, to := src, dst
		for pass := 0; pass < cfg.Passes; pass++ {
			shift := uint(pass * cfg.RadixBits)
			// Phase 1: local histogram over the owned block.
			acc.ReadI64s(t, from+memsys.Addr(lo*8), keys)
			for i := range counts {
				counts[i] = 0
			}
			for _, k := range keys {
				counts[(k>>shift)&int64(radix-1)]++
			}
			t.Compute(sim.Time(len(keys)) * 2 * opCost)
			acc.WriteI64s(t, histA(p, 0), counts)
			rt.Barrier(t, "radix.hist", procs)

			// Phase 2: processor 0 computes global prefix offsets.
			if p == 0 {
				cursor := int64(0)
				col := make([]int64, procs)
				for d := 0; d < radix; d++ {
					for q := 0; q < procs; q++ {
						col[q] = acc.ReadI64(t, histA(q, d))
					}
					for q := 0; q < procs; q++ {
						acc.WriteI64(t, offsA(q, d), cursor)
						cursor += col[q]
					}
				}
				t.Compute(sim.Time(radix*procs) * 2 * opCost)
			}
			rt.Barrier(t, "radix.prefix", procs)

			// Phase 3: permute — scattered remote writes over the whole
			// destination array (heavy diffing at the closing barrier).
			acc.ReadI64s(t, offsA(p, 0), counts)
			for _, k := range keys {
				d := (k >> shift) & int64(radix-1)
				acc.WriteI64(t, to+memsys.Addr(counts[d]*8), k)
				counts[d]++
			}
			t.Compute(sim.Time(len(keys)) * 3 * opCost)
			rt.Barrier(t, "radix.permute", procs)
			from, to = to, from
		}

		// Verify sortedness of the owned block of the final array.
		acc.ReadI64s(t, from+memsys.Addr(lo*8), keys)
		sum := 0.0
		violations := 0.0
		prev := int64(-1)
		if lo > 0 {
			prev = acc.ReadI64(t, from+memsys.Addr((lo-1)*8))
		}
		for _, k := range keys {
			if k < prev {
				violations++
			}
			prev = k
			sum += float64(k)
		}
		red.Add(p, sum+float64(violations*1e18)) // violations poison the checksum
		sec.Leave(t)
	})

	res := appapi.Result{App: "RADIX", Checksum: red.Sum(procs)}
	appapi.Finalize(rt, &res, &sec)
	return res
}

// newWorkerRNG seeds worker p's deterministic key stream.
func newWorkerRNG(p int) *sim.RNG { return sim.NewRNG(uint64(p)*77 + 13) }

func share(n, procs, p int) (lo, hi int) {
	per := n / procs
	rem := n % procs
	lo = p*per + min(p, rem)
	hi = lo + per
	if p < rem {
		hi++
	}
	return lo, hi
}
