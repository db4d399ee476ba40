package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// resultFile is out/result.json: every run of a set, with the host it was
// taken on.  -compare reads two of them.
type resultFile struct {
	Host      fingerprint            `json:"host"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]workloadSet `json:"workloads"`
}

// workloadSet is one workload's runs: the tracing-off runs, one per seed,
// and at most one traced run.
type workloadSet struct {
	Runs   []*result `json:"runs"`
	Traced *result   `json:"traced,omitempty"`
}

// values returns one end-to-end metric across the set's runs.
func (s workloadSet) values(metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func (s workloadSet) failed() (failed, attempted int) {
	for _, r := range s.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// runSet runs every workload `runs` times with tracing off, each run on its
// own seed starting at r.cfg.seed, and once traced if asked.
func runSet(ctx context.Context, r *runner, runs int, traced bool, childEnv string) (*resultFile, error) {
	rf := &resultFile{Host: hostFingerprint(childEnv), Seconds: r.cfg.seconds, Workloads: map[string]workloadSet{}}
	first := r.cfg.seed
	for i := range workloads {
		w := &workloads[i]
		var set workloadSet
		for n := 0; n < runs; n++ {
			r.cfg.seed, r.cfg.trace = first+uint64(n), false
			res, err := r.run(ctx, w)
			if err != nil {
				return nil, err
			}
			printResult(w.name, res)
			set.Runs = append(set.Runs, res)
		}
		if traced {
			r.cfg.seed, r.cfg.trace = first, true
			res, err := r.run(ctx, w)
			if err != nil {
				return nil, err
			}
			printResult(w.name+" (traced)", res)
			set.Traced = res
		}
		rf.Workloads[w.name] = set
	}
	r.cfg.seed = first
	return rf, nil
}

func (rf *resultFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll is the one command: every workload, tracing off and traced, every
// metric printed by name, and out/result.json written.
func runAll(ctx context.Context, r *runner, childEnv string) error {
	rf, err := runSet(ctx, r, 1, true, childEnv)
	if err != nil {
		return err
	}
	path := filepath.Join(r.e.outDir, "result.json")
	fmt.Printf("# wrote %s\n", path)
	return rf.write(path)
}

// runAA runs two sets of runs of the same code, as the acceptance driver
// does, and checks every bound: each end-to-end metric's inter-quartile
// spread within its bound in both sets (set-up time excepted), and the
// second set's median not worse than the first's by more than the bound.
func runAA(ctx context.Context, r *runner, runs int, childEnv string) error {
	var sets [2]*resultFile
	for i := range sets {
		rf, err := runSet(ctx, r, runs, false, childEnv)
		if err != nil {
			return err
		}
		if err := rf.write(filepath.Join(r.e.outDir, fmt.Sprintf("aa-%c.json", 'a'+i))); err != nil {
			return err
		}
		sets[i] = rf
		r.cfg.seed += uint64(runs)
	}
	bad := 0
	fmt.Printf("\n%-16s %-20s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "drift", "bound")
	for _, w := range workloads {
		a, b := sets[0].Workloads[w.name], sets[1].Workloads[w.name]
		for _, d := range endToEnd {
			xa, xb := a.values(d.name), b.values(d.name)
			drift := worseBy(median(xa), median(xb), d.better == "lower")
			sa, sb := spread(xa), spread(xb)
			flag := ""
			if drift > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				flag = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-16s %-20s %12.4f %12.4f %8.4f %8.4f %+8.4f  %.2f%s\n",
				w.name, d.name, median(xa), median(xb), sa, sb, drift, d.bound, flag)
		}
		fa, na := a.failed()
		fb, nb := b.failed()
		fmt.Printf("%-16s failed %d of %d, then %d of %d\n", w.name, fa, na, fb, nb)
	}
	if bad > 0 {
		return fmt.Errorf("-aa: %d (workload, metric) pairs out of bound", bad)
	}
	fmt.Println("-aa: every bound holds")
	return nil
}

// compareFiles prints a verdict per (workload, end-to-end metric) of change
// against parent: better, worse, same, or unresolved where the parent's own
// spread is wider than the bound.
func compareFiles(parentPath, changePath string) error {
	load := func(path string) (*resultFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rf := &resultFile{}
		if err := json.Unmarshal(b, rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rf, nil
	}
	parent, err := load(parentPath)
	if err != nil {
		return err
	}
	change, err := load(changePath)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-20s %12s %12s %8s %8s  %s\n", "workload", "metric", "parent", "change", "by", "spread", "verdict")
	for _, w := range workloads {
		p, c := parent.Workloads[w.name], change.Workloads[w.name]
		for _, d := range endToEnd {
			xp, xc := p.values(d.name), c.values(d.name)
			lower := d.better == "lower"
			fmt.Printf("%-16s %-20s %12.4f %12.4f %+8.4f %8.4f  %s\n", w.name, d.name,
				median(xp), median(xc), worseBy(median(xp), median(xc), lower), spread(xp),
				verdict(xp, xc, lower, d.bound))
		}
		fp, np := p.failed()
		fc, nc := c.failed()
		fmt.Printf("%-16s failed %d of %d, change %d of %d (%d runs, %d runs)\n",
			w.name, fp, np, fc, nc, len(p.Runs), len(c.Runs))
	}
	return nil
}
