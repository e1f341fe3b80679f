// Command benchmark measures the k-SIR service end to end and layer by
// layer on four paper-shaped workloads. See README.md.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line
//	benchmark -seed N -out DIR [-smoke]                          all workloads, untraced then traced
//	benchmark compare A.json... -- B.json...                      verdict per metric and workload
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload and print its result as the last line")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
	specPath := flag.String("spec", "BENCHMARK.json", "metric catalogue")
	smoke := flag.Bool("smoke", false, "workloads at a tenth of their size, 1 s phases: schema and output checks only")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traced == 1, *out, *specPath, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, traced bool, out, specPath string, smoke bool) error {
	bs, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(bs.RunSeconds)
		if smoke {
			seconds = 1
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	// Everything a run writes besides its results lives here and is
	// removed when the run ends.
	root, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// one runs a workload and keeps the metrics its mode reports: the
	// end-to-end list untraced, the per-layer list traced.
	one := func(s spec, traced bool) (*outcome, error) {
		// setup_s is the median of three set-ups; the traced run and the
		// smoke mode, which do not report it, set up once.
		setups := 3
		if traced || smoke {
			setups = 1
		}
		if smoke {
			s = s.smoke()
		}
		o, err := run(s, seed, seconds, traced, setups, root, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		list := bs.EndToEnd
		if traced {
			list = bs.PerLayer
		}
		if o.Metrics, err = o.restrict(list); err != nil {
			return nil, err
		}
		o.print(os.Stdout, list)
		return o, nil
	}

	if workload != "" {
		for _, s := range specs {
			if s.name != workload {
				continue
			}
			o, err := one(s, traced)
			if err != nil {
				return err
			}
			if err := o.write(out); err != nil {
				return err
			}
			return o.printContractLine()
		}
		return fmt.Errorf("unknown workload %q", workload)
	}

	// All workloads: the untraced run gives the end-to-end metrics, the
	// traced one the per-layer metrics; one result file holds both.
	failed := false
	for _, s := range specs {
		o, err := one(s, false)
		if err != nil {
			return err
		}
		t, err := one(s, true)
		if err != nil {
			return err
		}
		for name, v := range t.Metrics {
			o.Metrics[name] = v
		}
		o.Attempted += t.Attempted
		o.Failed += t.Failed
		o.Correct = o.Correct && t.Correct
		if o.FirstErr == "" {
			o.FirstErr = t.FirstErr
		}
		failed = failed || !o.Correct
		if err := o.write(out); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("an output check failed")
	}
	return nil
}
