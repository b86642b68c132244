// Command servebench is the repository's serving benchmark. One run
// measures one workload (a traffic mix) in a fresh process:
//
//	servebench --workload hot-hits --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it serves the real daemon handler (server.Server's
// Handler) on a loopback listener, drives it with a seeded closed loop
// of one client, checks every answer against naive ground truth, and
// prints the end-to-end metrics. With --trace 1 it replays the
// workload's operation stream in process from one goroutine, composing
// the layers' exported functions under spans, checks the composition
// byte for byte against Server.Query and the HTTP handler, and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong answer,
// a stale generation or a fidelity mismatch exits with status 1.
//
// See README.md for the workloads, the metric table and the baselines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	// plant injects one fault into the client's view of the responses
	// ("wrong-row" or "stale-gen") so the self-tests can prove that the
	// oracle fails the run. Empty in every measured run.
	plant string
	// traceOps overrides the traced replay's operation count (0 = the
	// workload's default); the self-tests shorten it.
	traceOps int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrong marks an oracle or fidelity violation: the run printed a
// result with correct=false and exits non-zero.
var errWrong = errors.New("wrong output")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: hot-hits, adhoc-plans or churn-eval")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end run over HTTP, 1 = traced per-layer replay")
	fs.StringVar(&o.plant, "plant", "", "self-test only: plant a fault (wrong-row or stale-gen)")
	fs.IntVar(&o.traceOps, "trace-ops", 0, "self-test only: traced replay length (0 = workload default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "servebench: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "servebench: --seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "servebench: --trace must be 0 or 1")
		return 2
	case o.plant != "" && o.plant != "wrong-row" && o.plant != "stale-gen":
		fmt.Fprintf(stderr, "servebench: unknown --plant %q\n", o.plant)
		return 2
	}

	fmt.Fprintf(stdout, "env: nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), w.name, o.seed, o.seconds, o.trace)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var (
		res *result
		err error
	)
	if o.trace == 1 {
		res, err = runTraced(ctx, w, o, stdout)
	} else {
		res, err = runServed(ctx, w, o, stdout)
	}
	if res != nil {
		line, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(stderr, "servebench:", merr)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	return 0
}

// commit names the measured revision: the git commit when run from the
// root of a git checkout, "unknown" otherwise.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
