#!/usr/bin/env python
"""Run a bench command and gate its JSON row — the CI retry idiom, once.

Every bench job in ci.yml used to carry its own copy-pasted shell block
implementing the same protocol; this script is that protocol as one
reusable tool:

1. run the bench command, which writes a JSON results file;
2. check every ``--exact`` gate — deterministic correctness conditions
   (bit-exactness, schedule properties, id accounting).  These are not
   noise-sensitive, so they fail the job IMMEDIATELY on any run: a
   retry must never mask a correctness bug;
3. check every ``--gate`` — speed/latency conditions that *are* noisy
   on shared runners.  If any misses, re-run the bench once (the
   ``--retry-bench`` command, defaulting to the original) on a
   hopefully quieter runner and re-check everything, exact gates
   included.

Gates are ``NAME=EXPR`` pairs where EXPR is a Python expression
evaluated with the loaded JSON bound to ``results``; ``--show`` entries
are printed for the log but never gate.

Example:
    python scripts/ci_bench_gate.py --json BENCH_engine.json \\
      --bench "repro bench --repeats 3 --output BENCH_engine.json" \\
      --exact 'netgraph_exact=results["netgraph"]["bit_exact"]' \\
      --gate 'backend=results["backend"]["speedup_fast_batched"] >= 1.5'
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="bench-with-gates runner (retry-once-on-noisy-runner)"
    )
    parser.add_argument("--json", required=True,
                        help="results file the bench command writes")
    parser.add_argument("--bench", required=True,
                        help="shell command producing the results file")
    parser.add_argument("--retry-bench", default=None,
                        help="shell command for the one retry "
                             "(default: --bench again)")
    parser.add_argument("--show", action="append", default=[],
                        metavar="NAME=EXPR",
                        help="informational value to print (never gates)")
    parser.add_argument("--exact", action="append", default=[],
                        metavar="NAME=EXPR",
                        help="deterministic gate: fails immediately, "
                             "never retried")
    parser.add_argument("--gate", action="append", default=[],
                        metavar="NAME=EXPR",
                        help="noisy gate: one miss triggers one bench "
                             "retry before failing")
    return parser.parse_args(argv)


def split_spec(spec):
    name, sep, expr = spec.partition("=")
    if not sep or not name or not expr:
        raise SystemExit(f"malformed gate spec {spec!r}; expected NAME=EXPR")
    return name.strip(), expr.strip()


def evaluate(expr, results):
    return eval(expr, {"__builtins__": {"min": min, "max": max, "abs": abs,
                                        "len": len, "all": all, "any": any,
                                        "sum": sum}},
                {"results": results})


def run_bench(command):
    print(f"+ {command}", flush=True)
    subprocess.run(command, shell=True, check=True)


def check(path, shows, exacts, gates):
    """Evaluate all specs against ``path``; returns the failed noisy gates.

    Exact-gate failures exit immediately (deterministic bugs must not
    survive to a retry).
    """
    with open(path) as handle:
        results = json.load(handle)
    for name, expr in shows:
        print(f"  {name}: {evaluate(expr, results)}")
    for name, expr in exacts:
        value = evaluate(expr, results)
        print(f"  exact gate {name}: {'pass' if value else 'FAIL'}  ({expr})")
        if not value:
            raise SystemExit(f"deterministic gate {name!r} failed — "
                             "not retrying, this is not runner noise")
    failed = []
    for name, expr in gates:
        value = evaluate(expr, results)
        print(f"  gate {name}: {'pass' if value else 'MISS'}  ({expr})")
        if not value:
            failed.append(name)
    return failed


def main(argv=None):
    args = parse_args(argv)
    shows = [split_spec(spec) for spec in args.show]
    exacts = [split_spec(spec) for spec in args.exact]
    gates = [split_spec(spec) for spec in args.gate]

    run_bench(args.bench)
    failed = check(args.json, shows, exacts, gates)
    if not failed:
        return 0
    print(f"gate(s) {failed} missed; retrying bench once on a hopefully "
          "quieter runner")
    run_bench(args.retry_bench or args.bench)
    failed = check(args.json, shows, exacts, gates)
    if failed:
        print(f"gate(s) {failed} missed twice")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
