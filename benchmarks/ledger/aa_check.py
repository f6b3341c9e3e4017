#!/usr/bin/env python3
"""A/A check: the whole benchmark several times on the same code.

    python3 benchmarks/ledger/aa_check.py --sets 3 [--record]

Runs every workload once per set (workloads interleave, so the runs of
one workload are minutes apart; set ``i`` uses seed ``i``), then prints
for each (metric of an untraced run, workload) the values, their largest
pairwise difference as a share of the median, and the bound.  It fails
when an end-to-end metric's difference exceeds **half** its bound: a
benchmark that cannot repeat itself to that cannot judge a change against
the bound.  The metrics an untraced run prints without a bound are shown
the same way and cannot fail the check.  With four or more sets it also
prints the quartile spread the acceptance check uses
(``statistics.quantiles``, IQR over median).

A metric that fails is fixed by more samples or a longer slice, or
moved to the per-layer list — never by widening its bound.  ``--record``
appends the result, passed or not, as one line to ``trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

import loadgen
from run import HERE, WORKLOADS, fingerprint


#: A metric as run.py prints it: name, value, unit.
_METRIC_LINE = re.compile(r"^([A-Za-z0-9][\w.-]*) +(-?\d+\.\d+) \S+", re.MULTILINE)


def run_once(workload, seed):
    """One untraced run of ``run_seconds``.

    Returns its parsed result line and every metric it printed by name.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    printed = {name: float(value)
               for name, value in _METRIC_LINE.findall(done.stdout)}
    # the result line keeps every digit; the printed table rounds
    printed.update({k: v["value"] for k, v in result["metrics"].items()})
    return result, printed


def git_commit():
    """``(HEAD, dirty)`` of the checkout, or ``("unknown", True)`` outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=loadgen.ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return "unknown", True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--record", action="store_true",
                        help="append the result to trajectory.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((loadgen.ROOT / "BENCHMARK.json").read_text())

    values = {}  # (workload, metric) -> one value per set
    failed = 0
    for seed in range(args.sets):
        for workload in WORKLOADS:
            start = time.perf_counter()
            result, printed = run_once(workload, seed)
            failed += result["failed"]
            for name, value in printed.items():
                values.setdefault((workload, name), []).append(value)
            print(f"set {seed} {workload}: {time.perf_counter() - start:.1f} s, "
                  f"{result['attempted']} requests, {result['failed']} failed",
                  flush=True)

    print(f"\n{'workload':26s} {'metric':20s} {'median':>10s} {'range':>7s} "
          f"{'iqr':>7s} {'bound':>6s}  values")
    over = []
    summary = {workload: {} for workload in WORKLOADS}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in dict.fromkeys(name for _, name in values):
        for workload in WORKLOADS:
            runs = values[workload, name]
            median = statistics.median(runs)
            spread = (max(runs) - min(runs)) / median
            iqr = "-"
            if len(runs) >= 4:
                q1, _, q3 = statistics.quantiles(runs, n=4)
                iqr = f"{(q3 - q1) / median:.1%}"
            flag = ""
            if name in bounds and spread > bounds[name] / 2:
                over.append(f"{workload}:{name}")
                flag = "  OVER"
            bound = f"{bounds[name]:.0%}" if name in bounds else "none"
            print(f"{workload:26s} {name:20s} {median:10.4g} {spread:7.1%} "
                  f"{iqr:>7s} {bound:>6s}  "
                  f"{' '.join(f'{v:.4g}' for v in runs)}{flag}")
            summary[workload][name] = {
                "median": median, "min": min(runs), "max": max(runs)}

    if args.record:
        commit, dirty = git_commit()
        line = {"commit": commit, "dirty": dirty,
                "date": time.strftime("%Y-%m-%d"), "sets": args.sets,
                "seconds": spec["run_seconds"], "fingerprint": fingerprint(),
                "requests_failed": failed, "passed": not (failed or over),
                "beyond_half_bound": over, "claim": None, "workloads": summary}
        with open(HERE / "trajectory.jsonl", "a") as out:
            out.write(json.dumps(line) + "\n")
    if failed or over:
        print(f"\nFAILED: {failed} failed request(s); beyond half their bound: "
              f"{over}")
        return 1
    print("\nok: every end-to-end metric repeats within half its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
