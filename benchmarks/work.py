"""The exact work of every compiled program, committed as counts.

``benchmarks/work.json`` holds one entry per network × strategy × dtype
at scale :data:`SCALE`: graph nodes, kernels and planned scratch
buffers; arena, per-kernel pool and peak-live bytes at each of
:data:`HEIGHTS`; the ``unplanned`` scratch requests of one height-1 run;
the trace's MLP MACs; and per-phase MACs and bytes read / written from
``Trace.phase_summary``.  Counts only — no timings and no float bits —
so the record is the same on every machine, and a change that moves it
states its exact effect as the cells it moved.

``tests/test_work.py`` regenerates the record and compares it exactly.
Rewrite it with::

    PYTHONPATH=src python benchmarks/work.py
"""

import json
import os

import numpy as np

from repro.backend import compile_kernel_program
from repro.core import STRATEGIES
from repro.networks import ALL_NETWORKS, build_network
from repro.profiling.trace import PHASES

SCALE = 0.25
HEIGHTS = (1, 8)
DTYPES = ("float32", "float64")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work.json")


def program_work(net, strategy, dtype, trace):
    """The cells of one compiled program, in a fixed order."""
    program = compile_kernel_program(net, strategy, backend=dtype)
    cloud = np.random.default_rng(0).normal(size=(1, net.n_points, 3))
    program.run(cloud)
    cells = {
        "nodes": program.ngraph.node_count,
        "kernels": len(program.kernel_labels),
        "buffers": len(program.per_cloud_plan.buffers),
        "unplanned": program.memory_stats()["unplanned"],
    }
    for height in HEIGHTS:
        plan = program.plan_for(height)
        cells[f"arena_bytes_h{height}"] = plan.total_bytes
        cells[f"pool_bytes_h{height}"] = plan.pool_bytes
        cells[f"peak_live_bytes_h{height}"] = plan.peak_live_bytes
    cells["mlp_macs"] = trace.mlp_macs()
    summary = trace.phase_summary()
    for phase in PHASES:
        for what in ("macs", "bytes_read", "bytes_written"):
            cells[f"{phase}_{what}"] = summary[phase][what]
    return cells


def work_record():
    """``{"NETWORK / strategy / dtype": cells}`` for every program."""
    record = {}
    for name in ALL_NETWORKS:
        net = build_network(name, scale=SCALE)
        for strategy in STRATEGIES:
            trace = net.trace(strategy)
            for dtype in DTYPES:
                record[f"{name} / {strategy} / {dtype}"] = program_work(
                    net, strategy, dtype, trace)
    return record


def dumps(record):
    return json.dumps(record, indent=1) + "\n"


def main():
    with open(PATH, "w") as handle:
        handle.write(dumps(work_record()))
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
