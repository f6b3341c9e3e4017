"""The ``repro`` command bodies other than ``serve``.

:mod:`repro.cli` holds the parser and the ``serve`` loop and imports
this module only for the other commands, so a server start never
compiles them.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = ["COMMANDS"]


def _refuse(command, message):
    """One ``repro COMMAND: error:`` line on stderr, found before any
    work starts; exit status 2, as argparse and ``repro serve`` use."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _cmd_report(_args):
    from .profiling.report import full_report

    print(full_report())
    return 0


def _cmd_networks(_args):
    from .networks import table1_rows

    for domain, name, dataset, year in table1_rows():
        print(f"{domain:15s} {name:16s} {dataset:11s} {year}")
    return 0


def _cmd_trace(args):
    from .graph import format_graph
    from .networks import build_network

    net = build_network(args.network)
    if args.memory:
        return _trace_memory(net, args.strategy)
    trace = net.trace(args.strategy)
    print(f"{net.name} [{args.strategy}] — {len(trace)} ops, "
          f"{trace.mlp_macs() / 1e6:.1f} M MLP MACs")
    if args.graph:
        # The strategy-rewritten whole-network operator graph the
        # executors run and the trace below is lowered from.
        ngraph = net.network_graph(args.strategy)
        print(f"network graph: {ngraph.node_count} nodes, "
              f"{len(ngraph.regions)} module regions")
        print(format_graph(ngraph.graph))
    else:
        for op in trace:
            fields = {
                k: v for k, v in vars(op).items()
                if k not in ("phase", "module", "parallelizable")
            }
            # "||" marks the ops the strategy lets the hardware overlap.
            flag = " ||" if op.parallelizable else ""
            detail = ", ".join(f"{k}={v}" for k, v in fields.items())
            print(f"  [{op.phase}] {op.module:12s} "
                  f"{type(op).__name__:18s} {detail}{flag}")
    print("phase  ops        MACs     bytes read  bytes written")
    for phase, row in trace.phase_summary().items():
        print(f"  {phase}    {row['ops']:3d} {row['macs']:11,d} "
              f"{row['bytes_read']:12,d} {row['bytes_written']:14,d}")
    return 0


def _trace_memory(net, strategy):
    """``repro trace --memory``: planner peaks and the arena layout."""
    from .backend import compile_kernel_program

    report = compile_kernel_program(net, strategy,
                                    backend="float64").memory_report()
    plan = report["plan"]
    print(f"{net.name} [{strategy}] — {report['n_kernels']} kernels, "
          f"{len(plan.buffers)} scratch buffers")
    print(f"  per-kernel pool peak {report['pool_bytes']:12,d} B   "
          f"(the PR 5 never-freeing baseline)")
    print(f"  planned arena        {report['arena_bytes']:12,d} B   "
          f"(peak live {report['peak_live_bytes']:,} B, "
          f"reduction {plan.reduction * 100:.1f}%)")
    print("  phase   peak before     peak after")
    for phase, row in report["phases"].items():
        print(f"    {phase}   {row['before']:13,d} B {row['after']:13,d} B")
    print(plan.describe())
    return 0


def _cmd_simulate(args):
    from .hw import SoC
    from .hw.soc import CONFIGS
    from .networks import build_network

    if args.config not in CONFIGS:
        return _refuse("simulate", f"unknown config {args.config!r} (choose "
                                   f"from {', '.join(map(repr, CONFIGS))})")
    soc = SoC()
    net = build_network(args.network)
    result = soc.simulate(net, args.config)
    print(f"{net.name} on {result.config}:")
    print(f"  latency: {result.latency * 1e3:.2f} ms")
    print(f"  energy:  {result.energy * 1e3:.2f} mJ")
    for phase in "NAFO":
        print(f"  {phase}: {result.phase_times[phase] * 1e3:8.2f} ms   "
              f"{result.phase_energy[phase] * 1e3:8.2f} mJ")
    for module, stats in result.au_stats:
        print(f"  AU {module}: {stats.cycles} cycles, "
              f"{stats.partitions} partitions, "
              f"conflict {stats.conflict_fraction * 100:.0f}%")
    return 0


def _cmd_train(args):
    from .data import SyntheticModelNet
    from .networks import build_network, evaluate_classifier, train_classifier

    if args.epochs < 1:
        return _refuse("train", f"--epochs must be at least 1, got "
                                f"{args.epochs}")
    ds = SyntheticModelNet(num_classes=4, n_points=256, train_per_class=8,
                           test_per_class=4, seed=0, rotate=False)
    net = build_network(args.network, num_classes=4, scale=0.0625,
                        rng=np.random.default_rng(0))
    n = net.n_points
    result = train_classifier(
        net, ds.train_clouds[:, :n], ds.train_labels,
        epochs=args.epochs, lr=1e-3, strategy=args.strategy, seed=1,
    )
    acc = evaluate_classifier(net, ds.test_clouds[:, :n], ds.test_labels,
                              strategy=args.strategy)
    print(f"{net.name} [{args.strategy}] loss {result.losses[0]:.2f} -> "
          f"{result.losses[-1]:.2f}, test accuracy {acc:.2f}")
    return 0


COMMANDS = {
    "report": _cmd_report,
    "networks": _cmd_networks,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "train": _cmd_train,
}
