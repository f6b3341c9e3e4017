"""Tests for the extension modules: approximate aggregation (the paper's
future-work item), the report generator and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.hw import (
    AggregationUnit,
    ApproximateAggregationUnit,
    dropped_neighbor_error,
)


class TestApproximateAggregation:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.nit = self.rng.integers(0, 1024, size=(128, 32))

    def test_exact_mode_drops_nothing(self):
        au = ApproximateAggregationUnit(max_rounds=None)
        r = au.process_approximate(self.nit, 64, 1024)
        assert r.dropped_fraction == 0.0
        assert r.kept_mask.all()
        assert r.cycles == r.exact_cycles

    def test_bounded_rounds_drop_and_speed_up(self):
        au = ApproximateAggregationUnit(max_rounds=1)
        r = au.process_approximate(self.nit, 64, 1024)
        assert r.dropped_fraction > 0.0
        assert r.speedup_vs_exact > 1.0

    def test_more_rounds_fewer_drops(self):
        drops = []
        for rounds in (1, 2, 4):
            au = ApproximateAggregationUnit(max_rounds=rounds)
            drops.append(
                au.process_approximate(self.nit, 64, 1024).dropped_fraction
            )
        assert drops[0] >= drops[1] >= drops[2]

    def test_round_zero_always_serves_each_bank(self):
        au = ApproximateAggregationUnit(max_rounds=1)
        r = au.process_approximate(self.nit, 64, 1024)
        # Every entry keeps at least one neighbor per occupied bank.
        assert r.kept_mask.any(axis=1).all()

    def test_functional_error_bounded(self):
        au = ApproximateAggregationUnit(max_rounds=2)
        r = au.process_approximate(self.nit, 64, 1024)
        pft = self.rng.normal(size=(1024, 64))
        err = dropped_neighbor_error(pft, self.nit, r.kept_mask)
        exact_err = dropped_neighbor_error(
            pft, self.nit, np.ones_like(r.kept_mask, dtype=bool)
        )
        assert exact_err == 0.0
        assert 0.0 < err < 1.0  # approximate but in the right regime

    def test_validation(self):
        with pytest.raises(ValueError):
            ApproximateAggregationUnit(max_rounds=0)
        au = ApproximateAggregationUnit()
        with pytest.raises(ValueError):
            au.process_approximate(np.zeros(3, dtype=int), 8, 16)

    def test_inherits_exact_interface(self):
        au = ApproximateAggregationUnit(max_rounds=2)
        assert isinstance(au, AggregationUnit)
        exact = au.process(self.nit, 64, 1024)  # exact path still works
        assert exact.cycles > 0


class TestReport:
    def test_format_table(self):
        from repro.profiling import format_table

        text = format_table("T", ["a", "bb"], [(1, 2), (33, 4)])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "33" in lines[3]

    def test_characterization_report_contains_networks(self):
        from repro.profiling import characterization_report

        text = characterization_report(networks=("PointNet++ (c)",))
        assert "PointNet++ (c)" in text
        assert "Reduction" in text

    def test_soc_report_contains_geomean(self):
        from repro.profiling import soc_report

        text = soc_report(networks=("PointNet++ (c)",))
        assert "GEOMEAN" in text
        assert "Mesorasi-HW" in text


class TestCLI:
    def test_networks_command(self, capsys):
        from repro.cli import main

        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "F-PointNet" in out

    def test_trace_command(self, capsys):
        from repro.cli import main

        assert main(["trace", "PointNet++ (c)", "--strategy", "delayed"]) == 0
        out = capsys.readouterr().out
        assert "NeighborSearchOp" in out
        assert "MLP MACs" in out

    def test_trace_graph_and_memory_together_are_refused(self, capsys):
        # Each flag replaces the op list with its own report; asking for
        # both is a usage error, not the memory report alone.
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "PointNet++ (c)", "--graph", "--memory"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines()
                  if line.startswith("repro trace: error:")]
        assert errors == ["repro trace: error: argument --memory: not "
                          "allowed with argument --graph"]

    def test_simulate_command(self, capsys):
        from repro.cli import main

        assert main(["simulate", "PointNet++ (c)", "--config",
                     "mesorasi_hw"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "AU sa1" in out

    @pytest.mark.parametrize("argv, reason", [
        (["simulate", "PointNet++ (c)", "--config", "bogus"],
         "unknown config 'bogus' (choose from 'gpu', 'baseline', "
         "'mesorasi_sw', 'mesorasi_hw', 'baseline_nse', 'mesorasi_sw_nse', "
         "'mesorasi_hw_nse')"),
        (["train", "--epochs", "0"], "--epochs must be at least 1, got 0"),
        (["train", "--epochs=-1"], "--epochs must be at least 1, got -1"),
        (["serve", "--cache-size=-1"],
         "argument --cache-size: cache size must be a non-negative integer "
         "(0 disables caching), got '-1'"),
    ], ids=["simulate --config bogus", "train --epochs 0", "train --epochs -1",
            "serve --cache-size -1"])
    def test_a_bad_option_value_is_one_error_line(self, argv, reason):
        # Refused before any work starts: no traceback, nothing on
        # stdout, exit 2 as for an argparse error.
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], capture_output=True,
            text=True, timeout=120, env=env,
        )
        assert (done.returncode, done.stdout) == (2, "")
        error = f"repro {argv[0]}: error: {reason}\n"
        usage, tail = done.stderr[:-len(error)], done.stderr[-len(error):]
        assert tail == error
        # Only argparse's own refusals print the command's usage first.
        assert usage == "" or (reason.startswith("argument ")
                               and usage.startswith(f"usage: repro {argv[0]} "))

    @pytest.mark.parametrize("config", [
        "gpu", "baseline", "mesorasi_sw", "mesorasi_hw", "baseline_nse",
        "mesorasi_sw_nse", "mesorasi_hw_nse",
    ])
    def test_every_config_the_refusal_names_simulates(self, config, capsys):
        from repro.cli import main

        assert main(["simulate", "PointNet++ (c)", "--config", config]) == 0
        assert "latency" in capsys.readouterr().out

    def test_one_epoch_is_the_least_that_trains(self, capsys):
        from repro.cli import main

        assert main(["train", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PointNet++ (c) [delayed] loss ")
        assert "test accuracy" in out

    def test_unknown_command_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCLIReport:
    def test_report_command(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "GPU characterization" in out
        assert "SoC evaluation" in out
        assert "GEOMEAN" in out
