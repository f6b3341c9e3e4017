"""The cold-start contract: a process pays for what it runs.

``repro serve`` is started on demand, so spawn -> first response is a
cost paid on every wake-up.  Most of it used to be imports no served
request executes; these tests pin that it stays gone.  They run in
child processes — a test process that already imported everything
cannot see what a fresh one loads — and every child is bounded by a
timeout.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
TIMEOUT = 120.0

#: (package, public names): the counts before the front doors went
#: lazy, except that the root (then 10) now also exposes ``graph``,
#: ``serve`` and ``tune`` — exposing a subpackage no longer imports it —
#: and that ``repro.engine`` (then 16) and ``repro.graph`` (then 39)
#: shrank when the seven executors became three.
FRONT_DOORS = [
    ("repro", 13), ("repro.backend", 26), ("repro.core", 15),
    ("repro.data", 24), ("repro.engine", 15), ("repro.graph", 36),
    ("repro.hw", 27), ("repro.neighbors", 15), ("repro.networks", 25),
    ("repro.neural", 24), ("repro.profiling", 31), ("repro.serve", 21),
    ("repro.tune", 10),
]


def run_child(code, stdin=""):
    """Run ``code`` in a fresh interpreter; returns its stdout lines."""
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True,
        text=True, timeout=TIMEOUT, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.splitlines()


# One request through the real CLI entry point, then a report of what
# this process loaded and left behind.
SERVE_ONE = """
import contextlib, glob, io, json, os, sys, tempfile
import repro.cli
made, mkstemp = [], tempfile.mkstemp
def recording_mkstemp(*args, **kwargs):
    made.append(kwargs.get("prefix"))
    return mkstemp(*args, **kwargs)
tempfile.mkstemp = recording_mkstemp
stderr = io.StringIO()
with contextlib.redirect_stderr(stderr):
    rc = repro.cli.main(["serve", "--network", "PointNet++ (c)", "--scale",
                         "0.5", "--serve-backend", "float32"] + {extra!r})
modules = sorted(m for m in sys.modules
                 if m.split(".")[0] in ("repro", "scipy", "multiprocessing"))
from repro.backend.aot import _share_dir  # after the snapshot
print(json.dumps({{
    "rc": rc,
    "modules": modules,
    "stderr": stderr.getvalue(),
    "made": made,
    "files": glob.glob(os.path.join(_share_dir(),
                                    "repro-params-%d-*" % os.getpid())),
}}))
"""

NEVER_SERVED = ("repro.hw", "repro.data", "repro.tune", "repro.engine.bench",
                "repro.serve.harness", "repro.profiling.report",
                "repro.networks.training")


def serve_one(extra):
    rows = [[0.01 * i, 0.5 - 0.002 * i, (i % 7) / 7.0] for i in range(512)]
    response, report = run_child(
        SERVE_ONE.format(extra=extra),
        stdin=json.dumps({"id": "r0", "cloud": rows}) + "\n",
    )
    assert "output" in json.loads(response), response[:200]
    report = json.loads(report)
    assert report["rc"] == 0
    return report


def offenders(modules, prefixes):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


class TestServedRequestImports:
    def test_single_server_loads_only_the_serving_path(self):
        modules = serve_one([])["modules"]
        assert offenders(modules, ("scipy",)) == []
        assert offenders(modules, NEVER_SERVED) == []
        served = offenders(modules, ("repro",))
        assert len(served) <= 50, served

    def test_sharded_server_needs_no_helper_process_or_leftover_file(self):
        report = serve_one(["--shards", "2"])
        modules = report["modules"]
        assert offenders(modules, ("scipy",)) == []
        assert offenders(modules, NEVER_SERVED) == []
        # No multiprocessing at all — in particular not its shared-memory
        # transport, whose resource tracker is a child process that
        # outlives its parent.
        assert offenders(modules, ("multiprocessing",)) == []
        served = offenders(modules, ("repro",))
        assert len(served) <= 50, served
        # Replicas are threads: no table was published at any point
        # (``made``), let alone left behind (``files``).
        assert report["made"] == [] and report["files"] == []

    def test_sharded_server_says_once_what_placement_decided(self):
        lines = serve_one(["--shards", "2"])["stderr"].splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == [
            "placement", "  replica 0 -> slot 0", "  replica 1 -> slot 1"]
        assert lines[3].startswith("serving n_points in [512]")
        for line in lines[1:3]:
            total, arena, table = (int(n) for n in re.findall(r"(\d+) B", line))
            assert total == arena + table and "per-cloud plan x 8" in line
        # The drain lines the ledger parses are the last four, unchanged;
        # nothing before them can be mistaken for one.
        drain = ("served ", "neighbor-index cache: ", "routing: ", "  shard ")
        assert [line.startswith(prefix) for line, prefix
                in zip(lines[4:], (*drain, drain[-1]))] == [True] * 5
        assert not any(line.startswith(drain) for line in lines[:4])
        assert len(lines) == 9
        assert "placement" not in "".join(serve_one([])["stderr"])


class TestFrontDoors:
    @pytest.mark.parametrize("package, count", FRONT_DOORS)
    def test_public_names_are_served_lazily_and_completely(self, package,
                                                           count):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__)) == count
        namespace = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(module.__all__)
        assert set(dir(module)) >= set(module.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

    def test_root_attribute_access_imports_the_subpackage(self):
        [report] = run_child(
            "import json, sys, repro\n"
            "before = sorted(m for m in sys.modules if m.startswith('repro'))\n"
            "name = repro.engine.BatchRunner.__name__\n"
            "print(json.dumps({'before': before, 'name': name,\n"
            "    'bench': 'repro.engine.bench' in sys.modules}))\n"
        )
        report = json.loads(report)
        assert report["before"] == ["repro", "repro._lazy"]
        assert report["name"] == "BatchRunner"
        assert report["bench"] is False  # a sibling nobody asked for

    def test_no_init_imports_a_sibling(self):
        for init in Path(repro.__file__).parent.rglob("__init__.py"):
            imported = [
                getattr(node, "module", None)
                for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
            assert imported == ["_lazy"], init


# kdtree == brute on indices, plus whether scipy.spatial was loaded
# before / after the first kdtree search.
KDTREE = """
import json, sys
{prelude}
import numpy as np
from repro.neighbors import raw_knn
from repro.neighbors.dispatch import _ckdtree
rng = np.random.default_rng(3)
points, queries = rng.normal(size=(96, 3)), rng.normal(size=(17, 3))
before = "scipy.spatial" in sys.modules
tree_i, tree_d = raw_knn(points, queries, 5, substrate="kdtree")
brute_i, brute_d = raw_knn(points, queries, 5, substrate="brute")
print(json.dumps({{
    "before": before, "after": "scipy.spatial" in sys.modules,
    "accelerated": _ckdtree() is not None,
    "indices_equal": bool(np.array_equal(tree_i, brute_i)),
    "distances_close": bool(np.allclose(tree_d, brute_d)),
}}))
"""


class TestKdtreeSubstrate:
    def test_pure_python_tree_serves_when_scipy_is_missing(self):
        [report] = run_child(KDTREE.format(
            prelude="sys.modules['scipy'] = None  # import scipy -> ImportError"
        ))
        report = json.loads(report)
        assert report == {"before": False, "after": False,
                          "accelerated": False, "indices_equal": True,
                          "distances_close": True}

    @pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                        reason="scipy not installed")
    def test_scipy_loads_at_the_first_kdtree_search(self):
        [report] = run_child(KDTREE.format(prelude=""))
        report = json.loads(report)
        assert report == {"before": False, "after": True,
                          "accelerated": True, "indices_equal": True,
                          "distances_close": True}


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    root = Path(SRC).parent
    with open(root / "pyproject.toml", "rb") as handle:
        pyproject = tomllib.load(handle)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] \
        == {"attr": "repro.__version__"}
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
