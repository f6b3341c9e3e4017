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
#: lazy, except that the root (then 10) now also exposes ``graph`` and
#: ``serve`` — exposing a subpackage no longer imports it — and that
#: ``repro.engine`` (then 16) and ``repro.graph`` (then 39) shrank when
#: the seven executors became three, and again (with ``repro.backend``)
#: when the thread-overlap runtime was retired, and ``repro.engine``
#: once more when its process-pool task helpers and the autotuner's
#: bench row went, and again when the bench layer itself went;
#: ``repro.graph`` lost three more when the network plan went;
#: ``repro.backend`` lost five when the int8 backend went and the one
#: float backend class folded into one dtype-parameterized class, and
#: two more when the on-disk program cache went; ``repro.core`` lost five, and
#: ``repro.graph``, ``repro.data``, ``repro.neighbors`` and
#: ``repro.profiling`` seven between them, when the module-level
#: generation (multi-scale module, NIT/PFT containers, trace shim,
#: executor result type) and the analysis helpers only tests read went;
#: ``repro.graph`` lost its aggregation-fusion pass when aggregation
#: became one node from build on, and ``repro.backend`` lost the
#: one MLP segment split when it moved to ``repro.neural.layers``;
#: ``repro.neighbors`` lost its scoped-cache
#: door when the neighbor-index cache became an argument of a program run;
#: ``repro.backend`` lost four when a program's backend became its dtype
#: (that class and its registry's two functions) and a runner came to
#: run its one program (the per-graph kernel executor), and
#: ``repro.neural`` lost ``stack`` with the Tensor surface only its own
#: tests read; ``repro.core`` lost ``ModuleOutput`` when a module came
#: to run only inside a network, ``repro.networks`` lost ``FCHead`` to
#: ``SharedMLP`` and ``repro.data`` the LiDAR scene generator nothing
#: read; ``repro.serve`` lost ``gather`` when a lane's take came to
#: block until something is queued; ``repro.neural`` lost two layer
#: kinds and their container when an MLP layer came to be a Linear and
#: its ReLU, and ``ReLU`` itself when that ReLU became a flag of the
#: MLP beside its Linear.
FRONT_DOORS = [
    ("repro", 12), ("repro.backend", 12), ("repro.core", 8),
    ("repro.data", 15), ("repro.engine", 5), ("repro.graph", 16),
    ("repro.hw", 23), ("repro.neighbors", 8), ("repro.networks", 23),
    ("repro.neural", 12), ("repro.profiling", 23), ("repro.serve", 13),
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
# this process loaded, which files it made and which it left behind.
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
                         "0.5"] + {extra!r})
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

NEVER_SERVED = ("repro.hw", "repro.data", "repro.profiling.report",
                "repro.networks.training", "repro.engine.parallel")

#: The graph interpreter (training and the test oracle), analysis-only
#: code, the other commands, and every network module but the hosted
#: PointNet++ one: none of it is on the serving path.
NETWORK_MODULES = sorted(
    f"repro.networks.{path.stem}"
    for path in Path(repro.__file__).parent.joinpath("networks").glob("*.py")
    if path.stem not in ("__init__", "base", "registry"))
KERNEL_PATH_FORBIDDEN = (
    "repro.graph.executors",
    "repro.neighbors.kdtree", "repro.neighbors.ball",
    "repro.commands",
    *(m for m in NETWORK_MODULES if m != "repro.networks.pointnet2"),
)


def serve_one(extra, backend="float32"):
    """One request through ``repro serve``; ``backend=None`` passes no
    ``--serve-backend`` (the default server)."""
    if backend is not None:
        extra = ["--serve-backend", backend, *extra]
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
        report = serve_one([])
        modules = report["modules"]
        assert offenders(modules, ("scipy",)) == []
        assert offenders(modules, NEVER_SERVED) == []
        assert offenders(modules, KERNEL_PATH_FORBIDDEN) == []
        assert offenders(modules, ("multiprocessing",)) == []
        served = offenders(modules, ("repro",))
        assert len(served) <= 31, served
        assert report["made"] == [] and report["files"] == []

    def test_default_server_loads_only_the_serving_path(self):
        # No --serve-backend: the float64 kernel program serves, and the
        # graph interpreter stays unloaded.
        report = serve_one([], backend=None)
        modules = report["modules"]
        assert offenders(modules, ("scipy",)) == []
        assert offenders(modules, NEVER_SERVED) == []
        assert offenders(modules, KERNEL_PATH_FORBIDDEN) == []
        assert offenders(modules, ("multiprocessing",)) == []
        served = offenders(modules, ("repro",))
        assert len(served) <= 31, served
        assert report["made"] == [] and report["files"] == []

    def test_sharded_server_needs_no_helper_process_or_leftover_file(self):
        report = serve_one(["--shards", "2"])
        modules = report["modules"]
        assert offenders(modules, ("scipy",)) == []
        assert offenders(modules, NEVER_SERVED) == []
        assert offenders(modules, KERNEL_PATH_FORBIDDEN) == []
        # No multiprocessing at all — in particular not its shared-memory
        # transport, whose resource tracker is a child process that
        # outlives its parent.
        assert offenders(modules, ("multiprocessing",)) == []
        served = offenders(modules, ("repro",))
        assert len(served) <= 32, served
        # Replicas are threads: no table was published at any point
        # (``made``), let alone left behind (``files``).
        assert report["made"] == [] and report["files"] == []

    def test_a_network_name_imports_only_its_module(self):
        [report] = run_child(
            "import json, sys\n"
            "from repro.networks import build_network\n"
            "build_network('DGCNN (c)', scale=0.0625)\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('repro.networks.'))\n"
            "from repro.networks import NETWORK_CLASSES\n"
            "print(json.dumps({'loaded': loaded,\n"
            "                  'classes': len(NETWORK_CLASSES)}))\n"
        )
        report = json.loads(report)
        assert offenders(report["loaded"], NETWORK_MODULES) \
            == ["repro.networks.dgcnn"]
        assert report["classes"] == 7

    def test_sharded_server_says_once_what_placement_decided(self):
        lines = serve_one(["--shards", "2"])["stderr"].splitlines()
        assert lines[:3] == ["placement: 2 replica(s)",
                             "  replica 0: PointNet++ (c) (n=512)",
                             "  replica 1: PointNet++ (c) (n=512)"]
        assert lines[3].startswith("serving n_points in [512]")
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
            "    'parallel': 'repro.engine.parallel' in sys.modules}))\n"
        )
        report = json.loads(report)
        assert report["before"] == ["repro", "repro._lazy"]
        assert report["name"] == "BatchRunner"
        assert report["parallel"] is False  # a sibling nobody asked for

    def test_no_init_imports_a_sibling(self):
        for init in Path(repro.__file__).parent.rglob("__init__.py"):
            imported = [
                getattr(node, "module", None)
                for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
            assert imported == ["_lazy"], init


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
