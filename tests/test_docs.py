"""Execute the fenced ``python`` snippets in docs/*.md and the README,
and every script in examples/.

Documentation that does not run is documentation that drifts: every
fenced python block is executed top to bottom, blocks within one file
sharing a namespace (so later snippets build on earlier imports, as
they read on the page), and every example runs as a script in a child
process, bounded by a timeout, and must exit 0.  CI runs this module as
the docs job; broken imports, renamed APIs or stale assertions in the
docs or the examples fail it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: Per-script bound; the slowest examples (training toy networks) take
#: about 5 s each on a 2-vCPU box.
EXAMPLE_TIMEOUT = 300.0

FENCE = re.compile(
    r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.DOTALL | re.MULTILINE
)


def python_blocks(path):
    """(start_line, source) for every fenced python block in ``path``."""
    text = path.read_text()
    blocks = []
    for match in FENCE.finditer(text):
        line = text[: match.start()].count("\n") + 2  # first code line
        blocks.append((line, match.group(1)))
    return blocks


def test_docs_exist_and_have_snippets():
    names = {path.name for path in DOC_FILES}
    assert {"architecture.md", "api.md", "serving.md", "README.md"} <= names
    assert python_blocks(ROOT / "docs" / "api.md"), "api.md lost its examples"
    assert python_blocks(ROOT / "docs" / "serving.md"), (
        "serving.md lost its examples"
    )


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[path.name for path in DOC_FILES]
)
def test_snippets_execute(path):
    blocks = python_blocks(path)
    if not blocks:
        pytest.skip(f"{path.name} has no python snippets")
    namespace = {"__name__": f"docsnippets_{path.stem}"}
    for line, source in blocks:
        code = compile(source, f"{path.name}:{line}", "exec")
        exec(code, namespace)  # noqa: S102 - executing our own docs


def test_examples_exist():
    assert ROOT / "examples" / "quickstart.py" in EXAMPLES


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[path.name for path in EXAMPLES]
)
def test_example_runs(path):
    path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, capture_output=True,
        text=True, timeout=EXAMPLE_TIMEOUT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries))),
    )
    assert done.returncode == 0, done.stderr[-2000:]
