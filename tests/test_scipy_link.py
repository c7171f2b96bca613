"""``tailgraph._scipy``: the package's only link to scipy, loaded on
first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg
import scipy.special

import tailgraph
from tailgraph import _scipy

PACKAGE = Path(tailgraph.__file__).resolve().parent


def test_no_module_imports_scipy():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


@pytest.mark.parametrize("name, home", [
    ("ndtr", scipy.special), ("ndtri", scipy.special),
    ("log_ndtr", scipy.special), ("ndtri_exp", scipy.special),
    ("expm1", scipy.special), ("cho_solve", scipy.linalg)])
def test_names_resolve_to_the_scipy_functions(name, home):
    assert getattr(_scipy, name) is getattr(home, name)
    assert vars(_scipy)[name] is getattr(home, name)  # bound after first use


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="erfcx"):
        _scipy.erfcx


_FIRST_USE_IN_THREADS = """
import sys, threading
from tailgraph import cli

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            print("loaded on", threading.current_thread().name,
                  file=sys.stderr)
        return None

sys.meta_path.insert(0, Watch())
cli.main(sys.argv[1:])
"""


def test_first_use_inside_worker_threads_keeps_bytes(pytestconfig, tmp_path):
    """Two row blocks on two threads: scipy.special first loads on a pool
    thread, and the outputs equal those of one thread."""
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": src}
    config = pytestconfig.rootpath / "configs" / "mixed_tree.json"
    runs = []
    for workers in ("2", "1"):
        out = tmp_path / workers
        res = subprocess.run(
            [sys.executable, "-c", _FIRST_USE_IN_THREADS, "verify",
             "--config", str(config), "--n", "40000", "--workers", workers,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((res.returncode, res.stdout, files, res.stderr))
    (code2, stdout2, files2, loaded2), (code1, stdout1, files1, _) = runs
    assert "loaded on ThreadPoolExecutor" in loaded2
    assert code2 == code1 and code1 in (0, 4)
    assert stdout2 == stdout1
    assert files2 == files1 and "ks_table.csv" in files1
