"""``tailgraph._scipy``: the package's only link to scipy, loaded on
first use."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import tailgraph
from tailgraph import _scipy
from tailgraph import husler_reiss as hr
from tailgraph.config import parse_config
from tailgraph.linalg import cho_solve, cholesky_spd

from conftest import perfbench_workloads

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


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e300, 1e300, allow_nan=False))


@given(pivot=st.floats(1e-300, 1e300),
       b=st.integers(1, 4).flatmap(
           lambda k: st.lists(_ENTRY, min_size=k, max_size=k)))
def test_one_row_solve_has_the_bits_of_scipy(pivot, b):
    """A 1×1 factor is solved with LAPACK's arithmetic, without scipy:
    pivots over six hundred decades, right-hand sides of 1–4 columns
    with mixed signs and signed zeros."""
    low = cholesky_spd(np.array([[pivot]]))
    rhs = np.array([b])
    want = scipy.linalg.cho_solve((low, True), rhs)
    assert cho_solve(low, rhs).tobytes() == want.tobytes()


def test_hr_two_tree_updates_have_the_bits_of_scipy(pytestconfig, monkeypatch):
    """Every separator update of seeded HR triangle 2-trees, a two-vertex
    separator included, equals the update whose separator solve goes
    through ``scipy.linalg.cho_solve``, byte for byte; and none of them
    reaches scipy, whose solve only factors of two or more rows take."""
    calls = []
    monkeypatch.setattr(_scipy, "cho_solve", lambda c, b: calls.append(c[0].shape)
                        or scipy.linalg.cho_solve(c, b))
    workloads = perfbench_workloads(pytestconfig.rootpath)
    models = []
    for seed in range(1, 11):
        cfg = parse_config(workloads.hr_tri(seed, 12))
        models += cfg.models().values()
    updates = [(m, sep) for m in models
               for k in (1, 2) for sep in itertools.combinations(m.clique, k)]
    got = [hr.a2_limit_params(m, sep) for m, sep in updates]
    assert calls == [] and len(updates) == 10 * 12 * 6
    k4 = (1, 2, 3, 4)
    corners = np.vstack([np.zeros(3), np.eye(3)])
    gamma = ((corners[:, None] - corners[None]) ** 2).sum(axis=2)
    hr.a2_limit_params(hr.HuslerReissModel(k4, hr.VariogramMatrix(k4, gamma)),
                       (1, 2, 3))
    assert calls == [(2, 2)]

    monkeypatch.setattr(hr, "cho_solve",
                        lambda low, b: scipy.linalg.cho_solve((low, True), b))
    for (slope, law), (m, sep) in zip(got, updates):
        want_slope, want_law = hr.a2_limit_params(m, sep)
        for a, b in ((slope, want_slope), (law.mean, want_law.mean),
                     (law.cov, want_law.cov)):
            assert a.values.tobytes() == b.values.tobytes()
