"""One workload process of the tailgraph benchmark.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
pools pinned to one thread and ``src`` on ``PYTHONPATH``.  It times the
set-up (``import tailgraph`` plus loading the workload config), then runs
closed-loop iterations (one client, the next starts when the previous
ends) for the given seconds and prints one JSON line:
per-iteration wall times, failures, artifact digests and peak RSS.  In
traced mode it runs an untraced half and then a traced half, and adds
the per-layer metrics.

    python3 perfbench/worker.py '<spec json>'
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Recorder, layer_metrics  # noqa: E402


def _digest_dir(out: Path, h) -> None:
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")


class Workload:
    """One iteration of a workload, and the checks on what it produced."""

    def __init__(self, spec: dict, work: Path) -> None:
        self.spec = spec
        self.seed = spec["seed"]
        self.config = spec["config"]
        self.out = work / "out"
        self.rec: Recorder | None = None

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def cli(self, *args: str) -> int:
        """``tailgraph <args> --out <dir>`` in this process; returns the
        exit code.  Stdout is captured, as a shell user would redirect it."""
        from tailgraph import cli
        buf = io.StringIO()
        k = self.rec.begin("cli.command") if self.rec else None
        try:
            with contextlib.redirect_stdout(buf):
                try:
                    cli.main([*args, "--out", str(self.out)],
                             standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if k is not None:
                self.rec.end(k)
        if k is not None:
            self.rec.counts[k]["out_bytes"] = len(buf.getvalue().encode()) + sum(
                p.stat().st_size for p in self.out.iterdir())
        return code

    def run(self):
        """Timed work; returns what :meth:`check` needs."""
        raise NotImplementedError

    def digest(self, state) -> str:
        raise NotImplementedError

    def check(self, state) -> list[str]:
        """Problems found in the outputs; empty when correct."""
        raise NotImplementedError


class Verify(Workload):
    """``tailgraph verify`` on one config; ``ok_codes`` are the accepted
    exit codes and ``required`` the checks that must be true."""

    def __init__(self, spec, work, ok_codes, required):
        super().__init__(spec, work)
        self.ok_codes, self.required = ok_codes, required

    def run(self):
        return self.cli("verify", "--config", self.config,
                        "--seed", str(self.seed), "--n", str(self.spec["n"]),
                        "--t-levels", self.spec["t_levels"], "--workers", "1")

    def digest(self, code) -> str:
        h = hashlib.sha256(f"exit {code}\n".encode())
        _digest_dir(self.out, h)
        return h.hexdigest()

    def check(self, code) -> list[str]:
        if code not in self.ok_codes:
            return [f"exit code {code}, expected one of {self.ok_codes}"]
        checks = json.loads((self.out / "summary.json").read_text())["checks"]
        return [f"check {name} is {checks.get(name)}"
                for name in (self.required or checks) if checks.get(name) is not True]


class TreeDerive(Workload):
    """``tailgraph derive`` on an HR pair tree, then limit sampling."""

    def run(self):
        import tailgraph
        from tailgraph import limits
        code = self.cli("derive", "--config", self.config)
        cfg = tailgraph.load_config(self.config)
        ordering = cfg.ordering(root=cfg.v)
        model = limits.build_tail_model(ordering, cfg.models(ordering), cfg.v)
        samples = limits.sample_tail_model(model, self.spec["rows"], self.seed,
                                           workers=1)
        return code, samples

    def digest(self, state) -> str:
        code, samples = state
        h = hashlib.sha256(f"exit {code}\n".encode())
        _digest_dir(self.out, h)
        h.update(np.ascontiguousarray(samples.values).tobytes())
        return h.hexdigest()

    def check(self, state) -> list[str]:
        code, samples = state
        if code != 0:
            return [f"derive exit code {code}"]
        doc = json.loads(Path(self.config).read_text())
        n, v = doc["graph"]["vertices"], doc["v"]
        # independent closed form: Z_u = sum over the edges e on the path
        # v -> u of N(-gamma_e/2, gamma_e), so mean = -1/2 sum gamma_e and
        # cov(u, w) = sum of gamma_e over the shared part of both paths
        parent, gamma = {}, {}
        for c in doc["cliques"]:
            a, b = c["vertices"]
            parent[b], gamma[b] = a, c["variogram"][0][1]
        if v != 1 or sorted(parent) != list(range(2, n + 1)):
            return ["config is not a tree rooted at vertex 1"]
        z = list(range(2, n + 1))
        on_path = np.zeros((n - 1, n - 1))
        for u in z:
            x = u
            while x != 1:
                on_path[u - 2, x - 2] = 1.0
                x = parent[x]
        g = np.array([gamma[x] for x in z])
        mean, cov = -0.5 * on_path @ g, (on_path * g) @ on_path.T
        moments = json.loads((self.out / "derive.json").read_text())["limit_moments"]
        got_mean, got_cov = moments["mean"], moments["covariance"]
        problems = []
        if got_mean["index"] != z or got_cov["rows"] != z or got_cov["cols"] != z:
            return ["limit moments are not indexed by vertices 2..n"]
        mean_err = float(np.max(np.abs(np.array(got_mean["values"]) - mean)))
        cov_err = float(np.max(np.abs(np.array(got_cov["values"]) - cov)))
        if mean_err > 1e-9:
            problems.append(f"limit mean off the path sums by {mean_err:.3e}")
        if cov_err > 1e-9:
            problems.append(f"limit covariance off the path sums by {cov_err:.3e}")
        rows = samples.values.shape[0]
        cols = list(samples.columns)
        zs = samples.values[:, [cols.index(u) for u in z]]
        se = np.sqrt(np.diag(cov) / rows)
        worst = float(np.max(np.abs(zs.mean(axis=0) - mean) / se))
        e_v = samples.values[:, cols.index(v)]
        worst = max(worst, abs(float(e_v.mean()) - 1.0) * np.sqrt(rows))
        if worst > 5.0:
            problems.append(f"sample mean {worst:.2f} standard errors off")
        return problems


class TriMRV(Workload):
    """``diagnostics.mrv_checks`` on an HR triangle 2-tree, then derive."""

    def run(self):
        import tailgraph
        from tailgraph import diagnostics
        cfg = tailgraph.load_config(self.config)
        ordering = cfg.ordering(root=cfg.v)
        report = diagnostics.mrv_checks(ordering, cfg.models(ordering),
                                        seed=self.seed)
        return report, self.cli("derive", "--config", self.config)

    def digest(self, state) -> str:
        report, code = state
        h = hashlib.sha256(f"exit {code}\n".encode())
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        _digest_dir(self.out, h)
        return h.hexdigest()

    def check(self, state) -> list[str]:
        report, code = state
        problems = [] if report.ok else ["mrv report is not ok"]
        if code != 0:
            problems.append(f"derive exit code {code}")
        return problems


def make_workload(spec: dict, work: Path) -> Workload:
    name = spec["workload"]
    if name == "hr_chain_verify":
        return Verify(spec, work, (0,), None)
    if name == "gauss_tree_verify":
        return Verify(spec, work, (0, 4), ("ks_trend",))
    if name == "hr_tree_derive":
        return TreeDerive(spec, work)
    if name == "hr_tri_mrv":
        return TriMRV(spec, work)
    raise ValueError(f"unknown workload {name!r}")


def loop(wl: Workload, seconds: float, checked: dict) -> dict:
    """Closed-loop iterations for ``seconds``; at least one runs."""
    walls, digests, problems = [], [], set()
    attempted = failed = 0
    stop = time.perf_counter() + seconds
    while True:
        wl.fresh_out()
        k = wl.rec.begin("iteration") if wl.rec else None
        start = time.perf_counter()
        try:
            state = wl.run()
            walls.append(time.perf_counter() - start)
        except Exception as exc:
            traceback.print_exc()
            state, found = None, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            if k is not None:
                wl.rec.end(k)
        if state is not None:
            digest = wl.digest(state)
            digests.append(digest)
            if digest not in checked:
                # equal digests mean equal outputs, so one check per digest
                checked[digest] = wl.check(state)
            found = checked[digest]
            state = None  # free this iteration's outputs before the next
        attempted += 1
        failed += bool(found)
        problems.update(found)
        if time.perf_counter() >= stop:
            break
    return {"walls": walls, "digests": digests, "attempted": attempted,
            "failed": failed, "problems": sorted(problems)}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import tailgraph
    src = Path(spec["src"]).resolve()
    if src not in Path(tailgraph.__file__).resolve().parents:
        raise SystemExit(f"tailgraph imported from {tailgraph.__file__}, not {src}")
    tailgraph.load_config(spec["config"])
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if spec["seconds"] > 0:
        work = Path(spec["work"])
        wl = make_workload(spec, work)
        checked: dict = {}
        share = spec["seconds"] / (2 if spec["trace"] else 1)
        result["untraced"] = loop(wl, share, checked)
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spec["trace"]:
            wl.rec = Recorder()
            wl.rec.install()
            try:
                traced = loop(wl, share, checked)
            finally:
                wl.rec.uninstall()
            wl.rec.write(spec["trace_file"])
            traced["layers"] = layer_metrics(wl.rec.iteration_totals("iteration"))
            traced["layers"]["trace.overhead_s"] = (
                statistics.median(traced["walls"])
                - statistics.median(result["untraced"]["walls"])
                if traced["walls"] and result["untraced"]["walls"] else 0.0)
            result["traced"] = traced
        shutil.rmtree(wl.out, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
