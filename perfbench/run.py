"""Benchmark for tailgraph: one workload per run, from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's input from ``--seed``, times set-up in fresh
processes, then runs the workload closed loop (one client) in a worker
process for ``--seconds`` with the BLAS pools pinned to one thread and
``--workers 1``.  Every iteration's outputs are checked.  The last line
of stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (from a traced half-run, compared with an untraced
half) with ``--trace 1``.  The exit code is 0 only when every check
passed.  ``--smoke`` shrinks every input for a quick self-test.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh processes timed for ``setup_s`` (the worker is one of them).
SETUP_PROCESSES = 3
#: Seconds after which the last worker is killed; the run's limit is 180.
DEADLINE = 170

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

#: Per workload: the generator (None: the shipped config), its size
#: argument, and the graph size every seed must give, as
#: (vertices, cliques).  ``smoke`` overrides for the self-test.
WORKLOADS = {
    "hr_chain_verify": {
        "make": None, "n": 10_000, "t_levels": "2,4,6", "shape": (3, 2),
        "smoke": {"n": 2000}},
    "gauss_tree_verify": {
        "make": workloads.gauss_tree, "size": workloads.GAUSS_TRIANGLES,
        "n": 10_000, "t_levels": "4,8",
        "shape": (2 * workloads.GAUSS_TRIANGLES + 1, workloads.GAUSS_TRIANGLES),
        "smoke": {"size": 3, "n": 2000, "shape": (7, 3)}},
    "hr_tree_derive": {
        "make": workloads.hr_tree, "size": workloads.HR_TREE_VERTICES,
        "rows": 20_000,
        "shape": (workloads.HR_TREE_VERTICES, workloads.HR_TREE_VERTICES - 1),
        "smoke": {"size": 20, "rows": 500, "shape": (20, 19)}},
    "hr_tri_mrv": {
        "make": workloads.hr_tri, "size": workloads.HR_TRI_TRIANGLES,
        "shape": (workloads.HR_TRI_TRIANGLES + 2, workloads.HR_TRI_TRIANGLES),
        "smoke": {"size": 3, "shape": (5, 3)}},
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ns_per_row"):
        return "ns"
    if name.endswith("_per_kernel_row"):
        return "1"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "count"


def machine_info() -> dict:
    """Ungated context for comparing runs across machines and commits."""
    import numpy
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_pinning": PINNED}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["openblas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (idx / "type").read_text().strip()
            level = (idx / "level").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        info["caches"] = caches
    except OSError:
        pass
    info["src_lines"] = {p.name: len(p.read_text().splitlines())
                         for p in sorted((SRC / "tailgraph").glob("*.py"))}
    return info


def prepare(name: str, seed: int, smoke: bool, work: Path) -> dict:
    """Worker spec for one run; writes the generated config into ``work``."""
    table = dict(WORKLOADS[name])
    if smoke:
        table.update(table["smoke"])
    if table["make"] is None:
        config = ROOT / workloads.HR_CHAIN_CONFIG
        doc = json.loads(config.read_text())
    else:
        doc = table["make"](seed, table["size"])
        config = work / f"{name}.json"
        config.write_text(json.dumps(doc, indent=1))
    shape = (doc["graph"]["vertices"], len(doc["cliques"]))
    if shape != tuple(table["shape"]):
        raise SystemExit(f"{name}: seed {seed} gave (vertices, cliques) = "
                         f"{shape}, expected {table['shape']}")
    return {"workload": name, "seed": seed, "config": str(config),
            "src": str(SRC), "work": str(work),
            **{k: table[k] for k in ("n", "t_levels", "rows") if k in table}}


def start_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"worker for {spec['workload']} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, to check that every metric is emitted")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE
    if not (SRC / "tailgraph").is_dir():
        print(f"no tailgraph sources under {SRC}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = prepare(args.workload, args.seed, args.smoke, work)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(start_worker({**spec, "seconds": 0}, deadline)["setup_s"])
        trace_file = out / f"trace-{args.workload}.jsonl"
        result = start_worker({**spec, "seconds": args.seconds,
                               "trace": args.trace, "trace_file": str(trace_file)},
                              deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    runs = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    digests = [d for r in runs for d in r["digests"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = sorted({p for r in runs for p in r["problems"]})
    reference = digests[0] if digests else None
    mismatched = sum(d != reference for d in digests)
    if mismatched:
        problems.append(f"{mismatched} iterations gave another artifact digest")
        failed += mismatched
    failed = min(failed, attempted)

    walls = result["untraced"]["walls"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"digest {reference}")
    for p in problems:
        print(f"FAILED: {p}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(result["traced"]["layers"].items())}
        traced = result["traced"]["walls"]
        print(f"wall per iteration: untraced {statistics.median(walls):.4f} s "
              f"(median of {len(walls)}), traced {statistics.median(traced):.4f} s "
              f"(median of {len(traced)})")
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"wall_s {metrics['wall_s']['value']:.4f} s "
              f"(median of {len(walls)} iterations)")
        print(f"setup_s {metrics['setup_s']['value']:.4f} s "
              f"(median of {len(setups)} processes)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB (1 process)")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} iterations)")
    print("info " + json.dumps(machine_info(), sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
