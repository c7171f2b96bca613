"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced and traced, and
checks that the run passes its correctness checks and emits exactly the
metrics BENCHMARK.json names, with their units.  It also checks the
work counts that separate the workloads (HR kernel calls only on
``hr_chain_verify``, bivariate normal CDF calls only on ``hr_tri_mrv``),
and that ``run.py`` fails without printing a result when the program's
sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int, root: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300)
    return proc.returncode, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run(wl, trace)
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{wl} --trace {trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                errors.append(f"{where}: exit {code}, result {result}")
            if got != expected[trace]:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if (m["husler_reiss.kernel_calls"] > 0) != (wl == "hr_chain_verify"):
                    errors.append(f"{where}: kernel_calls {m['husler_reiss.kernel_calls']}")
                if (m["mvn.bvn_calls"] > 0) != (wl == "hr_tri_mrv"):
                    errors.append(f"{where}: bvn_calls {m['mvn.bvn_calls']}")
            print(f"{where}: {'ok' if not errors else 'FAILED'}", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run("hr_chain_verify", 0, root=bare)
        if code == 0 or '"correct"' in out:
            errors.append(f"without sources: exit {code}, stdout {out!r}")
        print(f"without sources: exit {code}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAILED:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
