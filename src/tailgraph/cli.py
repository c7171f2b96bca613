"""Command-line driver.

Three subcommands: ``graph`` (chordality / junction tree), ``derive``
(classify the norming and emit the limit object), ``verify`` (seeded
Monte Carlo checks against the derived limit).

Exit codes: 0 success, 2 malformed configuration, 3 mathematical
precondition failure (non-chordal graph, incompatible separators, ...),
4 verification checks ran but failed; one context manager maps every
failure to 2 or 3.  Failures print a machine-readable JSON payload
``{"error": {"type": ..., "message": ...}}``; exit 3 adds the config hash
and, from ``derive``, the verdict reached so far (``"partial"``).

Every output embeds the config hash and seed.  Reruns with the same
config and seed produce byte-identical files regardless of ``--workers``,
so worker count never appears in any output document.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click

from . import diagnostics as dg
from . import limits
from .config import RunConfig, check_seed, check_t_levels, load_config
from .errors import ConfigError, TailgraphError
from .graphs import clique_ordering, junction_tree
from .rng import _check_rows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


def _dump(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    ``indent`` switches json to its pure-Python encoder, which formats
    one number at a time; here a list of finite floats is one join.
    Whatever this does not recognize goes to ``json.dumps`` itself.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _encode(obj, nl: str, parts: list[str]) -> None:
    """Append the JSON text of ``obj``, whose line is indented as ``nl``
    (a newline and the indentation) says."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True or obj is False:
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # an item that is not a float
            text = None
        if text is not None and "n" not in text:  # no nan or inf either
            parts.append("[" + inner + text + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    elif (isinstance(obj, dict) and obj
          and all(isinstance(key, str) for key in obj)):
        inner = nl + "  "
        sep = "{" + inner
        for key, val in sorted(obj.items()):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(val, inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    else:  # empty containers, non-str keys, and what json itself rejects
        parts.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _echo(text: str) -> None:
    # click.echo without ``file`` caches a wrapper per stdout stream in a
    # map that keeps the stream alive; a caller that redirects stdout for
    # each command would keep every output in memory
    click.echo(text, nl=False, file=sys.stdout)


def _emit(doc: dict, out_dir: Path | None, filename: str) -> None:
    text = _dump(doc)
    if out_dir is not None:
        (out_dir / filename).write_text(text)
    _echo(text)


def _write(out_dir: Path | None, filename: str, text: str) -> None:
    if out_dir is not None:
        (out_dir / filename).write_text(text)


@contextlib.contextmanager
def _exit_on_failure(cfg: RunConfig | None = None, extra: dict | None = None):
    """Print the JSON payload of a :class:`TailgraphError` raised in the
    block and exit: 2 for a :class:`ConfigError`, otherwise 3 with the
    config hash and ``extra`` as it reads then.  ``cfg`` is None only
    around :func:`load_config`, whose only failure is a ConfigError."""
    try:
        yield
    except TailgraphError as exc:
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        witness = getattr(exc, "witness", None) or getattr(exc, "witness_clique", None)
        if witness is not None:
            doc["error"]["witness"] = list(witness)
        if isinstance(exc, ConfigError):
            _echo(_dump(doc))
            sys.exit(EXIT_CONFIG)
        _echo(_dump({**doc, "config_hash": cfg.config_hash(), **(extra or {})}))
        sys.exit(EXIT_PRECONDITION)


def _load(config_path: str) -> RunConfig:
    with _exit_on_failure():
        return load_config(config_path)


def _out_dir(flag: str | None, cfg: RunConfig) -> Path | None:
    target = flag if flag is not None else cfg.out
    if target is None:
        return None
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _pick_v(flag: int | None, cfg: RunConfig) -> int:
    v = flag if flag is not None else cfg.v
    if v is None:
        raise ConfigError("no conditioning vertex: set 'v' in the config "
                          "or pass --v")
    if not (1 <= v <= cfg.graph.n):
        raise ConfigError(f"v={v} outside 1..{cfg.graph.n}")
    return v


CONVENTIONS = {
    "margins": "unit_exponential",
    "pair_conditional_limit": "normal(mean=-gamma/2, variance=gamma)",
    "norming": "a(t) = coeff * t, b(t) = scale * t**bexp, bexp in {0, 1/2}",
}


@click.group()
def main() -> None:
    """Tail limits for decomposable graphical models."""


@main.command("graph")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Run configuration (JSON).")
@click.option("--out", "out_flag", default=None, type=click.Path(),
              help="Directory for output documents.")
@click.option("--root", default=None, type=int,
              help="Vertex the first clique must contain.")
def cmd_graph(config_path: str, out_flag: str | None, root: int | None) -> None:
    """Check chordality and connectivity; emit the junction tree."""
    cfg = _load(config_path)
    out = _out_dir(out_flag, cfg)
    if root is None:
        root = cfg.v if cfg.v is not None else 1
    with _exit_on_failure(cfg):
        ordering = clique_ordering(cfg.graph, root)
        tree = junction_tree(ordering)
    doc = {
        "config_hash": cfg.config_hash(),
        "graph": cfg.graph.to_dict(),
        "root": root,
        "connected": True,
        "chordal": True,
        "ordering": ordering.to_dict(),
        "junction_tree": tree.to_dict(),
    }
    _emit(doc, out, "graph.json")


@main.command("derive")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_flag", default=None, type=click.Path())
@click.option("--v", "v_flag", default=None, type=int,
              help="Conditioning vertex (overrides the config).")
def cmd_derive(config_path: str, out_flag: str | None, v_flag: int | None) -> None:
    """Classify the norming recursion and emit the limit object."""
    cfg = _load(config_path)
    out = _out_dir(out_flag, cfg)
    with _exit_on_failure(cfg):
        v = _pick_v(v_flag, cfg)
        ordering = cfg.ordering(root=v)
        models = cfg.models(ordering)

    doc = {"config_hash": cfg.config_hash(), "v": v,
           "conventions": dict(CONVENTIONS)}
    partial = {"partial": None}
    with _exit_on_failure(cfg, partial):
        verdict, model = limits.derive_limit(ordering, models, v)
        doc["verdict"] = partial["partial"] = verdict.to_dict()
        if model is not None:
            limit = model
            doc["tail_model"] = model.to_dict()
        else:
            limit = limits.build_tail_noise(ordering, models, v)
            doc["tail_noise"] = limit.to_dict()
        mean, cov = limits.tail_model_moments(limit)
        doc["limit_moments"] = {"mean": mean.to_dict(),
                                "covariance": cov.to_dict()}
    _emit(doc, out, "derive.json")


def _remainder_csv(report: limits.RemainderReport) -> str:
    lines = ["clique,t,sup_a,sup_b"]
    for r in report.rows:
        name = " ".join(str(u) for u in r.clique)
        lines.append(f"{name},{r.t!r},{r.sup_a!r},{r.sup_b!r}")
    return "\n".join(lines) + "\n"


def _remainder_checks(report: limits.RemainderReport,
                      model: limits.TailGraphicalModel) -> dict:
    """Per-clique verdicts, each by its clique's record: exact zeros for
    pure-location cliques, and a first-to-last decrease of the defect
    suprema otherwise."""
    by_clique = {}
    for r in report.rows:  # each clique's rows in t order
        by_clique.setdefault(r.clique, []).append(max(r.sup_a, r.sup_b))
    checks = {}
    for upd in model.updates:
        sups = by_clique[upd.clique]
        checks[" ".join(str(u) for u in upd.clique)] = {
            "family": upd.family,
            "sup_first": sups[0],
            "sup_last": sups[-1],
            "ok": upd.record.remainder_ok(sups),
        }
    return checks


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_flag", default=None, type=click.Path())
@click.option("--v", "v_flag", default=None, type=int)
@click.option("--seed", default=None, type=int, help="Overrides the config seed.")
@click.option("--n", "n_flag", default=None, type=int,
              help="Samples per level (overrides the config).")
@click.option("--t-levels", "t_flag", default=None, type=str,
              help="Comma-separated strictly ascending levels, e.g. '2,4,8'.")
@click.option("--workers", default=1, type=int, show_default=True,
              help="Simulation threads; never affects output bytes.")
def cmd_verify(config_path: str, out_flag: str | None, v_flag: int | None,
               seed: int | None, n_flag: int | None, t_flag: str | None,
               workers: int) -> None:
    """Run the seeded Monte Carlo checks and write the verdict tables."""
    cfg = _load(config_path)
    out = _out_dir(out_flag, cfg)
    with _exit_on_failure(cfg):
        v = _pick_v(v_flag, cfg)
        seed = cfg.seed if seed is None else check_seed(seed, "--seed")
        n = cfg.n if n_flag is None else n_flag
        _check_rows(n, workers, least=2)  # study_limit's rule, before any work
        if t_flag is None:
            t_levels = cfg.t_levels
        else:
            try:
                t_levels = tuple(float(s) for s in t_flag.split(","))
            except ValueError:
                raise ConfigError(f"cannot parse --t-levels {t_flag!r}")
            t_levels = check_t_levels(t_levels, "--t-levels")
        ordering = cfg.ordering(root=v)
        models = cfg.models(ordering)

    tol = cfg.tolerances
    summary = {"config_hash": cfg.config_hash(), "v": v, "seed": seed, "n": n,
               "t_levels": list(t_levels), "conventions": dict(CONVENTIONS)}
    checks = {}
    with _exit_on_failure(cfg):
        verdict, model = limits.derive_limit(ordering, models, v)
        summary["verdict"] = verdict.to_dict()
        limit = (model if model is not None
                 else limits.build_tail_noise(ordering, models, v))

        report = dg.study_limit(
            limit, t_levels, n, seed,
            ks_const=tol["ks_const"], workers=workers)
        report = dataclasses.replace(report, slack=tol["trend_slack"])
        _write(out, "ks_table.csv", report.ks_csv())
        _write(out, "moment_gaps.csv", report.gaps_csv())
        summary["convergence"] = report.to_dict()
        checks["ks_trend"] = report.trend_ok()

        if model is not None:
            rem = limits.remainder_report(model, t_grid=tol["remainder_grid"])
            _write(out, "remainders.csv", _remainder_csv(rem))
            rem_checks = _remainder_checks(rem, model)
            summary["remainders"] = {"grid": list(tol["remainder_grid"]),
                                     "cliques": rem_checks}
            checks["remainders"] = all(c["ok"] for c in rem_checks.values())

        if all(u.record.has_density for u in limit.in_order):
            mrv = dg.mrv_checks(ordering, models, seed=seed)
            mrv_doc = mrv.to_dict()
            _write(out, "mrv.json", _dump(mrv_doc))
            summary["mrv"] = mrv_doc
            checks["mrv"] = mrv.ok

    summary["checks"] = checks
    summary["pass"] = all(checks.values())
    _emit(summary, out, "summary.json")
    sys.exit(EXIT_OK if summary["pass"] else EXIT_VERIFY)


if __name__ == "__main__":
    main()
