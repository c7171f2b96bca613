"""Run configuration: strict JSON ingestion for the command-line driver.

Unknown keys are rejected everywhere — a typo in a config should fail
loudly, not silently fall back to a default.  Clique model specs must
cover exactly the maximal cliques of the graph.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import gaussian as gsn
from . import husler_reiss as hr
from .errors import ConfigError
from .graphs import Graph, CliqueOrdering, clique_ordering
from .rng import check_seed

_TOP_KEYS = {"graph", "cliques", "correlation", "v", "t_levels", "n", "seed",
             "out", "tolerances", "notes"}
_CLIQUE_KEYS = {"vertices", "family", "variogram", "correlation"}
_TOL_KEYS = {"ks_const", "trend_slack", "remainder_grid"}

DEFAULT_T_LEVELS = (2.0, 4.0, 8.0)
DEFAULT_N = 100_000
DEFAULT_SEED = 0

#: Verification defaults, for configs and the library alike: a margin's KS
#: statistic must stay below KS_CONST / sqrt(n), a KS trend step may rise by
#: the Monte Carlo slack TREND_SLACK, and remainders are taken at these t.
KS_CONST = 1.95
TREND_SLACK = 1.2
REMAINDER_GRID = (10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class CliqueSpec:
    vertices: tuple[int, ...]
    family: str
    matrix: tuple[tuple[float, ...], ...]

    def build(self):
        arr = np.array(self.matrix, dtype=float)
        if self.family == "husler_reiss":
            return hr.HuslerReissModel(
                self.vertices, hr.VariogramMatrix(self.vertices, arr))
        return gsn.GaussianCopulaModel(
            self.vertices, gsn.CorrelationMatrix(self.vertices, arr))


@dataclass(frozen=True)
class RunConfig:
    graph: Graph
    clique_specs: tuple[CliqueSpec, ...] | None
    correlation: tuple[tuple[float, ...], ...] | None
    v: int | None
    t_levels: tuple[float, ...]
    n: int
    seed: int
    out: str | None
    tolerances: dict
    notes: str | None
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def ordering(self, root: int | None = None) -> CliqueOrdering:
        if root is None:
            root = self.v if self.v is not None else self.graph.vertices[0]
        return clique_ordering(self.graph, root)

    def models(self, ordering: CliqueOrdering | None = None) -> dict:
        """Per-clique models keyed by sorted vertex tuple; the specs must
        cover exactly the graph's maximal cliques."""
        if ordering is None:
            ordering = self.ordering()
        maximal = set(ordering.cliques)
        if self.correlation is not None:
            arr = np.array(self.correlation, dtype=float)
            full = gsn.CorrelationMatrix(self.graph.vertices, arr)
            return {c: gsn.GaussianCopulaModel(c, full.sub(c)) for c in maximal}
        if self.clique_specs is None:
            raise ConfigError("config declares no clique models")
        keys = [s.vertices for s in self.clique_specs]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate clique specs")
        given = set(keys)
        if given != maximal:
            missing = sorted(maximal - given)
            extra = sorted(given - maximal)
            parts = []
            if missing:
                parts.append(f"missing specs for maximal cliques {missing}")
            if extra:
                parts.append(f"specs {extra} are not maximal cliques")
            raise ConfigError("; ".join(parts))
        return {s.vertices: s.build() for s in self.clique_specs}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(x) -> bool:
    # bool is an int subclass, but JSON true/false is not a number
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A JSON number that converts to a finite float."""
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def check_levels(levels, where: str) -> tuple[float, ...]:
    """Levels as floats; raises :class:`ConfigError` unless they are a
    nonempty run of finite positive real numbers (not bools or strings)."""
    try:
        vals = tuple(levels)
    except TypeError:
        raise ConfigError(f"{where} must be a list of levels, got {levels!r}") from None
    for t in vals:
        _require(isinstance(t, numbers.Real) and not isinstance(t, bool),
                 f"{where}: level {t!r} is not a real number")
    _require(len(vals) > 0, f"{where} must be nonempty")
    out = []
    for t in vals:
        try:
            t = float(t)
        except OverflowError:  # an integer beyond the float range
            t = math.inf
        _require(math.isfinite(t) and t > 0,
                 f"{where}: level {t!r} must be finite and positive")
        out.append(t)
    return tuple(out)


def check_t_levels(levels, where: str) -> tuple[float, ...]:
    """:func:`check_levels`, strictly ascending."""
    vals = check_levels(levels, where)
    _require(all(a < b for a, b in zip(vals, vals[1:])),
             f"{where} must be strictly ascending")
    return vals


def _check_keys(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    _require(not unknown, f"unknown keys {sorted(unknown)} in {where}")


def _parse_graph(data) -> Graph:
    _require(isinstance(data, dict), "graph must be an object")
    return Graph.from_dict(data)


def _parse_clique(data, i: int) -> CliqueSpec:
    _require(isinstance(data, dict), f"cliques[{i}] must be an object")
    _check_keys(data, _CLIQUE_KEYS, f"cliques[{i}]")
    _require("vertices" in data and "family" in data,
             f"cliques[{i}] needs 'vertices' and 'family'")
    verts = data["vertices"]
    _require(isinstance(verts, list) and verts
             and all(_is_int(x) for x in verts),
             f"cliques[{i}].vertices must be a list of integers")
    key = tuple(sorted(verts))
    _require(len(set(key)) == len(verts), f"cliques[{i}] repeats vertices")
    _require(list(key) == verts,
             f"cliques[{i}].vertices must be sorted ascending (got {verts})")
    fam = data["family"]
    if fam == "husler_reiss":
        _require("variogram" in data and "correlation" not in data,
                 f"cliques[{i}]: husler_reiss takes 'variogram'")
        mat = data["variogram"]
    elif fam == "gaussian":
        _require("correlation" in data and "variogram" not in data,
                 f"cliques[{i}]: gaussian takes 'correlation'")
        mat = data["correlation"]
    else:
        raise ConfigError(f"cliques[{i}]: unknown family {fam!r}")
    d = len(verts)
    rows = _square(mat, d, f"cliques[{i}]: parameter matrix must be {d}x{d} numbers")
    return CliqueSpec(vertices=key, family=fam, matrix=rows)


def _square(mat, d: int, message: str) -> tuple[tuple[float, ...], ...]:
    """A d x d list of JSON numbers as float rows; otherwise
    :class:`ConfigError` with ``message``."""
    _require(isinstance(mat, list) and len(mat) == d
             and all(isinstance(r, list) and len(r) == d
                     and all(_is_number(x) for x in r) for r in mat),
             message)
    return tuple(tuple(float(x) for x in r) for r in mat)


def parse_config(data: dict) -> RunConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")
    _require("graph" in data, "config needs a 'graph' section")
    graph = _parse_graph(data["graph"])

    specs = None
    if "cliques" in data:
        _require(isinstance(data["cliques"], list), "'cliques' must be a list")
        specs = tuple(_parse_clique(c, i) for i, c in enumerate(data["cliques"]))
    correlation = None
    if "correlation" in data:
        _require(specs is None, "give either 'cliques' or 'correlation', not both")
        d = graph.n
        correlation = _square(data["correlation"], d,
                              f"whole-graph correlation must be {d}x{d} numbers")

    v = data.get("v")
    if v is not None:
        _require(_is_int(v), "'v' must be an integer vertex label")
        _require(1 <= v <= graph.n, f"v={v} outside 1..{graph.n}")

    t_levels = data.get("t_levels")
    if t_levels is None:
        t_levels = DEFAULT_T_LEVELS
    else:
        _require(isinstance(t_levels, list), "'t_levels' must be a list")
        for t in t_levels:
            _require(_is_finite(t), f"t level {t!r} must be a finite number")
        t_levels = check_t_levels(t_levels, "'t_levels'")

    n = data.get("n", DEFAULT_N)
    _require(_is_int(n) and n >= 1, "'n' must be a positive integer")
    seed = check_seed(data.get("seed", DEFAULT_SEED), "'seed'")

    out = data.get("out")
    _require(out is None or isinstance(out, str), "'out' must be a string")
    notes = data.get("notes")
    _require(notes is None or isinstance(notes, str), "'notes' must be a string")

    tolerances = {"ks_const": KS_CONST, "trend_slack": TREND_SLACK,
                  "remainder_grid": REMAINDER_GRID}
    if "tolerances" in data:
        tdata = data["tolerances"]
        _require(isinstance(tdata, dict), "'tolerances' must be an object")
        _check_keys(tdata, _TOL_KEYS, "tolerances")
        if "ks_const" in tdata:
            _require(_is_finite(tdata["ks_const"]) and tdata["ks_const"] > 0,
                     "ks_const must be finite and positive")
            tolerances["ks_const"] = float(tdata["ks_const"])
        if "trend_slack" in tdata:
            _require(_is_finite(tdata["trend_slack"])
                     and tdata["trend_slack"] >= 1.0,
                     "trend_slack must be finite and >= 1")
            tolerances["trend_slack"] = float(tdata["trend_slack"])
        if "remainder_grid" in tdata:
            grid = tdata["remainder_grid"]
            _require(isinstance(grid, list), "remainder_grid must be a list")
            tolerances["remainder_grid"] = check_levels(grid, "remainder_grid")

    return RunConfig(
        graph=graph, clique_specs=specs, correlation=correlation, v=v,
        t_levels=t_levels, n=n, seed=seed, out=out,
        tolerances=tolerances, notes=notes, raw=data,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(data)
