"""Vertex-indexed vectors/matrices and Gaussian laws.

Matrices that parametrize clique models are indexed by vertex labels, not
positions; all submatrix extraction goes through these wrappers so that
vertex bookkeeping mistakes fail loudly instead of silently permuting
rows.  Symmetry is checked to 1e-12 and inverse multiply-back to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import ConfigError, EmptySubset, NotSPD

SYMMETRY_TOL = 1e-12
IDENTITY_TOL = 1e-10


def _as_labels(index) -> tuple[int, ...]:
    """``index`` as int labels: unique integers, NumPy ones too but no
    bools (:func:`tailgraph.rng.check_seed`'s rule), at least one."""
    labels = tuple(index)
    if set(map(type, labels)) - {int}:  # plain ints need no check
        for u in labels:
            if not isinstance(u, (int, np.integer)) or isinstance(u, bool):
                raise ConfigError(f"label {u!r} in index {labels} is not an integer")
        labels = tuple(map(int, labels))
    if not labels:
        raise EmptySubset("empty label index")
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate labels in index {labels}")
    return labels


#: Messages of :func:`_positions`, formatted with the label and the index.
_LABEL = "label {} not in index {}"
_ROW = "row label {} not in {}"
_COL = "column label {} not in {}"


def _positions(index: tuple, labels, message: str) -> list[int]:
    """Positions of ``labels`` in ``index``, where a label matches only an
    equal entry (2.0 finds 2; 2.5 and 'a' find nothing); a label without
    a match raises :class:`ConfigError` with ``message.format(label, index)``."""
    pos = {u: k for k, u in enumerate(index)}
    out = []
    for v in labels:
        try:
            out.append(pos[v])
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ConfigError(message.format(v, index)) from None
    return out


def _at(index: tuple, positions) -> tuple:
    """The labels of ``index`` at ``positions``, as it holds them (2, not 2.0)."""
    return tuple(index[k] for k in positions)


class _LabelledSquare:
    """``sub`` and ``entry`` of a square parameter matrix whose fields are
    ``index`` and ``values``; ``sub`` builds (and so validates) a block of
    the same type."""

    def sub(self, labels):
        pos = _positions(self.index, labels, _ROW)
        return type(self)(_at(self.index, pos), self.values[np.ix_(pos, pos)])

    def entry(self, i: int, j: int) -> float:
        (r,), (c,) = _positions(self.index, [i], _ROW), _positions(self.index, [j], _COL)
        return float(self.values[r, c])


def _labelled_matrix(rows, cols, values):
    """(rows, cols, values) checked: unique labels, a matching shape, and a
    read-only float copy of ``values``."""
    rows, cols = _as_labels(rows), _as_labels(cols)
    vals = np.array(values, dtype=float)
    if vals.shape != (len(rows), len(cols)):
        raise ConfigError(
            f"matrix shape {vals.shape} does not match index sizes "
            f"{len(rows)}x{len(cols)}"
        )
    vals.setflags(write=False)
    return rows, cols, vals


@dataclass(frozen=True)
class IndexedVector:
    """1-D array with vertex labels."""

    index: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "index", _as_labels(self.index))
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.index),):
            raise ConfigError(
                f"vector shape {vals.shape} does not match index of "
                f"length {len(self.index)}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def sub(self, labels) -> "IndexedVector":
        pos = _positions(self.index, labels, _LABEL)
        return IndexedVector(_at(self.index, pos), self.values[pos])

    def entry(self, label: int) -> float:
        return float(self.values[_positions(self.index, [label], _LABEL)[0]])

    def to_dict(self) -> dict:
        return {"index": list(self.index), "values": self.values.tolist()}


@dataclass(frozen=True)
class IndexedMatrix:
    """2-D array with row and column vertex labels."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        rows, cols, vals = _labelled_matrix(self.rows, self.cols, self.values)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def square(index, values) -> "IndexedMatrix":
        index = tuple(index)
        return IndexedMatrix(index, index, values)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def sub(self, rows, cols=None) -> "IndexedMatrix":
        r = _positions(self.rows, rows, _ROW)
        rows = _at(self.rows, r)
        c = _positions(self.cols, rows if cols is None else cols, _COL)
        return IndexedMatrix(rows, _at(self.cols, c), self.values[np.ix_(r, c)])

    def entry(self, i: int, j: int) -> float:
        (r,), (c,) = _positions(self.rows, [i], _ROW), _positions(self.cols, [j], _COL)
        return float(self.values[r, c])

    def check_symmetric(self) -> "IndexedMatrix":
        if not self.is_square:
            raise NotSPD(f"matrix indexed by {self.rows} x {self.cols} is not square")
        gap = float(np.max(np.abs(self.values - self.values.T), initial=0.0))
        if gap > SYMMETRY_TOL:
            raise NotSPD(f"symmetry violated by {gap:.3e} (tolerance {SYMMETRY_TOL:.1e})")
        return self

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "values": self.values.tolist(),
        }


def cholesky_spd(values: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, raising :class:`NotSPD` with context on failure."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSPD(f"{what} is not square: shape {arr.shape}")
    if arr.shape == (1, 1):
        # LAPACK's one step: a positive pivot and its square root
        if arr[0, 0] <= 0.0:
            raise NotSPD(f"{what} is not positive definite")
        return np.sqrt(arr)
    gap = float(np.max(np.abs(arr - arr.T), initial=0.0))
    if gap > SYMMETRY_TOL:
        raise NotSPD(f"{what} symmetry violated by {gap:.3e}")
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"{what} is not positive definite: {exc}") from exc


def cho_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X with L·Lᵀ·X = B for a lower Cholesky factor L, with the bits of
    ``scipy.linalg.cho_solve((L, True), B)``.

    A 1×1 factor [[l]] takes LAPACK's own arithmetic (``dpotrs``: two
    triangular solves, each a product with the pivot's reciprocal),
    X = (B·r)·r with r = 1/l, and loads no scipy: the inverses of HR and
    mixed derives and the two-vertex separators of HR 2-trees need no
    more.  Larger factors go to scipy.
    """
    if low.shape == (1, 1):
        with np.errstate(over="ignore"):
            r = 1.0 / low[0, 0]
            return (b * r) * r
    return _scipy.cho_solve((low, True), b)


def spd_inverse(m: IndexedMatrix) -> IndexedMatrix:
    """Inverse of a symmetric positive-definite indexed matrix.

    Uses a Cholesky solve and verifies ``m @ inv`` against the identity
    to ``IDENTITY_TOL``; raises :class:`NotSPD` if factorization or the
    multiply-back check fails.
    """
    m.check_symmetric()
    low = cholesky_spd(m.values, what=f"matrix on {m.rows}")
    inv = cho_solve(low, np.eye(len(m.rows)))
    inv = 0.5 * (inv + inv.T)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = float(np.max(np.abs(m.values @ inv - np.eye(len(m.rows)))))
    if not gap <= IDENTITY_TOL:  # a NaN gap is a failure too
        raise NotSPD(
            f"inverse multiply-back off by {gap:.3e} (tolerance {IDENTITY_TOL:.1e}); "
            "matrix is too ill-conditioned"
        )
    return IndexedMatrix(m.rows, m.rows, inv)


@dataclass(frozen=True)
class GaussianLaw:
    """Multivariate normal with vertex-labelled mean and covariance."""

    mean: IndexedVector
    cov: IndexedMatrix

    def __post_init__(self):
        if self.cov.rows != self.mean.index or not self.cov.is_square:
            raise ConfigError("covariance index does not match mean index")
        # fail early on an asymmetric or non-PD covariance (cholesky_spd
        # checks both) and cache the factor for sampling
        low = cholesky_spd(self.cov.values, what=f"covariance on {self.mean.index}")
        object.__setattr__(self, "chol", low)

    @property
    def index(self) -> tuple[int, ...]:
        return self.mean.index

    @property
    def dim(self) -> int:
        return len(self.mean.index)

    @staticmethod
    def from_arrays(index, mean, cov) -> "GaussianLaw":
        index = tuple(index)
        return GaussianLaw(IndexedVector(index, mean), IndexedMatrix.square(index, cov))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.dim))
        return self.mean.values + z @ self.chol.T

    def to_dict(self) -> dict:
        return {"mean": self.mean.to_dict(), "cov": self.cov.to_dict()}
