"""Counter-based random-number streams.

Every stochastic routine takes an integer seed and derives independent
Philox streams as ``key = master_seed * 2**64 + stream_id``.  A stream id
is a pure function of purpose (e.g. the row-block index of a sampler, or
a fixed offset for quadrature shifts), never of execution order, so
results are independent of worker count and identical across runs.

:func:`block_runner` is the one row-block runner: the limit sampler
hands it a fill function for one block, and the finite-level simulator
one for each of its draws in turn.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import numbers

import numpy as np

from .errors import ConfigError

MASK64 = (1 << 64) - 1

# Fixed stream-id offsets; samplers use ids below OFFSET_QUAD for their
# row blocks.
OFFSET_QUAD = 1 << 32  # quadrature randomization
OFFSET_LATENT = 1 << 33  # finite-level simulator blocks
OFFSET_MISC = 1 << 34

#: Row-block length used by all samplers; block k of a run uses stream k.
BLOCK = 1 << 15


def check_seed(seed, where: str) -> int:
    """The seed as an int; raises :class:`ConfigError` unless it is an
    integer (a NumPy one too, not a bool) in [0, 2**64), the range of
    the seed half of a stream key."""
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or not 0 <= seed <= MASK64):
        raise ConfigError(f"{where} must be a 64-bit nonnegative integer, got {seed!r}")
    return int(seed)


def _check_rows(n, workers, least: int = 0) -> None:
    """Raise :class:`ConfigError` unless ``n`` (rows to draw) is an
    integer >= ``least`` and ``workers`` one >= 1."""
    for name, value, low in (("n", n, least), ("workers", workers, 1)):
        if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                or value < low):
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def empty_rows(n: int, shape: tuple[int, int]) -> np.ndarray:
    """``np.empty(shape)`` for a sampler's n rows; :class:`ConfigError`
    naming n, the shape and its bytes if the machine cannot hold it."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond the index range
        nbytes = shape[0] * shape[1] * 8
        raise ConfigError(f"n={n} rows need a float array of shape {shape}, "
                          f"{nbytes} bytes, which cannot be allocated") from exc


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for the given (seed, stream) pair; both go through the
    integer rule of :func:`check_seed` and are shifted as ints, so that no
    NumPy integer wraps."""
    key = (check_seed(seed, "seed") << 64) | check_seed(stream, "stream id")
    return np.random.Generator(np.random.Philox(key=key))


def block_bounds(n: int) -> list[tuple[int, int, int]]:
    """(block index, start, stop) triples covering range(n)."""
    return [(k, s, min(s + BLOCK, n)) for k, s in enumerate(range(0, n, BLOCK))]


@contextlib.contextmanager
def block_runner(n: int, workers: int):
    """A function ``run(fill)`` that calls ``fill((k, start, stop))`` for
    every row block of range(n), in order on this thread, or on one pool
    of ``workers`` threads kept for the ``with`` statement.  Each block
    writes only its own rows and draws from its own stream, so the result
    does not depend on ``workers``."""
    blocks = block_bounds(n)
    if workers <= 1 or len(blocks) == 1:
        yield lambda fill: [fill(blk) for blk in blocks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            yield lambda fill: list(pool.map(fill, blocks))
