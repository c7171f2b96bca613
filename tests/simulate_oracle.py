"""Two oracles of the finite-level Hüsler–Reiss pair inverter in
``tailgraph.simulate``.

:func:`_invert_kernel` solves kernel(x) = u for the single new
coordinate by the bracket search and bisection the simulator used
before the pair kernel had a closed form.  The kernel is the
partition-sum form of ``transition_kernel``, which does not go through
the pair closed form.

:func:`_invert_pair` and :func:`_bracket_top` are the Newton inverter as
it was before it searched for a row's bracket top lazily: the top is
computed for every row before the first step.  The lazy inverter must
return the same bits.
"""

import numpy as np

from tailgraph import _scipy
from tailgraph import husler_reiss as hr
from tailgraph.errors import NumericalBreakdown
from tailgraph.husler_reiss import _MAX_STEPS, _NEWTON_STEPS, INVERT_TOL, _X_FLOOR


def _invert_kernel(model, sep, x_sep: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve kernel(x) = u for the single new coordinate, row-wise."""
    nb = u.shape[0]

    def kern(x):
        return np.minimum(hr._partition_kernel(model, sep, x_sep, x[:, None]), 1.0)

    base = np.max(x_sep, axis=1)
    lo = np.full(nb, _X_FLOOR)
    offset = np.full(nb, 8.0)
    hi = base + offset
    for _ in range(8):
        need = kern(hi) < u
        if not need.any():
            break
        offset[need] *= 2.0
        hi = base + np.minimum(offset, 700.0)
    else:
        raise NumericalBreakdown("could not bracket the conditional quantile")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high = kern(mid) >= u
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if np.max(hi - lo) < INVERT_TOL:
            break
    return 0.5 * (lo + hi)


def _bracket_top(model, s: int, x1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Upper end of the inverter's bracket: x1 + 8, with the offset
    doubled, up to 700, while K(hi) < u."""
    hi = x1 + 8.0
    offset = np.full(u.shape[0], 8.0)
    rows = np.arange(u.shape[0])
    for _ in range(8):
        k = hr.transition_kernel(model, (s,), x1[rows, None], hi[rows, None])
        rows = rows[k < u[rows]]
        if rows.size == 0:
            return hi
        offset[rows] *= 2.0
        hi[rows] = x1[rows] + np.minimum(offset[rows], 700.0)
    raise NumericalBreakdown("could not bracket the conditional quantile")


def _invert_pair(model, s: int, x1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve K(x) = u row-wise for the new coordinate of the HR pair
    ``model`` given its vertex ``s`` at the states ``x1``.

    The bracket is [_X_FLOOR, :func:`_bracket_top`]; a root below the
    floor comes back within INVERT_TOL of it.  With a = √Γ, Newton steps
    on the probit scale, x ← x − (Φ⁻¹(K) − Φ⁻¹(u)) φ(Φ⁻¹(K)) / ∂K, start
    from the limit quantile w0 = a Φ⁻¹(u) − Γ/2 of log(y/y1), y1 the
    Fréchet state of x1, mapped back exactly to
    x0 = −log(−expm1(−1/(y1 e^{w0}))); every evaluation moves
    one end of the bracket, and a step that is not finite or leaves the
    bracket goes to its midpoint, as does every step after
    ``_NEWTON_STEPS`` iterations.  A step below INVERT_TOL/4 is
    certified by one evaluation INVERT_TOL/2 away on the side not yet
    bracketed.  A row ends at the midpoint of a bracket narrower than
    INVERT_TOL.  The steps need ∂K and call :func:`hr.pair_kernel`; the
    bracket search and the certification need K alone and call
    :func:`hr.transition_kernel`, which evaluates the same closed form.
    """
    tol = INVERT_TOL
    gamma = float(model.variogram.values[0, 1])
    a = np.sqrt(gamma)
    y1 = hr.exp_to_frechet(x1)
    hi = _bracket_top(model, s, x1, u)
    lo = np.full(u.shape[0], _X_FLOOR)
    out = np.empty(u.shape[0])
    rows = np.arange(u.shape[0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zu = _scipy.ndtri(u)
        x = -np.log(-np.expm1(-1.0 / (y1 * np.exp(a * zu - 0.5 * gamma))))
    np.copyto(x, 0.5 * (lo + hi), where=~((x > lo) & (x < hi)))
    for it in range(_MAX_STEPS):
        k, dk = hr.pair_kernel(a, y1, x, slope=True)
        above = k >= u
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = _scipy.ndtri(k, out=k)
            dk /= np.exp(-0.5 * step * step)
            step -= zu
            dk *= hr._SQRT_2PI
            step /= dk
        near = (np.abs(step) < tol / 4) & (hi - lo >= tol)
        if near.any():
            probe = np.where(above[near], x[near] - tol / 2, x[near] + tol / 2)
            probe_above = hr.transition_kernel(model, (s,), x1[rows[near], None],
                                               probe[:, None]) >= u[near]
            lo[near] = np.where(probe_above, lo[near], probe)
            hi[near] = np.where(probe_above, probe, hi[near])
        x -= step
        newton = (x > lo) & (x < hi) & ~near & (it < _NEWTON_STEPS)
        np.copyto(x, 0.5 * (lo + hi), where=~newton)
        done = hi - lo < tol
        out[rows[done]] = 0.5 * (lo[done] + hi[done])
        if done.all():
            return out
        # one array at a time, so each old array is freed before the next
        # copy is made; one tuple assignment would keep all of them alive
        keep = ~done
        rows = rows[keep]
        y1 = y1[keep]
        u = u[keep]
        zu = zu[keep]
        lo = lo[keep]
        hi = hi[keep]
        x = x[keep]
    raise NumericalBreakdown("the Hüsler-Reiss pair inverter did not converge")
