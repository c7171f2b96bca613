"""50-digit references for the Hüsler–Reiss pair numerics, by mpmath.

Each function reads its double arguments exactly and returns an mpmath
number computed at :data:`DIGITS` significant digits from the defining
formula, not from the package's rearrangements:

- :func:`exp_to_frechet`, y = −1/log(1 − e^{−x}), and
  :func:`exp_to_frechet_condition`, how much the rounding of e^{−x}
  moves a double evaluation of it;
- :func:`pair_kernel`, K(x) = Φ(a/2 + w/a) exp(1/y1 − Λ(y1, y)) with
  w = log(y/y1), and :func:`pair_kernel_slope`, its x-derivative taken
  numerically by mpmath, not from the closed form;
- :func:`pair_start`, the pair inverter's start
  −log(1 − exp(−1/(y1 e^{a zu − Γ/2}))).
"""

import mpmath as mp

DIGITS = 50


def _frechet(x):
    return -1 / mp.log(-mp.expm1(-x))


def exp_to_frechet(x):
    with mp.workdps(DIGITS):
        return _frechet(mp.mpf(x))


def exp_to_frechet_condition(x):
    """e^{−x} / ((1 − e^{−x}) |log(1 − e^{−x})|): the relative change of
    y per relative change of e^{−x}, which the form −1/log1p(−e^{−x})
    suffers from the rounding of e^{−x}."""
    with mp.workdps(DIGITS):
        x = mp.mpf(x)
        one_minus = -mp.expm1(-x)
        return mp.exp(-x) / (one_minus * abs(mp.log(one_minus)))


def _kernel(a, y1, x):
    y = _frechet(x)
    w = mp.log(y / y1)
    p, q = mp.ncdf(a / 2 + w / a), mp.ncdf(a / 2 - w / a)
    return p * mp.exp(1 / y1 - p / y1 - q / y)


def pair_kernel(a, y1, x):
    """P(X_2 <= x | X_1 = x_1) of an HR pair with a = √Γ, given the
    Fréchet state ``y1`` of x_1."""
    with mp.workdps(DIGITS):
        return _kernel(mp.mpf(a), mp.mpf(y1), mp.mpf(x))


def pair_kernel_slope(a, y1, x):
    with mp.workdps(DIGITS):
        a, y1 = mp.mpf(a), mp.mpf(y1)
        return mp.diff(lambda t: _kernel(a, y1, t), mp.mpf(x))


def pair_start(a, gamma, y1, zu):
    with mp.workdps(DIGITS):
        big = mp.mpf(y1) * mp.exp(mp.mpf(a) * mp.mpf(zu) - mp.mpf(gamma) / 2)
        return -mp.log(-mp.expm1(-1 / big))
