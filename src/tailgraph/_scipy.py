"""The package's only link to scipy, loaded on first use.

Importing ``scipy.special`` and ``scipy.linalg`` costs more than most
``graph`` and ``derive`` runs, which need neither.  ``_scipy.ndtr`` and
the rest import their scipy module on first access (PEP 562) and bind
the function here, so later calls read a plain module attribute.

So ``graph`` loads no scipy; ``derive`` loads none unless a separator
block has two or more rows (``scipy.linalg``: ``linalg.cho_solve`` solves
one-row blocks itself); ``verify`` loads ``scipy.special`` for its
quantiles, CDFs and KS tables, and ``scipy.linalg`` under the same rule.
"""

from __future__ import annotations

import importlib

_HOME = {
    "ndtr": "scipy.special",
    "ndtri": "scipy.special",
    "log_ndtr": "scipy.special",
    "ndtri_exp": "scipy.special",
    "expm1": "scipy.special",
    "cho_solve": "scipy.linalg",
}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fn = getattr(importlib.import_module(_HOME[name]), name)
    globals()[name] = fn
    return fn
