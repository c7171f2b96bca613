"""Exception types shared across the package.

Every precondition failure raises one of these rather than a bare
ValueError, so callers (and the CLI) can map failures to exit codes:
configuration problems are distinguishable from mathematical
preconditions, which are distinguishable from verification failures.
"""

from __future__ import annotations


class TailgraphError(Exception):
    """Base class for all package errors."""


class ConfigError(TailgraphError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# graph preconditions


class NotConnected(TailgraphError):
    """The graph is not connected."""


class NotChordal(TailgraphError):
    """The graph has a chordless cycle of length >= 4.

    The offending cycle is attached as ``witness`` (a vertex tuple).
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = tuple(witness)
        super().__init__(f"graph is not chordal; chordless cycle {self.witness}")


class NotBlockGraph(TailgraphError):
    """A separator with more than one vertex exists."""


# ---------------------------------------------------------------------------
# numeric preconditions


class NotSPD(TailgraphError):
    """A matrix required to be symmetric positive definite is not."""


class DimensionTooLarge(TailgraphError):
    """Requested multivariate normal dimension exceeds the supported cap."""


class InvalidVariogram(TailgraphError):
    """A variogram matrix violates symmetry, zero diagonal, or strict
    conditional negative definiteness."""


class DegenerateCorrelation(TailgraphError):
    """A correlation entry with the conditioning vertex is 0 or 1, so the
    norming functions degenerate."""


class NumericalBreakdown(TailgraphError):
    """A closed-form or quadrature result is non-finite or outside its
    feasible range by more than the configured noise allowance."""


class IncompatibleSeparators(TailgraphError):
    """Adjacent cliques disagree on their shared separator parameters."""


# ---------------------------------------------------------------------------
# model-building preconditions


class NormingIncompatible(TailgraphError):
    """The single-vertex norming recursion breaks down along the ordering;
    the separator-normed (block) limit is the appropriate object."""

    def __init__(self, message: str, witness_clique: tuple[int, ...] | None = None):
        self.witness_clique = tuple(witness_clique) if witness_clique else None
        super().__init__(message)


class UnsupportedCliqueShape(TailgraphError):
    """The finite-level simulator does not support this clique shape."""


class MissingNorming(TailgraphError):
    """A renormalization was requested for a vertex without a norming."""


class EmptySubset(TailgraphError):
    """An operation was given an empty vertex subset."""


class QuantileOutOfRange(TailgraphError):
    """A quantile level is outside the open interval (0, 1) or leaves an
    empty exceedance set."""
