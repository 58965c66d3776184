"""Exception types shared across the toolkit."""

from __future__ import annotations


class QinstrError(ValueError):
    """Base class for all toolkit errors."""


class DimensionError(QinstrError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(QinstrError):
    """Matrix is too far from its own conjugate transpose."""


class NotPositiveSemidefinite(QinstrError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class EigenSolverError(QinstrError):
    """Eigendecomposition failed to converge; message carries the residual."""


class NotIsometry(QinstrError):
    """Supplied columns are not mutually orthonormal."""


class ZeroVector(QinstrError):
    """A unit vector was required but a (near-)zero vector was given."""


class KindError(QinstrError):
    """Operands are of kinds that the operation does not combine."""


class LabelError(QinstrError):
    """Unknown outcome label, or label sets do not line up."""


class WeightError(QinstrError):
    """Convex weights are negative or do not sum to one."""


class ShapeError(QinstrError):
    """A stochastic matrix does not match the labels it is applied to."""


class InvalidWitness(QinstrError):
    """A coexistence witness fails its defining equations."""


class NotComplete(QinstrError):
    """Kraus operators do not satisfy the completeness relation."""


class NotCommutative(QinstrError):
    """Observable effects do not pairwise commute."""


class NotNormal(QinstrError):
    """Measurement model lacks a pure probe state, unitary interaction, or atomic pointer."""


class InvariantViolation(QinstrError):
    """A domain object failed one of its construction invariants.

    ``invariant`` names the violated condition and ``residual`` quantifies
    by how much, so loaders can report both.
    """

    def __init__(self, invariant: str, residual: float, message: str | None = None):
        self.invariant = invariant
        self.residual = float(residual)
        super().__init__(message or f"{invariant}, residual {residual:.3g}")


class DocumentError(QinstrError):
    """A document failed to parse or to satisfy its domain invariants."""

    def __init__(self, message: str, invariant: str | None = None, residual: float | None = None):
        self.invariant = invariant
        self.residual = residual
        super().__init__(message)
