"""Dense complex-matrix kernel: spectral, tensor, and basis-completion primitives.

Conventions used throughout the package:

- matrices are ``numpy`` arrays of dtype complex128, row-major;
- a caller's numbers become an array only in ``as_numbers`` (``DimensionError``
  for ragged, mixed-shape or non-numeric input, ``QinstrError`` if non-finite
  or beyond ``NUMBER_MAX``);
- whether residuals meet their tolerance, a NaN never, is decided only in ``require``:
  every ``InvariantViolation`` is raised there;
- a family's completeness (its effects' sum against ``1``) is decided only in ``completion``;
- which eigenvalues count (every numerical rank, root cut and Kraus cut) is decided only in ``kept``;
- composite spaces are ordered base-slow / probe-fast, i.e. the pair index
  ``(i, k)`` on ``H (x) K`` flattens to ``i * dimK + k`` and matches
  ``numpy.kron(base, probe)``;
- Hermitian inputs are symmetrized to ``(M + M^*) / 2`` after checking that
  the anti-Hermitian residual is within tolerance;
- invariant tests are written as ``not residual <= tol``, so that a NaN
  residual (from an overflow) fails them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    EigenSolverError,
    InvariantViolation,
    NotHermitian,
    NotIsometry,
    NotPositiveSemidefinite,
    QinstrError,
    ZeroVector,
)

Array = np.ndarray

# -- tolerance table ------------------------------------------------------------
# Every construction and decision threshold of ``linalg``, ``effects``,
# ``observables``, ``instruments`` and ``models``, one line each, saying what it
# bounds; the modules import their entries from here.  The catalog's pinned
# tolerances are in ``verify.SUITES``, and ``QINSTR_TOL`` scales only those.
HERM_TOL = 1e-9  # anti-Hermitian residual ||M - M^*||_F, per unit of dimension
PSD_TOL = 1e-9  # negative eigenvalue that herm_sqrt and root_factors clamp to zero
RANK_TOL = 1e-10  # eigenvalue, relative to the largest, that kept counts; a largest at or below it has rank 0
ORTHO_TOL = 1e-9  # ||U^* U - 1||_F of complete_to_unitary's input and of a dilation's isometry, per column
PHASE_TOL = 1e-9  # entry magnitude from which _phase_fix reads a column's phase
UNITARY_TOL = 1e-8  # ||U^* U - 1||_F of an interaction (is_unitary's default)
BASIS_TOL = 1e-9  # ||U^* U - 1||_F of each basis of a von Neumann model
EFFECT_EIG_TOL = 1e-9  # effect eigenvalues outside [0, 1]; sum defect of a derived observable built as it is, not completed
EFFECT_ROUND_TOL = 1e-12  # effect eigenvalues outside [0, 1] that ensure_effects keeps as rounding, not clamped
STATE_TRACE_TOL = 1e-9  # state: negative eigenvalue (relative to the largest) and trace defect
ZERO_NORM_TOL = 1e-12  # norm below which a vector is the zero vector
SUM_TOL = 1e-8  # observable sum, and the projection, commutator and complementarity defects
STOCHASTIC_NEG_TOL = 1e-12  # negative entry of a stochastic matrix
STOCHASTIC_ROW_TOL = 1e-10  # row-sum defect of a stochastic matrix
WEIGHT_TOL = 1e-10  # negative entry and sum defect of convex weights
CHOI_TOL = 1e-8  # Choi PSD (relative), trace increase, channel and instrument sums, instrument complementarity
MODEL_TOL = 1e-7  # sum defect up to which _assembled completes a derived instrument; trace increase compose_operations scales away
NORMAL_SUM_TOL = 1e-8  # completeness of a normal model's extracted Kraus operators, per unit of dimension
LUDERS_TOL = 1e-8  # anti-Hermitian part (relative) and negative eigenvalue of extracted Kraus operators
DIAG_TOL = 1e-9  # off-diagonal residual in a shared eigenbasis, per unit of dimension
GRAM_FLOOR = 0.5  # dilation's Kraus Gram G: ||G - 1||_F <= 1 - GRAM_FLOOR, so G >= GRAM_FLOOR (G = 1 for an instrument)
EIGENBASIS_ATTEMPTS = 32  # random combinations tried for a commutative observable's eigenbasis
SEARCH_ITERS = 500  # alternating-projection rounds of find_joint_observable
SEARCH_TOL = 1e-7  # largest marginal defect ||sum C - target||_F at which find_joint_observable stops
JOINT_TOL = 1e-6  # sum defect up to which Observable._valid completes a derived observable; a found joint's marginal defect
WITNESS_SEARCH_ITERS = 2000  # alternating-projection rounds of find_coexistence_witness
WITNESS_SEARCH_TOL = 5e-10  # find_coexistence_witness's stop, below EFFECT_EIG_TOL: its polished witness passes the joint-observable rule
NUMBER_MAX = 1e50  # entry magnitude as_numbers accepts: fourth powers stay finite, so no validation overflows


def require(invariant: str, residual: float | Array, tol: float) -> float | Array:
    """The largest of ``residual``, one number or an array of them, when every one is at most
    ``tol``; else ``InvariantViolation(invariant, r)`` for the first ``r`` that is not, a NaN included."""
    worst = largest(residual)
    if not worst <= tol:
        r = np.ravel(residual)
        raise InvariantViolation(invariant, float(r[~(r <= tol)][0]))
    return worst


def largest(x: float | Array) -> float | Array:
    """The largest of an array of numbers, a NaN if any is (``max``), or a number as it is."""
    return x.max() if getattr(x, "ndim", 0) else x  # a number's ``max`` costs a reduction


def completion(total: Array, keep: float, bound: float, invariant: str) -> Array | None:
    """``None`` if a sum ``G = total`` has ``||G - 1||_F <= keep``; else, up to ``bound``, the half
    defect ``(G - 1) / 2`` that one Newton-Schulz step subtracts (``K - K (G - 1) / 2``, or ``P A P``
    with ``P = 1 - (G - 1) / 2``); beyond it, ``require``'s ``InvariantViolation(invariant, residual)``.

    A ``(t, d, d)`` stack holds the sums of ``t`` trials' families: the first trial beyond
    ``bound`` raises, and a trial within ``keep`` gets a zero half defect (its step changes nothing)."""
    defect = total - identity(total.shape[-1])
    residual = norms(defect)
    worst = require(invariant, residual, bound)
    return None if worst <= keep else np.where((residual > keep)[..., None, None], defect / 2.0, 0.0)


def kept(w: Array) -> Array:
    """Which eigenvalues of a spectrum ``w`` count, in any order and along the last axis
    of a stack: those above ``RANK_TOL`` times the largest (none if it is not positive)."""
    return w > RANK_TOL * np.maximum(w.max(-1, keepdims=True), 0.0)


def rank(w: Array) -> Array:
    """How many eigenvalues ``kept`` counts, per spectrum; 0 when the largest is at most ``RANK_TOL``."""
    return np.where(w.max(-1) > RANK_TOL, kept(w).sum(-1), 0)


def as_numbers(x: object, dtype: type = complex) -> Array:
    """The caller's numbers ``x`` as a finite array of ``dtype``: ``complex``
    for matrices and vectors, ``float`` for stochastic matrices and weights;
    strings, booleans, objects, (for ``float``) complex entries and entries
    of magnitude beyond ``NUMBER_MAX`` are refused."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise DimensionError("expected numbers in a regular array: ragged rows, mixed shapes or a non-number")
    a = a.astype(dtype, copy=False)
    if not np.abs(a).max(initial=0.0) <= NUMBER_MAX:  # one reduction: a NaN or an infinity fails it too
        if not np.isfinite(a).all():
            raise QinstrError("array contains non-finite entries")
        raise QinstrError(f"number out of range: an entry beyond {NUMBER_MAX:g}")
    return a


def as_matrix(m: object, stack: bool = False) -> Array:
    """``as_numbers(m)`` as a nonempty 2-D complex matrix, or with ``stack``
    as a ``(k, r, c)`` stack of them."""
    a = as_numbers(m)
    if a.ndim != 2 + stack or 0 in a.shape:
        what = "stack of 2-D matrices" if stack else "2-D matrix"
        raise DimensionError(f"expected a {what}, got shape {a.shape}")
    return a


def as_vector(v: object) -> Array:
    a = as_numbers(v).reshape(-1)
    if a.size < 1:
        raise DimensionError("expected a nonempty vector")
    return a


def read_only(a: Array) -> Array:
    """The array ``a`` itself, made read-only."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def identity(n: int) -> Array:
    """The real ``n x n`` identity, formed once per ``n`` and read-only."""
    return read_only(np.eye(n))


def norms(x: Array) -> Array:
    """The Frobenius norm of each matrix of ``x`` over any leading axes (of a
    matrix, a 0-d array), for any strides; a NaN entry gives NaN."""
    v = np.ascontiguousarray(x)
    if v.dtype.kind == "c":
        v = v.view(float)  # real and imaginary parts side by side in the last axis
    return np.sqrt(np.add.reduce(v * v, axis=(-2, -1)))


def frob(a: Array) -> float:
    """Frobenius norm of all of ``a``'s entries (``norms`` of them as one row)."""
    return float(norms(a.reshape(1, -1)))


def spectral_norm(a: Array) -> float:
    """Operator (largest-singular-value) norm."""
    return float(np.linalg.norm(a, 2))


def hermitian_part(m: Array) -> Array:
    """``(M + M^*) / 2``, matrix by matrix over any leading axes; halved
    first, so that entries near the float limit do not overflow."""
    h = m / 2.0
    return h + h.conj().swapaxes(-1, -2)


def ensure_hermitian(m: object, tol: float | None = None, stack: bool = False) -> Array:
    """Return the symmetrization of ``m``, rejecting grossly non-Hermitian input.

    The allowed anti-Hermitian residual is ``HERM_TOL * dim`` unless ``tol``
    is given explicitly; with ``stack``, ``m`` is a ``(k, d, d)`` stack and
    the limit holds for each matrix.
    """
    a = as_matrix(m, stack)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected square matrices, got shape {a.shape}")
    limit = HERM_TOL * a.shape[-1] if tol is None else tol
    residual = float(largest(norms(a - a.conj().swapaxes(-1, -2))))
    if not residual <= limit:
        raise NotHermitian(f"anti-Hermitian residual {residual:.3g} exceeds {limit:.3g}")
    return hermitian_part(a)


def herm_eig(m: object) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with real eigenvalues ``w`` ascending and unitary ``V``
    such that ``m = V diag(w) V^*``.  Backed by the deterministic LAPACK
    Hermitian solver.  A ``(k, d, d)`` stack is decomposed in one call,
    giving ``(k, d)`` eigenvalues and ``(k, d, d)`` eigenvectors.
    """
    return _eigh(ensure_hermitian(m, stack=np.ndim(m) == 3))


def _eigh(a: Array) -> tuple[Array, Array]:
    """``herm_eig`` of an exactly Hermitian matrix or stack, unchecked."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        off = frob(a - a * np.eye(a.shape[-1]))
        raise EigenSolverError(f"eigensolver did not converge; off-diagonal residual {off:.3g}") from exc


def _psd_eig(a: Array, spectrum: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """Eigenvectors ``V`` and root eigenvalues ``sqrt(w)`` of an exactly
    Hermitian PSD matrix or ``(k, d, d)`` stack, from its ``spectrum`` ``(w, V)``
    if given.  Every matrix keeps all ``d`` columns; the roots of eigenvalues
    that ``kept`` does not count (see ``herm_sqrt``) are set to zero."""
    w, v = _eigh(a) if spectrum is None else spectrum
    low = w[..., 0].min()
    if not low >= -PSD_TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3g} below -{PSD_TOL:.3g}")
    return v, np.sqrt(np.clip(w, 0.0, None)) * kept(w)


def root_columns(m: Array) -> tuple[Array, Array]:
    """``F_i = V sqrt(w)``, ``m_i = F_i F_i^*``, for an exactly Hermitian PSD
    ``(k, d, d)`` stack, unchecked, and ``keep``: the columns of the
    eigenvalues ``kept`` counts (the others are zero) and the last, the largest."""
    return _eig_columns(*_psd_eig(m))


def _eig_columns(v: Array, r: Array) -> tuple[Array, Array]:
    """``root_columns`` of a stack (over any leading axes) from its ``_psd_eig``."""
    keep = r > 0.0
    keep[..., -1] = True
    return v * r[..., None, :], keep


def root_factors(m: Array) -> list[Array]:
    """The kept columns of ``root_columns``, one matrix ``R_i`` per matrix."""
    return [f[:, k] for f, k in zip(*root_columns(m))]


def herm_sqrt(m: object) -> Array:
    """Unique positive square root of a PSD Hermitian matrix, or of each
    matrix of a ``(k, d, d)`` stack, from one eigendecomposition call.

    Eigenvalues in ``[-PSD_TOL, 0)`` are clamped to zero; anything below
    ``-PSD_TOL`` raises ``NotPositiveSemidefinite``.  Eigenvalues at or
    below ``RANK_TOL * max(w)``, per matrix (those ``kept`` does not count),
    are zeroed as well: the square root would otherwise amplify eigensolver
    noise of size ``eps`` into errors of size ``sqrt(eps)``.
    """
    return _from_eig(*_psd_eig(ensure_hermitian(m, stack=np.ndim(m) == 3)))


def _from_eig(v: Array, x: Array) -> Array:
    """``V diag(x) V^*``, symmetrized, matrix by matrix over any leading axes:
    ``herm_sqrt`` from ``_psd_eig``, and every other spectral rebuild."""
    return hermitian_part((v * x[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _sandwich(k: Array, x: Array) -> Array:
    """``sum_j K_j X K_j^*`` over the operator axis -3 of ``k``, broadcast over any leading
    axes of ``k`` and ``x``: instrument outputs, and on adjoint operators the dual map
    ``sum_j K_j^* B K_j``; with one root per outcome, the sequential products."""
    return (k @ x @ k.conj().swapaxes(-1, -2)).sum(-3)


def inverse_root(m: Array) -> tuple[Array, Array]:
    """Eigenvalues ``w`` of the Hermitian part of a positive definite ``m``,
    ascending, and ``m^(-1/2) = V diag(w)^(-1/2) V^*`` from the same
    eigendecomposition, matrix by matrix over any leading axes: the whitening
    of ``rand``'s random families, whose completeness sums are far from ``1``."""
    w, v = np.linalg.eigh(hermitian_part(m))
    return w, (v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def psd_part(m: Array) -> Array:
    """Projection onto the PSD cone (eigenvalue clamp at zero), matrix by
    matrix over any leading axes."""
    w, v = np.linalg.eigh(hermitian_part(m))
    return _from_eig(v, np.clip(w, 0.0, None))


def tensor_product(a: object, b: object) -> Array:
    """Kronecker product, base index slow and probe index fast."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace_second(m: object, dim_base: int, dim_probe: int) -> Array:
    """Trace out the second (probe) factor of a matrix on the composite space."""
    a = as_matrix(m)
    n = dim_base * dim_probe
    if a.shape != (n, n):
        raise DimensionError(f"expected shape {(n, n)}, got {a.shape}")
    return np.einsum("ikjk->ij", a.reshape(dim_base, dim_probe, dim_base, dim_probe))


def partial_trace_first(m: object, dim_base: int, dim_probe: int) -> Array:
    """Trace out the first (base) factor of a matrix on the composite space."""
    a = as_matrix(m)
    n = dim_base * dim_probe
    if a.shape != (n, n):
        raise DimensionError(f"expected shape {(n, n)}, got {a.shape}")
    return np.einsum("kikj->ij", a.reshape(dim_base, dim_probe, dim_base, dim_probe))


def _phase_fix(v: Array) -> Array:
    """Rotate each column of a matrix so that its first entry of magnitude
    above ``PHASE_TOL`` is real positive."""
    entry = v[(np.abs(v) > PHASE_TOL).argmax(axis=0), np.arange(v.shape[1])]
    if not np.all(np.abs(entry) > PHASE_TOL):
        raise ZeroVector("cannot phase-fix a zero vector")
    return v * (np.abs(entry) / entry)


def complete_to_unitary(columns: Sequence[object], dim: int) -> Array:
    """Extend orthonormal columns to a unitary matrix, deterministically.

    The inputs become the first columns, verbatim.  The remaining columns
    are the trailing columns of one complete QR factorization of the inputs
    (the identity when there are none), each phase-fixed by ``_phase_fix``.
    The same input gives the same output, but the completion is otherwise
    arbitrary: it is an orthonormal basis of the complement, not the
    index-order Gram-Schmidt of the standard basis.
    """
    if len(columns) == 0:
        return np.eye(dim, dtype=complex)
    u = as_numbers(columns).reshape(len(columns), -1).T  # each column flattened
    if u.shape[0] != dim:
        raise DimensionError(f"column has length {u.shape[0]}, expected {dim}")
    k = u.shape[1]
    if k > dim:
        raise DimensionError(f"{k} columns exceed dimension {dim}")
    if not frob(u.conj().T @ u - identity(k)) <= ORTHO_TOL * k:
        raise NotIsometry("input columns are not orthonormal")
    q = np.linalg.qr(u, mode="complete")[0]
    q[:, :k] = u
    q[:, k:] = _phase_fix(q[:, k:])
    return q


def matrices_close(a: object, b: object, tol: float) -> bool:
    """Frobenius-distance comparison; mismatched shapes are an error."""
    x, y = as_matrix(a), as_matrix(b)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {y.shape}")
    return frob(x - y) <= tol


def is_unitary(u: Array, tol: float = UNITARY_TOL) -> bool:
    a = as_matrix(u)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(_unitary_defects(a) <= tol)


def _unitary_defects(u: Array) -> Array:
    """``||U^* U - 1||_F`` of a square matrix, or of each matrix of a stack."""
    return norms(u.conj().swapaxes(-1, -2) @ u - identity(u.shape[-1]))
