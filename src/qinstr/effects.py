"""Effects, states, the sequential product, complements, and pairwise coexistence.

An effect is a Hermitian matrix ``a`` with ``0 <= a <= 1``; it answers a
yes-no measurement.  Measuring ``a`` first and ``b`` second yields the
sequential product ``sqrt(a) b sqrt(a)``, which conditions ``b`` on the
occurrence of ``a``.

Families of effects are handled as ``(k, d, d)`` stacks: ``ensure_effects``
validates a stack with one batched eigendecomposition, and ``seq_products``
forms every pairwise sequential product of two stacks from the square roots
of the first (an observable's cached ``roots``).  ``ensure_effect`` and
``seq_product`` are their one-element cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidWitness, InvariantViolation, ZeroVector
from .linalg import EFFECT_EIG_TOL, EFFECT_ROUND_TOL, STATE_TRACE_TOL, WITNESS_TOL, ZERO_NORM_TOL
from .linalg import WITNESS_SEARCH_ITERS, WITNESS_SEARCH_TOL
from .linalg import Array, _from_eig, as_matrix, as_vector, ensure_hermitian, frob, herm_sqrt, hermitian_part, psd_part


def ensure_effects(m: object) -> Array:
    """Validate and normalize a ``(k, d, d)`` stack of effect matrices.

    Each matrix must be Hermitian within ``ensure_hermitian``'s limit, and
    its eigenvalues, from one batched eigendecomposition, must lie within
    ``EFFECT_EIG_TOL`` of ``[0, 1]``; otherwise ``InvariantViolation("effect-range")``
    reports the residual of the first failing matrix.  Matrices with
    eigenvalues more than ``EFFECT_ROUND_TOL`` outside ``[0, 1]`` are
    clamped onto it, and the others returned as symmetrized: a clamped
    matrix misses the range by rounding only, so it is not rebuilt again.
    """
    return _effects_spectrum(m)[0]


def _effects_spectrum(m: object) -> tuple[Array, tuple[Array, Array] | None]:
    """``ensure_effects(m)`` and its range check's ``(w, V)``, or ``None`` if it clamped a matrix."""
    a = ensure_hermitian(m, stack=True)
    w, v = np.linalg.eigh(a)
    low, high = w[:, 0], w[:, -1]
    bad = ~((low >= -EFFECT_EIG_TOL) & (high <= 1.0 + EFFECT_EIG_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantViolation("effect-range", max(0.0, -float(low[k]), float(high[k]) - 1.0))
    out = (low < -EFFECT_ROUND_TOL) | (high > 1.0 + EFFECT_ROUND_TOL)
    if out.any():
        a[out] = _from_eig(v[out], np.clip(w[out], 0.0, 1.0))
    return a, (None if out.any() else (w, v))


def ensure_effect(m: object) -> Array:
    """Validate and normalize one effect matrix, as ``ensure_effects`` does."""
    return ensure_effects(as_matrix(m)[None])[0]


def ensure_partial_state(m: object) -> Array:
    """Validate a PSD matrix with trace at most one."""
    a = ensure_hermitian(m)
    w = np.linalg.eigvalsh(a)
    if not w[0] >= -STATE_TRACE_TOL * max(1.0, abs(w[-1])):
        raise InvariantViolation("positive-semidefinite", float(-w[0]))
    tr = float(np.trace(a).real)
    if not tr <= 1.0 + STATE_TRACE_TOL:
        raise InvariantViolation("trace-at-most-one", tr - 1.0)
    return a


def ensure_state(m: object) -> Array:
    """Validate a density matrix (PSD, unit trace)."""
    a = ensure_partial_state(m)
    tr = float(np.trace(a).real)
    if not abs(tr - 1.0) <= STATE_TRACE_TOL:
        raise InvariantViolation("trace-one", abs(tr - 1.0))
    return a


def _same_dim(*dims: int) -> None:
    """``DimensionError`` unless the dimensions are all equal."""
    if len(set(dims)) > 1:
        raise DimensionError("dimension mismatch " + " vs ".join(map(str, dims)))


def atom(phi: object) -> Array:
    """Rank-one projection onto a unit vector."""
    v = as_vector(phi)
    norm = np.linalg.norm(v)
    if norm < ZERO_NORM_TOL:
        raise ZeroVector("cannot build an atom from the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def seq_products(roots: Array, b: Array) -> Array:
    """Every sequential product ``sqrt(a[x]) b[y] sqrt(a[x])`` of two validated
    effect stacks ``(m, d, d)`` and ``(n, d, d)``, as an ``(m, n, d, d)`` array,
    given the roots of the first (``Observable.roots``); or of each trial of
    two batches ``(t, m, d, d)`` and ``(t, n, d, d)``.  The products are
    validated as effects by one ``ensure_effects`` call.
    """
    _same_dim(roots.shape[-1], b.shape[-1])
    r = roots[..., :, None, :, :]
    products = r @ b[..., None, :, :, :] @ r
    return ensure_effects(products.reshape(-1, *products.shape[-2:])).reshape(products.shape)


def seq_product(a: object, b: object) -> Array:
    """Sequential product ``sqrt(a) b sqrt(a)``: measure ``a``, then ``b``."""
    return seq_products(herm_sqrt(ensure_effect(a))[None], ensure_effect(b)[None])[0, 0]


def complement(a: object) -> Array:
    """Complement ``1 - a``; together with ``a`` it sums exactly to the identity."""
    ea = ensure_effect(a)
    return np.eye(ea.shape[0], dtype=complex) - ea


def occurrence_probability(rho: object, a: object) -> float:
    """Probability ``tr(rho a)`` that the effect occurs in the given state."""
    r, ea = ensure_state(rho), ensure_effect(a)
    _same_dim(r.shape[0], ea.shape[0])
    p = float(np.trace(r @ ea).real)
    return min(1.0, max(0.0, p))


def conditioned_partial_state(a: object, rho: object) -> Array:
    """Post-measurement partial state ``sqrt(a) rho sqrt(a)``.

    Its trace equals the occurrence probability of ``a`` in ``rho``.
    """
    ea = ensure_effect(a)
    r = ensure_partial_state(rho)
    _same_dim(ea.shape[0], r.shape[0])
    s = herm_sqrt(ea)
    return hermitian_part(s @ r @ s)


@dataclass(frozen=True)
class CoexistenceWitness:
    """Decomposition ``a = a1 + c``, ``b = b1 + c`` with ``a1 + b1 + c <= 1``."""

    a1: Array
    b1: Array
    c: Array


def _witness_blocks(a: object, b: object, w: CoexistenceWitness) -> tuple[Array, ...] | None:
    """The witness blocks ``a1``, ``b1``, ``c``, validated as effects, and the
    leftover ``d = 1 - a1 - b1 - c``; None when a witness equation fails."""
    try:
        ea, eb, a1, b1, c = (ensure_effect(m) for m in (a, b, w.a1, w.b1, w.c))
    except InvariantViolation:
        return None
    if not (ea.shape == eb.shape == a1.shape == b1.shape == c.shape):
        return None
    if frob(a1 + c - ea) > WITNESS_TOL or frob(b1 + c - eb) > WITNESS_TOL:
        return None
    # a1 + b1 + c <= 1 means the leftover d is PSD.
    d = np.eye(ea.shape[0], dtype=complex) - a1 - b1 - c
    return (a1, b1, c, d) if float(np.linalg.eigvalsh(hermitian_part(d))[0]) >= -WITNESS_TOL else None


def check_coexistence_witness(a: object, b: object, w: CoexistenceWitness) -> bool:
    """Check the witness equations within ``WITNESS_TOL``; any violation
    returns False."""
    return _witness_blocks(a, b, w) is not None


def binary_observables_from_coexistence(a: object, b: object, w: CoexistenceWitness):
    """Joint observable on 2x2 labels whose marginals are ``{a, a'}`` and ``{b, b'}``.

    Outcome ("1","1") carries the common part ``c``, ("1","2") carries ``a1``,
    ("2","1") carries ``b1``, and ("2","2") the leftover ``1 - a1 - b1 - c``,
    which ``Observable`` checks within ``EFFECT_EIG_TOL`` of ``[0, 1]``.
    """
    from .observables import Observable

    blocks = _witness_blocks(a, b, w)
    if blocks is None:
        raise InvalidWitness("witness does not decompose the given effects")
    a1, b1, c, d = blocks
    return Observable({("1", "1"): c, ("1", "2"): a1, ("2", "1"): b1, ("2", "2"): d})


# -- feasibility search -------------------------------------------------------
#
# Joint-observable feasibility is a semidefinite problem; the search below is
# a heuristic (alternating projection between the marginal-matching affine
# subspace and the PSD cone).  Failure means "unknown", never "no".


def _marginal_projection(blocks: Array, defects: Array) -> Array:
    """The nearest ``(m, n, d, d)`` blocks to ``blocks`` whose row and column
    sums miss their targets by ``defects``, the ``m`` row defects ``R_x``
    then the ``n`` column defects ``S_y``, when the targets have equal
    totals: ``C_xy - R_x / n - S_y / m + (sum R + sum S) / (2 m n)``, a
    correction of the form ``X_x + Y_y``."""
    m, n = blocks.shape[:2]
    return blocks - defects[:m, None] / n - defects[None, m:] / m + defects.sum(0) / (2 * m * n)


def joint_feasibility_search(rows: Array, cols: Array, iters: int, tol: float) -> Array | None:
    """Search for PSD blocks ``C[x, y]`` with row sums ``rows`` and column sums
    ``cols``, two validated effect stacks ``(m, d, d)`` and ``(n, d, d)`` of
    equal totals.  Returns the blocks as one ``(m * n, d, d)`` stack,
    ``x``-major, once every row and column defect is within ``tol`` in
    Frobenius norm, or None after ``iters`` rounds.  Each round projects
    onto the right sums (``_marginal_projection``), then onto the PSD cone.
    """
    m, n, d = len(rows), len(cols), rows.shape[-1]
    targets = np.concatenate([rows, cols])
    blocks = (rows[:, None] + cols[None]) / (m + n)
    defects = np.concatenate([blocks.sum(1), blocks.sum(0)]) - targets
    for _ in range(iters):
        blocks = psd_part(_marginal_projection(blocks, defects))
        defects = np.concatenate([blocks.sum(1), blocks.sum(0)]) - targets
        if np.linalg.norm(defects, axis=(-2, -1)).max() <= tol:
            return blocks.reshape(m * n, d, d)
    return None


def find_coexistence_witness(a: object, b: object) -> CoexistenceWitness | None:
    """Heuristic search for a coexistence witness of two effects, with the
    budgets ``WITNESS_SEARCH_ITERS`` and ``WITNESS_SEARCH_TOL``.

    Returns None when the search fails; that outcome means "unknown", since
    the projection heuristic cannot certify infeasibility.  A found common
    part ``c`` is polished so the witness equations hold exactly.
    """
    ea, eb = ensure_effect(a), ensure_effect(b)
    _same_dim(ea.shape[0], eb.shape[0])
    eye = np.eye(ea.shape[0], dtype=complex)
    blocks = joint_feasibility_search(
        np.stack([ea, eye - ea]), np.stack([eb, eye - eb]), WITNESS_SEARCH_ITERS, WITNESS_SEARCH_TOL
    )
    if blocks is None:
        return None
    c = ensure_effect(psd_part(blocks[0]))
    w = CoexistenceWitness(a1=ea - c, b1=eb - c, c=c)
    return w if check_coexistence_witness(ea, eb, w) else None
