"""Effects, states, the sequential product, complements, and pairwise coexistence.

An effect is a Hermitian matrix ``a`` with ``0 <= a <= 1``; it answers a
yes-no measurement.  Measuring ``a`` first and ``b`` second yields the
sequential product ``sqrt(a) b sqrt(a)``, which conditions ``b`` on the
occurrence of ``a``.

Families of effects are handled as ``(k, d, d)`` stacks: ``ensure_effects``
validates a stack from its eigenvalues alone (``eigvalsh``; ``eigh`` only for
the matrices it clamps), and ``_effects_spectrum`` keeps the same check's
``eigh`` spectrum where that is read again (an ``Observable``'s roots, a
witness's joint, the first root of ``seq_product`` and
``conditioned_partial_state``).  ``seq_products`` forms every pairwise
sequential product of two stacks from the square roots of the first (an
observable's cached ``roots``): the dual of the Lüders instrument, through the
package's one sandwich ``linalg._sandwich``.  ``ensure_effect`` and
``seq_product`` are their one-element cases.

A coexistence witness of two effects is a view of the 2x2 joint observable of
their binary observables: that joint is its one acceptance rule and its search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidWitness, InvariantViolation, ZeroVector
from .linalg import EFFECT_EIG_TOL, EFFECT_ROUND_TOL, STATE_TRACE_TOL, SUM_TOL, ZERO_NORM_TOL
from .linalg import WITNESS_SEARCH_ITERS, WITNESS_SEARCH_TOL, _sandwich, largest, norms, require
from .linalg import Array, _from_eig, _psd_eig, as_matrix, as_numbers, as_vector, ensure_hermitian, hermitian_part, psd_part


def ensure_effects(m: object) -> Array:
    """Validate and normalize a ``(k, d, d)`` stack of effect matrices.

    Each matrix must be Hermitian within ``ensure_hermitian``'s limit, and
    its eigenvalues, from one batched ``eigvalsh`` call (it keeps no spectrum),
    must lie within ``EFFECT_EIG_TOL`` of ``[0, 1]``; otherwise
    ``InvariantViolation("effect-range")`` reports the residual of the first
    failing matrix.  Matrices with eigenvalues more than ``EFFECT_ROUND_TOL``
    outside ``[0, 1]`` are checked and clamped onto it by their ``eigh``
    spectra, and the others returned as symmetrized: a clamped matrix misses
    the range by rounding only, so it is not rebuilt again.
    """
    return _effects_spectrum(m, keep=False)[0]


def _effects_spectrum(m: object, keep: bool = True) -> tuple[Array, tuple[Array, Array] | None]:
    """``ensure_effects(m)`` and, with ``keep``, its range check's ``eigh`` ``(w, V)``, or ``None`` if it clamped a matrix."""
    a = ensure_hermitian(m, stack=True)
    w, v = np.linalg.eigh(a) if keep else (np.linalg.eigvalsh(a), None)
    out = (w[:, 0] < -EFFECT_ROUND_TOL) | (w[:, -1] > 1.0 + EFFECT_ROUND_TOL)
    if out.any():  # the eigenvectors to clamp by, and the spectra as a kept check reads them
        w[out], vectors = (w[out], v[out]) if keep else np.linalg.eigh(a[out])
    require("effect-range", np.maximum(-w[:, 0], w[:, -1] - 1.0), EFFECT_EIG_TOL)
    if out.any():
        a[out] = _from_eig(vectors, np.clip(w[out], 0.0, 1.0))
    return a, (None if out.any() or not keep else (w, v))


def ensure_effect(m: object) -> Array:
    """Validate and normalize one effect matrix, as ``ensure_effects`` does."""
    return ensure_effects(as_matrix(m)[None])[0]


def ensure_partial_state(m: object) -> Array:
    """Validate a PSD matrix with trace at most one."""
    a = ensure_hermitian(m)
    return _state_checks(a, np.linalg.eigvalsh(a), partial=True)


def ensure_state(m: object) -> Array:
    """Validate a density matrix (PSD, unit trace)."""
    a = ensure_hermitian(m)
    return _state_checks(a, np.linalg.eigvalsh(a))


def _state_checks(a: Array, w: Array, partial: bool = False) -> Array:
    """``ensure_state``'s checks (with ``partial``, ``ensure_partial_state``'s) of a Hermitian ``a`` of
    ascending eigenvalues ``w``, or of each of a stack: no eigenvalue below ``-STATE_TRACE_TOL`` times
    the largest magnitude (at least 1), then a trace at most one and, unless ``partial``, of one."""
    low = -w[..., 0]
    if not largest(low) <= STATE_TRACE_TOL:  # else every matrix is within its bound, which is at least that
        bound = STATE_TRACE_TOL * np.maximum(1.0, abs(w[..., -1]))
        # a matrix within its bound reads 0, one beyond it its -w[0] (> STATE_TRACE_TOL): require names the first
        require("positive-semidefinite", np.where(low <= bound, 0.0, low), STATE_TRACE_TOL)
    defect = np.trace(a, axis1=-2, axis2=-1).real - 1.0
    require("trace-at-most-one", defect, STATE_TRACE_TOL)
    if not partial:
        require("trace-one", abs(defect), STATE_TRACE_TOL)
    return a


def _same_dim(*dims: int) -> None:
    """``DimensionError`` unless the dimensions are all equal."""
    if len(set(dims)) > 1:
        raise DimensionError("dimension mismatch " + " vs ".join(map(str, dims)))


def atom(phi: object) -> Array:
    """Rank-one projection onto a unit vector."""
    v = as_vector(phi)
    norm = np.linalg.norm(v)
    if not norm >= ZERO_NORM_TOL:
        raise ZeroVector("cannot build an atom from the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def seq_products(roots: Array, b: Array) -> Array:
    """Every sequential product ``sqrt(a[x]) b[y] sqrt(a[x])`` of two validated
    effect stacks ``(m, d, d)`` and ``(n, d, d)``, as an ``(m, n, d, d)`` array,
    given the roots of the first (``Observable.roots``); or of each trial of
    two batches ``(t, m, d, d)`` and ``(t, n, d, d)``: ``_sandwich`` with one
    operator per outcome.  The products are validated as effects by one
    ``ensure_effects`` call.
    """
    _same_dim(roots.shape[-1], b.shape[-1])
    products = _sandwich(roots[..., :, None, None, :, :], b[..., None, :, None, :, :])
    return ensure_effects(products.reshape(-1, *products.shape[-2:])).reshape(products.shape)


def _effect_root(a: object) -> tuple[Array, Array]:
    """``ensure_effect(a)`` and its root, stacks of one, the root off the range check's spectrum (``Observable.roots``)."""
    ea, spectrum = _effects_spectrum(as_matrix(a)[None])
    return ea, _from_eig(*_psd_eig(ea, spectrum))


def seq_product(a: object, b: object) -> Array:
    """Sequential product ``sqrt(a) b sqrt(a)``: measure ``a``, then ``b``."""
    return seq_products(_effect_root(a)[1], ensure_effect(b)[None])[0, 0]


def complement(a: object) -> Array:
    """Complement ``1 - a``; together with ``a`` it sums exactly to the identity.
    Of a ``(k, d, d)`` stack, each effect's, validated by one ``ensure_effects`` call."""
    m = as_numbers(a)
    ea = ensure_effects(m) if m.ndim == 3 else ensure_effect(m)
    return np.eye(ea.shape[-1], dtype=complex) - ea


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
    ea, root = _effect_root(a)
    r = ensure_partial_state(rho)
    _same_dim(ea.shape[-1], r.shape[0])
    return hermitian_part(_sandwich(root, r))


@dataclass(frozen=True)
class CoexistenceWitness:
    """Decomposition ``a = a1 + c``, ``b = b1 + c`` with ``a1 + b1 + c <= 1``: a view of the joint
    observable of ``{a, 1 - a}`` and ``{b, 1 - b}`` with blocks ``C11 = c``, ``C12 = a1``, ``C21 = b1``
    and ``C22 = 1 - a1 - b1 - c`` (``binary_observables_from_coexistence``)."""

    a1: Array
    b1: Array
    c: Array


def _witness_joints(a: Array, b: Array, w: CoexistenceWitness) -> tuple[Array, tuple[Array, Array] | None, Array]:
    """The one coexistence rule, for ``t`` effect pairs and their witnesses, ``(t, d, d)`` stacks: the
    blocks ``[c, a1, b1, 1 - a1 - b1 - c]`` checked as ``t`` observables by one ``_checked_effects``
    call (range within ``EFFECT_EIG_TOL``), ``(t, 4, d, d)``, with that check's spectrum, and each
    trial's marginal defects to ``{a, 1 - a}`` and ``{b, 1 - b}``, ``(t, 2)``, within ``SUM_TOL``.
    A block out of range or a marginal off raises ``InvalidWitness``."""
    from .observables import _checked_effects

    eye = np.eye(a.shape[-1])
    try:
        joint, spectrum = _checked_effects(np.stack([w.c, w.a1, w.b1, eye - w.a1 - w.b1 - w.c], 1).reshape(-1, *a.shape[1:]), 4)
        # joint[:, x, y] in label order ("1", "1"), ("1", "2"), ...: its row and
        # column sums must give {a, 1 - a} and {b, 1 - b}
        grid = joint.reshape(-1, 2, 2, *a.shape[1:])
        rows, cols = np.stack([a, eye - a], 1), np.stack([b, eye - b], 1)
        defects = norms(np.stack([grid.sum(2) - rows, grid.sum(1) - cols])).max(-1).T
        require("witness-marginals", defects, SUM_TOL)
    except InvariantViolation as exc:
        raise InvalidWitness(f"witness blocks are not a joint observable of the effects: {exc}") from exc
    return joint, spectrum, defects


def check_coexistence_witness(a: object, b: object, w: CoexistenceWitness) -> bool:
    """True exactly when ``binary_observables_from_coexistence(a, b, w)`` builds
    the joint observable; False when it raises ``InvalidWitness``."""
    try:
        binary_observables_from_coexistence(a, b, w)
    except InvalidWitness:
        return False
    return True


def binary_observables_from_coexistence(a: object, b: object, w: CoexistenceWitness):
    """Joint observable on 2x2 labels whose marginals are ``{a, 1 - a}`` and ``{b, 1 - b}``.

    Outcome ("1","1") carries the common part ``c``, ("1","2") carries ``a1``,
    ("2","1") carries ``b1``, and ("2","2") the leftover ``1 - a1 - b1 - c``.
    ``a`` and ``b`` are validated as effects, then the blocks and marginals by
    ``_witness_joints``.  Matrices of different shapes, ``a`` or ``b`` not an
    effect, blocks out of range or a marginal off raise ``InvalidWitness``.
    """
    from .observables import Observable

    try:
        given = as_matrix([a, b, w.a1, w.b1, w.c], stack=True)
        ea, eb = ensure_effects(given[:2])
    except (DimensionError, InvariantViolation) as exc:
        raise InvalidWitness(f"not two effects and a witness of one shape: {exc}") from exc
    joint, spectrum, _ = _witness_joints(ea[None], eb[None], CoexistenceWitness(*given[2:, None]))
    return Observable._checked([("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")], joint[0], spectrum)


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
        if norms(defects).max() <= tol:
            return blocks.reshape(m * n, d, d)
    return None


def find_coexistence_witness(a: object, b: object) -> CoexistenceWitness | None:
    """Heuristic search for a coexistence witness of two effects: the joint of
    their binary observables, with the budgets ``WITNESS_SEARCH_ITERS`` and ``WITNESS_SEARCH_TOL``.

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
