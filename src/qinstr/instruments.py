"""Operations, channels, and finite instruments.

An operation is a completely positive trace-non-increasing map, held as a
read-only stack of Kraus operators from construction on.  The constructor
takes exactly one of two input forms and validates by form:

- Kraus operators: CP by construction, so only trace-non-increase is
  checked, on the d x d matrix ``sum_k K_k^* K_k``;
- a Choi matrix: Hermitian, positive semidefinite and trace-non-increasing.
  The one eigendecomposition of the PSD check also gives the canonical Kraus
  operators, one per eigenvalue above ``KRAUS_EIG_TOL``, and ``choi`` keeps
  the caller's (symmetrized) matrix.

Choi matrices are formed on read (``O(r d^4)`` for ``r`` operators) and not
kept, so no operation carries a ``d^4`` array it did not come with; writing
a document is their one reader here.  Comparisons (``family_distance``,
``marginal_defect``, ``operations_close``, ``is_identity_instrument``) stay
in Kraus form, through ``choi_distances``: ``O(d^2 r^2)`` per pair of
Kraus-built operations.  A comparison with a Choi-input operation in it is
made in Choi form, ``O(d^4 r)`` per matrix formed and one subtraction.

Kraus stacks built here and in ``models`` (compositions, total channels,
mixtures, post-processings, trivial and model instruments) are not minimal;
``minimal_kraus`` cuts one to its Choi rank.  An instrument is a labelled
family (``observables.LabelledFamily``) of operations whose sum is
trace-preserving.  It keeps its induced effects as one ``(m, d, d)`` stack:
the unique observable that reproduces its outcome probabilities, PSD by
construction as every effect is a ``sum K^* K``.

Builders here and in ``models`` validate an instrument once
(``Instrument._from_kraus``): the effects ``sum K^* K`` as one batched Gram
product of each outcome's operators stacked as rows, and the sum check,
which implies each outcome's trace-non-increase, and label distinctness.
The public constructors keep the checks above.

Choi convention (fixed package-wide): the slot order is input (x) output, so
for Kraus operators ``K`` the Choi matrix is the sum of rank-one terms over
vectors ``v[(i, a)] = K[a, i]``.  The induced effect is the transpose of the
partial trace over the output slot, and an operation applies to a matrix via

    out[a, b] = sum_ij rho[i, j] * choi[(i, a), (j, b)]
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .effects import ensure_partial_state, ensure_state
from .errors import DimensionError, InvariantViolation, NotComplete
from .linalg import CHOI_TOL, HERM_TOL, KRAUS_EIG_TOL, RANK_REL_TOL
from .linalg import Array, as_matrix, ensure_hermitian, frob, hermitian_part, read_only, root_factors
from .observables import (
    Label,
    LabelledFamily,
    check_distinct_labels,
    Observable,
    StochasticMatrix,
    _set_probability,
    check_weights,
    combine_labels,
    complementarity_defects,
    family_distance,
    marginal_defect,
    row_members,
    shared_value_space,
)


def _kraus_stack(ops: Sequence[object]) -> Array:
    """Read-only ``(r, d, d)`` stack of square Kraus operators of one shape,
    coerced in one call; never a view of the caller's array."""
    if len(ops) == 0:
        raise DimensionError("need at least one Kraus operator")
    try:
        stack = as_matrix(ops, stack=True)
    except (ValueError, DimensionError):
        shapes = {np.shape(k) for k in ops}
        if len(shapes) > 1:
            raise DimensionError(f"Kraus operators of mixed shapes {sorted(shapes)}") from None
        raise
    if stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"Kraus operator shape {stack.shape[1:]} is not square")
    if isinstance(ops, np.ndarray) and np.may_share_memory(stack, ops):
        stack = stack.copy()
    return read_only(stack)


def _kraus_vectors(stack: Array) -> Array:
    """Columns ``v[(i, a)] = K[a, i]``, one per Kraus operator: ``choi = V V^*``."""
    r, dim, _ = stack.shape
    return stack.transpose(2, 1, 0).reshape(dim * dim, r)


def _padded(stacks: Sequence[Array]) -> Array:
    """``(m, r, d, d)`` array of ``m`` Kraus stacks of one dimension: stack
    ``s`` in ``[s, :len(s)]``, then zero operators up to ``r``, the longest
    length.  A new array: never a view of the stacks."""
    out = np.zeros((len(stacks), max(len(s) for s in stacks), *np.shape(stacks[0])[1:]), dtype=complex)
    for o, s in zip(out, stacks):
        o[: len(s)] = s
    return out


def choi_distances(ks: Sequence[Array], ls: Sequence[Array]) -> Array:
    """Frobenius distances ``||C_K - C_L||_F`` between the Choi matrices of
    paired Kraus stacks ``(K, L)`` of one dimension ``d``, never forming one.

    Every stack is padded with zero operators to the longest, ``r`` long.
    The two stacks' operators, flattened (the Choi matrix's row order up to
    one fixed permutation, which keeps the norm), are the columns of the
    ``d^2 x 2r`` matrix ``W = [V_K, V_L]``, so ``C_K - C_L = W S W^*`` with
    ``S = diag(1, -1)``.  Past ``d = 4``, when ``W`` is tall (``d^2 > 2r``),
    one QR, ``W = Q R``, turns this into ``R S R^*``: a ``2r`` square
    difference (no difference of squared norms), for ``O(d^2 r^2)`` work
    instead of the ``O(d^4 r)`` of the Choi form.  Otherwise ``W S W^*`` is
    formed directly: for a wide ``W`` the QR would not shrink the square,
    and up to ``d = 4`` the QR call's fixed cost is larger than the product
    it saves.  All pairs go through one batched call.  A pair of
    bitwise-equal stacks gives exactly 0.0.
    """
    padded = _padded([*ks, *ls])
    m, r, n = len(ks), padded.shape[1], padded.shape[2] ** 2
    v = padded.reshape(2, m, r, n)
    w = v.transpose(1, 3, 0, 2).reshape(m, n, 2 * r)
    if n > max(16, 2 * r):
        w = np.linalg.qr(w, mode="r")
    gap = (w * np.repeat([1.0, -1.0], r)) @ w.conj().swapaxes(1, 2)
    return np.where(np.all(v[0] == v[1], axis=(1, 2)), 0.0, np.linalg.norm(gap, axis=(1, 2)))


def _operation_distances(groups: Sequence[Sequence["Operation"]], others: Sequence["Operation"]) -> Array:
    """``||sum_g C_g - C_o||_F`` for each group ``g`` of operations and the
    operation ``o`` paired with it, through one ``choi_distances`` call.  A
    comparison with a Choi-input operation in it is made in Choi form: the
    kept matrix costs nothing to read, while its canonical Kraus stack can be
    ``d^2`` long, where the kernel's work grows as ``d^6``."""
    if any(op._choi is not None for g, o in zip(groups, others) for op in (*g, o)):
        return np.array([frob(sum(op.choi for op in g) - o.choi) for g, o in zip(groups, others)])
    return choi_distances([np.concatenate([op._kraus for op in g]) for g in groups], [o._kraus for o in others])


def kraus_from_vectors(vecs: Array, dim: int) -> Array:
    """``(r, d, d)`` stack of the Kraus operators whose ``vec(K^T)`` are the
    ``r`` columns of ``vecs``; the inverse of ``_kraus_vectors``."""
    return vecs.T.reshape(-1, dim, dim).transpose(0, 2, 1)


def minimal_kraus(ops: Array, dim: int) -> Array:
    """Kraus operators of the same map, as many as its Choi rank.

    A ``(r, d, d)`` stack of linearly independent operators comes back
    unchanged.  Any other is replaced by the canonical operators from an SVD
    of the stacked ``vec(K^T)`` columns, whose squared singular values are
    the Choi eigenvalues: those above ``KRAUS_EIG_TOL`` times the largest
    are kept, and the largest always is.  So an empty or one-operator stack
    comes back unchanged, with no SVD.
    """
    if len(ops) <= 1:
        return ops
    u, s, _ = np.linalg.svd(_kraus_vectors(ops), full_matrices=False)
    keep = s * s > KRAUS_EIG_TOL * s[0] ** 2
    keep[0] = True
    if np.count_nonzero(keep) == len(ops):
        return ops
    return kraus_from_vectors(u[:, keep] * s[keep], dim)


def bounded_kraus(ops: Array, dim: int) -> Array:
    """Kraus operators of the same map, at least one and at most ``dim**2``.

    Stacks within the bound come back unchanged, longer ones are reduced by
    ``minimal_kraus``, and an empty stack (the zero map, as extracted from a
    zero Choi matrix) becomes one zero operator.
    """
    if len(ops) == 0:
        return np.zeros((1, dim, dim), dtype=complex)
    if len(ops) <= dim * dim:
        return ops
    return minimal_kraus(ops, dim)


class Operation:
    """Completely positive trace-non-increasing map, from Kraus operators or
    a Choi matrix, never both (see the module docstring for what each
    checks); the Choi checks and the trace bound hold within ``CHOI_TOL``.

    ``_kraus`` is always set: the given operators, or for a Choi matrix the
    canonical ones of its eigendecomposition.  Choi eigenvalues at or below
    ``KRAUS_EIG_TOL`` (the small negative ones the PSD check tolerates among
    them) are dropped from that Kraus form, and a zero Choi matrix gives one
    zero operator.  ``_choi`` is the caller's Choi matrix, kept for
    byte-identical documents; a Kraus-built operation has none, and its
    ``choi`` is formed on each read.
    """

    _choi: Array | None = None

    def __init__(self, choi: object | None = None, kraus: Sequence[object] | None = None):
        if (choi is None) == (kraus is None):
            raise DimensionError("an operation needs either a Choi matrix or Kraus operators")
        if choi is None:
            self._kraus = _kraus_stack(kraus)
        else:
            c = as_matrix(choi)
            n = c.shape[0]
            dim = int(round(np.sqrt(n)))
            if c.shape != (n, n) or dim * dim != n:
                raise DimensionError(f"Choi matrix shape {c.shape} is not a square of a square")
            c = ensure_hermitian(c, tol=max(CHOI_TOL, HERM_TOL * n))
            w, vecs = np.linalg.eigh(c)
            if not w[0] >= -CHOI_TOL * max(1.0, float(w[-1])):
                raise InvariantViolation("choi-positive-semidefinite", float(-w[0]))
            self._choi = read_only(c)
            keep = w > KRAUS_EIG_TOL
            self._kraus = read_only(bounded_kraus(kraus_from_vectors(vecs[:, keep] * np.sqrt(w[keep]), dim), dim))
        self.dim = self._kraus.shape[1]
        top = float(np.linalg.eigvalsh(self.induced_effect)[-1])
        if not top <= 1.0 + CHOI_TOL:
            raise InvariantViolation("trace-non-increasing", top - 1.0)

    @classmethod
    def _unchecked(cls, kraus: Array, effect: Array | None = None) -> "Operation":
        """Operation on a read-only Kraus stack, with no check: an outcome of
        ``Instrument._from_kraus`` (whose sum check implies trace-non-increase)
        with its induced ``effect`` already formed, or an instrument's channel.
        Without ``effect`` it is formed on first use."""
        op = cls.__new__(cls)
        op._kraus, op.dim = kraus, kraus.shape[1]
        if effect is not None:
            op.induced_effect = effect
        return op

    @classmethod
    def from_kraus(cls, ops: Sequence[object]) -> "Operation":
        return cls(kraus=ops)

    @classmethod
    def from_choi(cls, choi: object) -> "Operation":
        return cls(choi)

    @classmethod
    def identity(cls, dim: int) -> "Operation":
        return cls.from_kraus([np.eye(dim, dtype=complex)])

    @classmethod
    def from_unitary(cls, u: object) -> "Operation":
        return cls.from_kraus([as_matrix(u)])

    @property
    def choi(self) -> Array:
        """Choi matrix: the caller's (symmetrized) matrix for Choi input, else
        the Hermitian part of ``V V^*`` of the Kraus vectors (exactly
        Hermitian, as a loaded document's is), formed on each read and not
        kept (``d^2 x d^2``; ``operations_close`` compares without forming it)."""
        if self._choi is not None:
            return self._choi
        v = _kraus_vectors(self._kraus)
        c = v @ v.conj().T
        c /= 2.0
        c += c.conj().T  # hermitian_part in place: one temporary, not three
        return read_only(c)

    @cached_property
    def induced_effect(self) -> Array:
        """Effect ``A`` with ``tr[Phi(rho)] = tr(rho A)`` for every state."""
        rows = self._kraus.reshape(-1, self.dim)
        return hermitian_part(rows.conj().T @ rows)

    def apply(self, mat: object) -> Array:
        """Linear action on a matrix (no state validation; see ``op_apply``)."""
        m = as_matrix(mat)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"input shape {m.shape}, expected {(self.dim, self.dim)}")
        return (self._kraus @ m @ self._kraus.conj().transpose(0, 2, 1)).sum(axis=0)

    def kraus_ops(self) -> list[Array]:
        """Kraus operators: the given ones, or the canonical ones of the Choi
        eigendecomposition for Choi input."""
        return list(self._kraus)

    def is_channel(self) -> bool:
        """Trace-preserving: ``||A - 1||_F <= CHOI_TOL`` for the induced effect."""
        return frob(self.induced_effect - np.eye(self.dim)) <= CHOI_TOL

    def __repr__(self) -> str:
        kind = "channel" if self.is_channel() else "operation"
        return f"Operation(dim={self.dim}, {kind})"


def ensure_channel(op: Operation) -> Operation:
    residual = frob(op.induced_effect - np.eye(op.dim))
    if not residual <= CHOI_TOL:
        raise InvariantViolation("trace-preserving", residual)
    return op


def operations_close(a: Operation, b: Operation, tol: float) -> bool:
    """Choi matrices within ``tol`` in Frobenius norm, compared in Kraus form
    unless one of them was given as a Choi matrix."""
    if a.dim != b.dim:
        return False
    return _operation_distances([[a]], [b])[0] <= tol


def op_apply(phi: Operation, rho: object) -> Array:
    """Apply an operation to a partial state; the output trace equals
    ``tr(rho A)`` for the induced effect ``A``."""
    r = ensure_partial_state(rho)
    if r.shape[0] != phi.dim:
        raise DimensionError(f"state dim {r.shape[0]}, operation dim {phi.dim}")
    return hermitian_part(phi.apply(r))


class Instrument(LabelledFamily):
    """Family of operations, one per outcome label, summing to a channel.

    ``effects`` holds the outcomes' induced effects as a read-only
    ``(m, d, d)`` stack in label order.
    """

    def __init__(self, operations: Mapping[Label, Operation] | Iterable[tuple[Label, Operation]]):
        labels, ops = self._checked_items(operations)
        if not all(isinstance(op, Operation) for op in ops):
            raise DimensionError("instrument outcomes must be Operation instances")
        self.dim = self._common_size((op.dim for op in ops), "operations")
        self._set_members(labels, ops, np.stack([op.induced_effect for op in ops]), CHOI_TOL)

    def _set_members(self, labels: list[Label], ops: list[Operation], effects: Array, sum_tol: float) -> None:
        residual = frob(effects.sum(0) - np.eye(self.dim))
        if not residual <= sum_tol:
            raise InvariantViolation("trace-preserving-sum", residual)
        self.effects = read_only(effects)
        self._members = dict(zip(labels, ops))

    @classmethod
    def _from_kraus(cls, items: Iterable[tuple[Label, Array]], sum_tol: float = CHOI_TOL) -> "Instrument":
        """Instrument from one ``(r, d, d)`` Kraus stack per outcome label, all
        of one shape and already checked finite (``kraus_instrument`` coerces
        a caller's operators), validated once: the effects from one batched
        Gram product of the stacks zero-padded as rows (``_padded``), one
        label-distinctness, dimension and ``trace-preserving-sum`` check.
        As every ``A_x >= 0``, the sum check
        gives ``A_x <= (1 + sum_tol) 1``: the outcomes' trace-non-increase bound."""
        instr = cls.__new__(cls)
        labels, stacks = instr._checked_items(items, trusted=True)
        counts = [len(ks) for ks in stacks]
        if 0 in counts:
            raise DimensionError("need at least one Kraus operator")
        padded = read_only(_padded(stacks))
        instr.dim = padded.shape[-1]
        rows = padded.reshape(len(stacks), -1, instr.dim)
        effects = read_only(hermitian_part(rows.conj().swapaxes(1, 2) @ rows))
        ops = [Operation._unchecked(ks[:r], a) for ks, r, a in zip(padded, counts, effects)]
        instr._set_members(labels, ops, effects, sum_tol)
        return instr

    def _distances(self, groups: Array, other: "Instrument") -> Array:
        """Choi-form distances (``_operation_distances``)."""
        ops = list(self._members.values())
        return _operation_distances([[ops[k] for k in g] for g in groups], list(other._members.values()))

    @cached_property
    def _observable(self) -> Observable:
        return Observable._valid(self.labels, self.effects)


def instruments_close(a: Instrument, b: Instrument, tol: float) -> bool:
    """Outcome-wise Choi closeness; label sets must match exactly."""
    return family_distance(a, b) <= tol


def induced_observable(instr: Instrument) -> Observable:
    """The unique observable reproducing the instrument's outcome
    probabilities: ``tr[I_x(rho)] = tr(rho A_x)``, cached: one object per
    instrument.  The effects are PSD by construction (each a ``sum K^* K``)
    and are not eigensolved again (``Observable._valid``)."""
    return instr._observable


def luders_instrument(a: Observable) -> Instrument:
    """Instrument with outcome maps ``rho -> sqrt(A_x) rho sqrt(A_x)``."""
    return Instrument._from_kraus(zip(a.labels, a.roots[:, None]))


def trivial_instrument(a: Observable, alpha: object) -> Instrument:
    """Instrument that discards the input: ``rho -> tr(rho A_x) alpha``.

    With ``alpha = R R^*`` and ``A_x = S S^*`` (as in ``root_factors``, one
    column per eigenvalue above the noise floor, so that outcome ``x`` has
    as many operators as ``A_x`` has rank), outcome ``x`` has the Kraus
    operators ``r_k s_j^*`` over the columns of ``R`` and ``S``; its Choi
    matrix is ``A_x^T (x) alpha``.  Every root comes from one batched
    eigendecomposition of the effects and ``alpha``.
    """
    st = ensure_state(alpha)
    if st.shape[0] != a.dim:
        raise DimensionError(f"state dim {st.shape[0]}, observable dim {a.dim}")
    *roots, r = root_factors(np.concatenate([a.stack, st[None]]))
    return Instrument._from_kraus(
        (x, np.einsum("ak,ij->jkai", r, sx.conj()).reshape(-1, a.dim, a.dim)) for x, sx in zip(a.labels, roots)
    )


def identity_instrument(weights: Mapping[Label, float], dim: int) -> Instrument:
    """Instrument whose outcomes scale the identity channel."""
    w = check_weights(list(weights.values()), len(weights))
    labels = check_distinct_labels(weights)
    return Instrument._from_kraus(zip(labels, np.sqrt(w)[:, None, None, None] * np.eye(dim, dtype=complex)))


def kraus_instrument(ops: Mapping[Label, object]) -> Instrument:
    """Instrument with one Kraus operator per outcome; ``NotComplete`` when
    the ``S^* S`` do not sum to the identity."""
    labels = check_distinct_labels(ops)
    stacks = _kraus_stack(list(ops.values()))[:, None] if labels else []
    try:
        return Instrument._from_kraus(zip(labels, stacks))
    except InvariantViolation as exc:  # only the trace-preserving-sum check can fail
        raise NotComplete(f"sum of S*S misses the identity by {exc.residual:.3g}") from None


def _choi_rank(phi: Operation) -> int:
    """Rank of the Choi matrix, from the singular values of the stacked
    ``vec(K^T)`` columns, whose squares are the Choi eigenvalues: those above
    ``RANK_REL_TOL`` times the largest count (none for the zero map)."""
    w = np.linalg.svd(_kraus_vectors(phi._kraus), compute_uv=False) ** 2
    return int(np.sum(w > RANK_REL_TOL * w.max()))


def is_single_kraus(phi: Operation) -> bool:
    """True when one Kraus operator suffices (Choi matrix of rank one)."""
    return _choi_rank(phi) == 1


def _composed_kraus(second: Array, first: Array, dim: int) -> Array:
    """Kraus operators of performing ``first`` and then ``second``, given by
    their stacks: the pairwise products ``t @ s`` from one broadcast matmul,
    ``s``-major, reduced as in ``bounded_kraus``."""
    return bounded_kraus((second[None] @ first[:, None]).reshape(-1, dim, dim), dim)


def compose_operations(second: Operation, first: Operation) -> Operation:
    """Operation performing ``first`` and then ``second``; its Kraus
    operators are the pairwise products, reduced as in ``bounded_kraus``."""
    if second.dim != first.dim:
        raise DimensionError(f"dimension mismatch {second.dim} vs {first.dim}")
    return Operation.from_kraus(_composed_kraus(second._kraus, first._kraus, first.dim))


def instr_product(i: Instrument, j: Instrument) -> Instrument:
    """Product instrument on the product value-space: outcome ``(x, y)``
    performs ``I_x`` and then ``J_y``."""
    if i.dim != j.dim:
        raise DimensionError(f"dimension mismatch {i.dim} vs {j.dim}")
    return Instrument._from_kraus(
        (combine_labels(x, y), _composed_kraus(jy._kraus, ix._kraus, i.dim)) for x, ix in i.items() for y, jy in j.items()
    )


def _channel_kraus(i: Instrument) -> Array:
    """Kraus operators of the total channel: the outcomes' stacks together,
    reduced as in ``bounded_kraus``."""
    return bounded_kraus(np.concatenate([op._kraus for _, op in i.items()]), i.dim)


def instr_channel(i: Instrument) -> Operation:
    """The instrument's total channel, the sum of its outcome operations,
    with the outcomes' Kraus operators together as its own.  Its
    ``ensure_channel`` test (``||A - 1||_F <= CHOI_TOL``) implies the
    operation's trace-non-increase bound, so no eigensolve runs."""
    return ensure_channel(Operation._unchecked(read_only(_channel_kraus(i))))


def instr_conditioned(i: Instrument, j: Instrument) -> Instrument:
    """Instrument ``j`` conditioned by ``i``: outcome ``y`` applies ``J_y``
    after the total channel of ``i``."""
    if i.dim != j.dim:
        raise DimensionError(f"dimension mismatch {i.dim} vs {j.dim}")
    ihat = _channel_kraus(i)
    return Instrument._from_kraus((y, _composed_kraus(jy._kraus, ihat, i.dim)) for y, jy in j.items())


def _mixture(outcomes: list[tuple[Label, Sequence[float], Sequence[Operation]]]) -> Instrument:
    """Instrument with outcome ``y`` equal to ``sum_k w[k] ops[k]`` for each
    ``(y, w, ops)``, with nonnegative weights: outcome ``y`` has the
    ``sqrt(w_k) K`` of its terms of nonzero weight, reduced as in
    ``bounded_kraus``; no eigensolve.
    """
    sums = []
    for y, w, ops in outcomes:
        terms = [np.sqrt(wk) * op._kraus for wk, op in zip(w, ops) if wk > 0]
        sums.append((y, bounded_kraus(np.concatenate(terms) if terms else [], ops[0].dim)))
    return Instrument._from_kraus(sums)


def instr_convex_combo(weights: Sequence[float], instruments: Sequence[Instrument]) -> Instrument:
    """Outcome-wise mixture of instruments sharing one value-space.  An
    empty list fails ``check_weights``: no weights sum to one."""
    w = check_weights(weights, len(instruments))
    labels = shared_value_space(instruments)
    return _mixture([(x, w, [i[x] for i in instruments]) for x in labels])


def instr_post_process(nu: StochasticMatrix, i: Instrument) -> Instrument:
    """Classical relabeling of outcomes: ``(nu . I)_y = sum_x nu[x, y] I_x``."""
    ops = row_members(nu, i)
    return _mixture([(y, nu.matrix[:, c], ops) for c, y in enumerate(nu.col_labels)])


def instr_complementary(i: Instrument, j: Instrument) -> bool:
    """A definite value of either instrument completely randomizes the other.

    The defining identities are linear in the state, so they are checked on
    the Hermitian basis of symmetrized matrix units ``s_k``: equivalent, not
    an approximation.  With ``A`` and ``B`` the induced observables, the
    identity ``tr J_y(sqrt(A_x) s sqrt(A_x)) = tr I_x(s) / n`` reads
    ``tr(s_k D_ab[x, y]) = 0`` for the defects of ``complementarity_defects``,
    and likewise with ``D_ba``.  The defects are exactly Hermitian, so the
    coefficients are their ``D_ii``, ``Re D_ij`` and ``-Im D_ij`` (``i < j``):
    every real and imaginary part must be within ``CHOI_TOL``.
    """
    defects = complementarity_defects(induced_observable(i), induced_observable(j))
    return all(bool(np.all(np.abs(d.real) <= CHOI_TOL) and np.all(np.abs(d.imag) <= CHOI_TOL)) for d in defects)


def instr_coexist_verify(i: Instrument, j: Instrument, joint: Instrument, tol: float = CHOI_TOL) -> bool:
    """Check that ``joint`` has marginals ``i`` and ``j``, outcome-wise in
    Choi form within ``tol`` (``marginal_defect``, in Kraus form: a sum of
    joint outcomes has their Kraus operators together)."""
    return marginal_defect(i, j, joint) <= tol


def _outputs(i: Instrument, mat: Array) -> Array:
    """Every outcome's output on a matrix, as an ``(m, d, d)`` stack."""
    return np.stack([op.apply(mat) for _, op in i.items()])


def joint_probability_table_instr(rho: object, i: Instrument, j: Instrument) -> Array:
    """Outcome table ``p[x, y] = tr J_y(I_x(rho)) = tr(B_y I_x(rho))`` of
    performing ``i`` and then ``j``, with ``B`` the induced effects of ``j``:
    an ``(m, n)`` array in label order, from one application per outcome of
    ``i``."""
    r = ensure_state(rho)
    if r.shape[0] != i.dim or i.dim != j.dim:
        raise DimensionError("dimension mismatch")
    return np.einsum("xab,yba->xy", _outputs(i, r), j.effects).real


def joint_probability_instr(
    rho: object, i: Instrument, x_set: Iterable[Label], j: Instrument, y_set: Iterable[Label]
) -> float:
    """Probability of outcome set ``X`` for ``i`` and then ``Y`` for ``j``:
    the sum of ``joint_probability_table_instr`` over ``X x Y``.  Neither set
    may repeat a label."""
    return _set_probability(joint_probability_table_instr(rho, i, j), i, x_set, j, y_set)


def kraus_instrument_from_channel(a: Operation) -> Instrument:
    """Split a channel into a Kraus instrument, one outcome per operator of
    its Kraus stack cut to its Choi rank by ``minimal_kraus``.  The resulting
    instrument's total channel is the input channel.
    """
    ensure_channel(a)
    ops = minimal_kraus(a._kraus, a.dim)
    return Instrument._from_kraus((f"k{n}", s) for n, s in enumerate(ops[:, None]))


def is_identity_instrument(i: Instrument, tol: float = CHOI_TOL) -> bool:
    """True when every outcome is a scalar multiple of the identity channel:
    outcome ``x`` is within ``tol`` (Choi form, ``_operation_distances``) of
    ``w_x id``, whose one Kraus operator is ``sqrt(w_x) 1``, for
    ``w_x = tr(C_x) / d = tr(A_x) / d`` with ``A_x`` its induced effect."""
    w = np.trace(i.effects, axis1=1, axis2=2).real / i.dim
    ones = [Operation._unchecked(k) for k in np.sqrt(w)[:, None, None, None] * np.eye(i.dim)]
    return bool(np.all(_operation_distances([[op] for _, op in i.items()], ones) <= tol))
