"""Operations, channels, and finite instruments.

An operation is a completely positive trace-non-increasing map, held as a
read-only stack of Kraus operators from construction on.  The constructor
takes exactly one of two input forms and validates by form:

- Kraus operators: CP by construction, so only trace-non-increase is
  checked, on the d x d matrix ``sum_k K_k^* K_k``;
- a Choi matrix: Hermitian, positive semidefinite and trace-non-increasing.
  The one eigendecomposition of the PSD check also gives the canonical Kraus
  operators, one per eigenvalue that ``linalg.kept`` counts, and ``choi``
  keeps the caller's (symmetrized) matrix.  Every Kraus cut and Choi rank is
  ``linalg.kept``'s, so ``is_single_kraus`` agrees with ``minimal_kraus``.

Choi matrices are formed on read (``O(r d^4)`` for ``r`` operators) and not
kept, so no operation carries a ``d^4`` array it did not come with; writing
a document is their one reader.  Comparisons (``family_distance``,
``marginal_defect``, ``operations_close``, ``is_identity_instrument``) stay
in Kraus form, through ``choi_distances`` on the padded arrays,
``O(d^2 r^2)`` per pair; a Choi-input operation takes part with its
canonical stack (at most ``d^2`` operators), so a comparison measures the
map that ``apply`` performs.

An instrument (an ``observables.LabelledFamily``) is one read-only
zero-padded ``(m, r, d, d)`` Kraus array, outcome ``x``'s operators
``kraus[x, :counts[x]]``, and its induced effects, PSD by construction;
its ``Operation`` objects are formed on first read.  Builders hand their
array to ``Instrument._from_kraus``, which validates once.  An operation is
the one-outcome array ``stack[None]``: ``_then`` composes such arrays,
``_outputs`` applies and ``_effects`` sums them, mixtures concatenate them,
and ``_assembled`` cuts each outcome above ``d^2`` operators in one batch.

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

from .effects import _same_dim, ensure_partial_state, ensure_state
from .errors import DimensionError, InvariantViolation, KindError, NotComplete
from .linalg import CHOI_TOL, HERM_TOL, MODEL_TOL, kept, rank, root_columns
from .linalg import Array, as_matrix, as_numbers, completion, ensure_hermitian, frob, hermitian_part, read_only
from .observables import Label, LabelledFamily, Observable, StochasticMatrix, _set_probability, check_distinct_labels
from .observables import check_weights, combine_labels, complementarity_defects, family_distance, marginal_defect
from .observables import _pair_traces, row_positions, shared_value_space


def _kraus_stack(ops: Sequence[object]) -> Array:
    """Read-only ``(r, d, d)`` stack of square Kraus operators, coerced by
    ``as_numbers`` (which rejects mixed shapes) before they are counted; never
    a view of the caller's array."""
    stack = as_numbers(ops)
    if stack.shape[:1] == (0,):
        raise DimensionError("need at least one Kraus operator")
    stack = as_matrix(stack, stack=True)
    if stack.shape[1] != stack.shape[2]:
        raise DimensionError(f"Kraus operator shape {stack.shape[1:]} is not square")
    if isinstance(ops, np.ndarray) and np.may_share_memory(stack, ops):
        stack = stack.copy()
    return read_only(stack)


def _kraus_vectors(stack: Array) -> Array:
    """Columns ``v[(i, a)] = K[a, i]``, one per Kraus operator of a stack (or batch): ``choi = V V^*``."""
    return stack.swapaxes(-1, -3).reshape(*stack.shape[:-3], stack.shape[-1] ** 2, stack.shape[-3])


def kraus_from_vectors(vecs: Array, dim: int) -> Array:
    """The Kraus operators whose ``vec(K^T)`` are the columns of ``vecs`` (or a batch): ``_kraus_vectors``'s inverse."""
    return vecs.swapaxes(-1, -2).reshape(*vecs.shape[:-2], vecs.shape[-1], dim, dim).swapaxes(-1, -2)


def _padded(stacks: Sequence[Array]) -> Array:
    """New ``(m, r, d, d)`` array of ``m`` Kraus stacks, stack ``s`` in ``[s, :len(s)]``, zeros after."""
    out = np.zeros((len(stacks), max(len(s) for s in stacks), *np.shape(stacks[0])[1:]), dtype=complex)
    for o, s in zip(out, stacks):
        o[: len(s)] = s
    return out


def _filled(kraus: Array, counts: Array) -> Array:
    """``(m, r)`` mask of a padded array's operators that are not padding."""
    return np.arange(kraus.shape[1]) < counts[:, None]


def _operators(kraus: Array, counts: Array) -> Array:
    """A padded array's operators, outcome-major, as one ``(n, d, d)`` stack (a view if unpadded)."""
    # A view, not a gather: large-d's round trips take it; the masked gather cost ~10 % of large-d's ops_per_s.
    return kraus.reshape(-1, *kraus.shape[2:]) if counts.min() == kraus.shape[1] else kraus[_filled(kraus, counts)]


def _then(first: Array, first_counts: Array, second: Array, second_counts: Array) -> tuple[Array, Array]:
    """Padded ``first`` and then ``second``: outcome ``(x, y)``, ``x``-major, gets the products
    ``T_yt S_xs`` of one broadcast matmul, ``s``-major; one outcome-major stack and its counts."""
    ops = second[None, :, None, :] @ first[:, None, :, None]  # ops[x, y, s, t] = T_yt S_xs
    counts = (first_counts[:, None] * second_counts).ravel()
    # A reshape, not a gather: large-d's conditioned ops take it; the masked gather cost ~10 % of its ops_per_s.
    if counts.min() == ops.shape[2] * ops.shape[3]:
        return ops.reshape(-1, *ops.shape[-2:]), counts
    return ops[_filled(first, first_counts)[:, None, :, None] & _filled(second, second_counts)[None, :, None, :]], counts


def _outputs(kraus: Array, mat: Array) -> Array:
    """Each outcome's output ``sum_k K_k mat K_k^*`` of a padded array, as an ``(m, d, d)`` stack."""
    return (kraus @ mat @ kraus.conj().swapaxes(-1, -2)).sum(1)


def _effects(kraus: Array) -> Array:
    """Each outcome's effect ``sum_k K_k^* K_k`` of a padded array (or a batch with
    leading trial axes), from one batched Gram product."""
    rows = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1])
    return hermitian_part(rows.conj().swapaxes(-1, -2) @ rows)


def _checked_sum(kraus: Array, effects: Array, bound: float = CHOI_TOL) -> tuple[Array, Array]:
    """A padded array and its effects, or a ``(t, m, r, d, d)`` batch of ``t``
    trials' arrays and their effects, each family's sum checked within
    ``CHOI_TOL`` (``completion``): up to ``bound``, the operators are completed,
    ``K - K (G - 1) / 2``, and checked again."""
    half = completion(effects.sum(-3), CHOI_TOL, bound, "trace-preserving-sum")
    if half is None:
        return kraus, effects
    kraus = kraus - kraus @ half[..., None, None, :, :]
    return _checked_sum(kraus, _effects(kraus))


def _mixed(w: Array, kraus: Sequence[Array]) -> Array:
    """The operators ``sqrt(w_k) K`` of padded arrays ``kraus[k]`` (or batches,
    with ``w[..., k]`` per trial), each outcome's together: the one
    concatenation of an instrument mixture."""
    return np.concatenate([np.sqrt(w[..., k, None, None, None, None]) * a for k, a in enumerate(kraus)], axis=-3)


def _relabelled(c: Array, kraus: Array) -> Array:
    """Outcome ``y``'s operators ``sqrt(c[y, x]) K`` over the outcomes ``x`` of
    a padded array, ``(n, m, r, d, d)``, or per trial of a batch: the one
    weighting of a post-processing ``c = nu^T``."""
    return np.sqrt(c)[..., None, None, None] * kraus[..., None, :, :, :, :]


def _reduced(kraus: Array, counts: Array, limit: int) -> tuple[Array, Array]:
    """The padded array and counts, each outcome above ``limit`` operators cut
    as by ``minimal_kraus``: one batched ``eigvalsh`` of the ``r x r`` Gram
    matrices ``tr(K_k^* K_l)`` finds those of at most ``d^2`` at full column
    rank (padding adds zeros), one SVD cuts the rest."""
    if counts.max() <= limit:
        return kraus, counts
    cut = np.flatnonzero(counts > limit)
    test = counts[cut] <= kraus.shape[-1] ** 2  # the others are never at full column rank
    if test.any():
        flat = kraus[cut[test], : counts[cut[test]].max()].reshape(np.count_nonzero(test), -1, kraus.shape[-1] ** 2)
        w = np.linalg.eigvalsh(flat.conj() @ flat.swapaxes(1, 2))
        test[test] = kept(w).sum(1) == counts[cut[test]]
        cut = cut[~test]
    if not cut.size:
        return kraus, counts
    u, s, _ = np.linalg.svd(_kraus_vectors(kraus[cut, : counts[cut].max()]), full_matrices=False)
    keep, counts = kept(s * s), counts.copy()
    keep[:, 0] = True  # an outcome keeps one operator, zero if it is the zero map
    counts[cut] = keep.sum(1)
    out = kraus[:, : counts.max()].copy()
    out[cut] = 0.0
    out[cut, : u.shape[-1]] = kraus_from_vectors(u * (s * keep)[:, None], kraus.shape[-1])[:, : out.shape[1]]
    return out, counts


def _assembled(labels: Sequence[Label], ops: Array, counts: Array) -> "Instrument":
    """Instrument of the outcome-major stack ``ops``, ``counts[x]`` for outcome
    ``x`` (one zero operator if none), padded and cut by ``_reduced``.  Inputs'
    sum defects add up, so its one sum check (``Instrument._set``) completes up to ``MODEL_TOL``."""
    # A reshape, not a gather: large-d's round trips take it; the masked gather cost ~10 % of large-d's ops_per_s.
    if counts.min() == counts.max() > 0:
        kraus = ops.reshape(len(counts), -1, *ops.shape[1:])
    else:
        kraus = np.zeros((len(counts), max(counts.max(), 1), *ops.shape[1:]), dtype=complex)
        kraus[_filled(kraus, counts)] = ops
        counts = np.maximum(counts, 1)
    return Instrument._from_kraus(labels, *_reduced(kraus, counts, ops.shape[-1] ** 2), MODEL_TOL)


def choi_distances(ks: Sequence[Array], ls: Sequence[Array]) -> Array:
    """Frobenius distances ``||C_K - C_L||_F`` between the Choi matrices of
    paired Kraus stacks ``(K, L)`` of one dimension ``d``, never forming one;
    either side a sequence of stacks or one padded ``(m, r, d, d)`` array.

    Padded to ``r`` operators a side, the flattened operators (the Choi row
    order up to a fixed permutation, which keeps the norm) are the columns of
    ``W = [V_K, V_L]``, ``d^2 x 2r``, so ``C_K - C_L = W S W^*`` with ``S =
    diag(1, -1)``.  Past ``d = 4``, when ``W`` is tall, one QR ``W = Q R``
    turns this into the ``2r`` square ``R S R^*`` (no difference of squared
    norms), ``O(d^2 r^2)`` work instead of ``O(d^4 r)``; for a wide ``W``, or
    up to ``d = 4``, the QR would save nothing.  All pairs go through one
    batched call, and bitwise-equal stacks give exactly 0.0.
    """
    k, l = (s if isinstance(s, np.ndarray) else _padded(s) for s in (ks, ls))
    m, r, n = len(k), max(k.shape[1], l.shape[1]), k.shape[-1] ** 2
    v = np.zeros((2, m, r, n), dtype=complex)
    v[0, :, : k.shape[1]], v[1, :, : l.shape[1]] = k.reshape(m, -1, n), l.reshape(m, -1, n)
    w = v.transpose(1, 3, 0, 2).reshape(m, n, 2 * r)
    if n > max(16, 2 * r):
        w = np.linalg.qr(w, mode="r")
    gap = (w * np.repeat([1.0, -1.0], r)) @ w.conj().swapaxes(1, 2)
    return np.where(np.all(v[0] == v[1], axis=(1, 2)), 0.0, np.linalg.norm(gap, axis=(1, 2)))


def minimal_kraus(ops: Array, dim: int) -> Array:
    """Kraus operators of the same map, as many as its Choi rank.

    A ``(r, d, d)`` stack of linearly independent operators, or of at most
    one, comes back unchanged.  Any other is replaced by the canonical
    operators from an SVD of the stacked ``vec(K^T)`` columns, whose squared
    singular values are the Choi eigenvalues: those ``linalg.kept`` counts,
    and one zero operator for the zero map.
    """
    if len(ops) <= 1:
        return ops
    u, s, _ = np.linalg.svd(_kraus_vectors(ops), full_matrices=False)
    n = max(int(kept(s * s).sum()), 1)
    return ops if n == len(ops) else kraus_from_vectors(u[:, :n] * s[:n], dim)


class Operation:
    """Completely positive trace-non-increasing map, from Kraus operators or
    a Choi matrix, never both (see the module docstring for what each
    checks); the Choi checks and the trace bound hold within ``CHOI_TOL``.

    ``_kraus`` is always set: the given operators, or for a Choi matrix the
    canonical ones of its eigendecomposition.  Choi eigenvalues that
    ``linalg.kept`` does not count (among them the small negative ones the
    PSD check tolerates) are dropped from that Kraus form, and a zero Choi
    matrix gives one zero operator.  ``_choi`` is the caller's Choi matrix,
    kept so that a document re-saves byte-identical: ``choi`` is its one
    reader.  A Kraus-built operation has none; its ``choi`` is formed on each read.
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
            n = max(int(kept(w).sum()), 1)  # kept ones are last; a zero Choi matrix gives one zero operator
            self._kraus = read_only(kraus_from_vectors(vecs[:, -n:] * np.sqrt(np.clip(w[-n:], 0.0, None)), dim))
        self.dim = self._kraus.shape[1]
        top = float(np.linalg.eigvalsh(self.induced_effect)[-1])
        if not top <= 1.0 + CHOI_TOL:
            raise InvariantViolation("trace-non-increasing", top - 1.0)

    @classmethod
    def _unchecked(cls, kraus: Array, effect: Array | None = None) -> "Operation":
        """Operation on a read-only Kraus stack, with no check: an instrument's outcome
        (whose sum check implies trace-non-increase) or a composition with its ``effect``,
        or a channel or a scaled composition, whose effect is formed on first use."""
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
        if dim < 1:
            raise DimensionError("dimension must be at least 1")
        return cls.from_kraus([np.eye(dim, dtype=complex)])

    @classmethod
    def from_unitary(cls, u: object) -> "Operation":
        return cls.from_kraus([as_matrix(u)])

    @property
    def choi(self) -> Array:
        """Choi matrix: the caller's (symmetrized) matrix for Choi input, else
        the Hermitian part of ``V V^*`` of the Kraus vectors (exactly
        Hermitian, as a loaded document's is), formed on each read and not
        kept (``d^2 x d^2``; comparisons never form it)."""
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
        return _effects(self._kraus[None])[0]

    def apply(self, mat: object) -> Array:
        """Linear action on a matrix (no state validation; see ``op_apply``)."""
        m = as_matrix(mat)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(f"input shape {m.shape}, expected {(self.dim, self.dim)}")
        return _outputs(self._kraus[None], m)[0]

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
    completion(op.induced_effect, CHOI_TOL, CHOI_TOL, "trace-preserving")
    return op


def operations_close(a: Operation, b: Operation, tol: float) -> bool:
    """Choi matrices within ``tol`` in Frobenius norm, compared in Kraus form."""
    if a.dim != b.dim:
        return False
    return choi_distances([a._kraus], [b._kraus])[0] <= tol


def op_apply(phi: Operation, rho: object) -> Array:
    """Apply an operation to a partial state; the output trace equals
    ``tr(rho A)`` for the induced effect ``A``."""
    r = ensure_partial_state(rho)
    if r.shape[0] != phi.dim:
        raise DimensionError(f"state dim {r.shape[0]}, operation dim {phi.dim}")
    return hermitian_part(phi.apply(r))


class Instrument(LabelledFamily):
    """Family of operations, one per outcome label, summing to a channel:
    the read-only padded ``kraus`` array, its ``counts`` and ``effects`` in
    label order; the operations (views of ``kraus``) are formed on read."""

    def __init__(self, operations: Mapping[Label, Operation] | Iterable[tuple[Label, Operation]]):
        labels, ops = self._checked_items(operations)
        if not all(isinstance(op, Operation) for op in ops):
            raise KindError("instrument outcomes must be Operation instances")
        _same_dim(*(op.dim for op in ops))
        stacks, effects = [op._kraus for op in ops], np.stack([op.induced_effect for op in ops])
        self._set(labels, _padded(stacks), np.array([len(k) for k in stacks]), effects)
        self._members = dict(zip(labels, ops))

    def _set(self, labels: list[Label], kraus: Array, counts: Array, effects: Array, bound: float = CHOI_TOL) -> None:
        kraus, effects = _checked_sum(kraus, effects, bound)
        self.dim, self.labels = effects.shape[-1], tuple(labels)
        self.kraus, self.counts, self.effects = read_only(kraus), read_only(counts), read_only(effects)

    @classmethod
    def _from_kraus(cls, labels: Sequence[Label], kraus: Array, counts: Array | None = None, bound: float = CHOI_TOL):
        """Instrument on a padded Kraus array no caller writes, ``counts`` (or
        all) operators per outcome, checked finite, validated once: the effects
        from one batched Gram product, label distinctness and the sum check
        within ``CHOI_TOL``, which gives ``A_x <= (1 + CHOI_TOL) 1``; a sum up to
        ``bound`` (``_assembled``'s ``MODEL_TOL``) is completed and checked again."""
        instr = cls.__new__(cls)
        labels = instr._checked_items(zip(labels, kraus), trusted=True)[0]
        counts = np.full(len(kraus), kraus.shape[1]) if counts is None else np.asarray(counts)
        if not counts.min() >= 1:
            raise DimensionError("need at least one Kraus operator")
        instr._set(labels, kraus, counts, _effects(kraus), bound)
        return instr

    @cached_property
    def _members(self) -> dict[Label, Operation]:
        ops = (Operation._unchecked(k[:c], a) for k, c, a in zip(self.kraus, self.counts, self.effects))
        return dict(zip(self.labels, ops))

    def _distances(self, groups: Array, other: "Instrument") -> Array:
        """Choi-form distances: ``choi_distances`` on the padded arrays, a
        group's operators together."""
        k = self.kraus[groups]
        return choi_distances(k.reshape(len(groups), -1, self.dim, self.dim), other.kraus)

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
    return Instrument._from_kraus(a.labels, a.roots[:, None])


def trivial_instrument(a: Observable, alpha: object) -> Instrument:
    """Instrument that discards the input: ``rho -> tr(rho A_x) alpha``.

    With ``alpha = R R^*`` and ``A_x = S S^*`` (the kept ``root_columns``,
    as many as ``A_x`` has rank), outcome ``x`` has the Kraus operators
    ``r_k s_j^*`` over the columns of ``R`` and ``S``; its Choi matrix is
    ``A_x^T (x) alpha``.  Every root comes from one batched eigensolve.
    """
    st = ensure_state(alpha)
    if st.shape[0] != a.dim:
        raise DimensionError(f"state dim {st.shape[0]}, observable dim {a.dim}")
    f, keep = root_columns(np.concatenate([a.stack, st[None]]))
    ops = np.einsum("ak,xij->xjkai", f[-1][:, keep[-1]], f[:-1].conj())
    return _assembled(a.labels, ops[keep[:-1]].reshape(-1, a.dim, a.dim), keep[:-1].sum(1) * keep[-1].sum())


def identity_instrument(weights: Mapping[Label, float], dim: int) -> Instrument:
    """Instrument whose outcomes scale the identity channel."""
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    w = np.sqrt(check_weights(list(weights.values()), len(weights)))
    return Instrument._from_kraus(check_distinct_labels(weights), w[:, None, None, None] * np.eye(dim, dtype=complex))


def kraus_instrument(ops: Mapping[Label, object]) -> Instrument:
    """Instrument with one Kraus operator per outcome; ``NotComplete`` when
    the ``S^* S`` do not sum to the identity."""
    labels = check_distinct_labels(ops)
    try:  # no operators: the label check names the missing outcome
        return Instrument._from_kraus(labels, _kraus_stack(list(ops.values()))[:, None] if labels else np.zeros(0))
    except InvariantViolation as exc:  # only the trace-preserving-sum check can fail
        raise NotComplete(f"sum of S*S misses the identity by {exc.residual:.3g}") from None


def _choi_rank(phi: Operation) -> int:
    """``linalg.rank`` of the Choi matrix: the squared singular values of the ``vec(K^T)`` columns."""
    return int(rank(np.linalg.svd(_kraus_vectors(phi._kraus), compute_uv=False) ** 2))


def is_single_kraus(phi: Operation) -> bool:
    """True when one Kraus operator suffices (Choi matrix of rank one)."""
    return _choi_rank(phi) == 1


def compose_operations(second: Operation, first: Operation) -> Operation:
    """Operation performing ``first`` and then ``second``: the one-outcome
    ``instr_product``, completed (``_assembled``) if both are channels, else
    scaled by ``1 / sqrt(t)`` if its effect's top eigenvalue ``t`` exceeds 1 by at most ``MODEL_TOL``."""
    _same_dim(second.dim, first.dim)
    f, s = first._kraus, second._kraus
    ops, counts = _then(f[None], np.array([len(f)]), s[None], np.array([len(s)]))
    if first.is_channel() and second.is_channel():
        return _assembled(["0"], ops, counts)["0"]
    kraus = _reduced(ops[None], counts, first.dim ** 2)[0][0]
    effect = _effects(kraus[None])[0]
    top = float(np.linalg.eigvalsh(effect)[-1])
    if not top <= 1.0 + MODEL_TOL:
        raise InvariantViolation("trace-non-increasing", top - 1.0)
    if top > 1.0 + CHOI_TOL:  # the scaled operators' effect is formed on first use
        return Operation._unchecked(read_only(kraus / np.sqrt(top)))
    return Operation._unchecked(read_only(kraus), effect)


def instr_product(i: Instrument, j: Instrument) -> Instrument:
    """Product instrument on the product value-space: outcome ``(x, y)``
    performs ``I_x`` and then ``J_y``: ``_then`` over all pairs."""
    _same_dim(i.dim, j.dim)
    labels = [combine_labels(x, y) for x in i.labels for y in j.labels]
    return _assembled(labels, *_then(i.kraus, i.counts, j.kraus, j.counts))


def _channel_kraus(i: Instrument) -> tuple[Array, Array]:
    """The total channel as a one-outcome padded array and its count: the
    outcomes' operators together, cut by ``_reduced`` above ``d^2``."""
    ops = _operators(i.kraus, i.counts)
    return _reduced(ops[None], np.array([len(ops)]), i.dim ** 2)


def instr_channel(i: Instrument) -> Operation:
    """The instrument's total channel, the sum of its outcome operations,
    with the outcomes' Kraus operators together as its own.  Its
    ``ensure_channel`` test (``||A - 1||_F <= CHOI_TOL``) implies the
    operation's trace-non-increase bound, so no eigensolve runs."""
    return ensure_channel(Operation._unchecked(read_only(_channel_kraus(i)[0][0])))


def instr_conditioned(i: Instrument, j: Instrument) -> Instrument:
    """Instrument ``j`` conditioned by ``i``: outcome ``y`` applies ``J_y``
    after the total channel of ``i``: ``_then`` on the channel as one outcome."""
    _same_dim(i.dim, j.dim)
    return _assembled(j.labels, *_then(*_channel_kraus(i), j.kraus, j.counts))


def instr_convex_combo(weights: Sequence[float], instruments: Sequence[Instrument]) -> Instrument:
    """Outcome-wise mixture of instruments sharing one value-space, one
    weighted concatenation of the ``sqrt(w_k) K`` of nonzero weight.  An
    empty list fails ``check_weights``: no weights sum to one."""
    w = check_weights(weights, len(instruments))
    labels = shared_value_space(instruments)
    ops = _mixed(w, [i.kraus for i in instruments])
    valid = np.concatenate([_filled(i.kraus, i.counts) & (wk > 0) for wk, i in zip(w, instruments)], axis=1)
    return _assembled(labels, ops[valid], valid.sum(1))


def instr_post_process(nu: StochasticMatrix, i: Instrument) -> Instrument:
    """Classical relabeling of outcomes, ``(nu . I)_y = sum_x nu[x, y] I_x``,
    as in ``instr_convex_combo``."""
    rows, w = row_positions(nu, i), nu.matrix.T
    ops = _relabelled(w, i.kraus[rows])
    valid = (w[:, :, None] > 0) & _filled(i.kraus, i.counts)[rows]
    return _assembled(nu.col_labels, ops[valid], valid.sum((1, 2)))


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


def joint_probability_table_instr(rho: object, i: Instrument, j: Instrument) -> Array:
    """Outcome table ``p[x, y] = tr J_y(I_x(rho)) = tr(B_y I_x(rho))`` of
    performing ``i`` and then ``j``, with ``B`` the induced effects of ``j``:
    an ``(m, n)`` array in label order, from one batched product."""
    r = ensure_state(rho)
    _same_dim(r.shape[0], i.dim, j.dim)
    return _pair_traces(_outputs(i.kraus, r), j.effects)


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
    return Instrument._from_kraus([f"k{n}" for n in range(len(ops))], ops[:, None])


def is_identity_instrument(i: Instrument, tol: float = CHOI_TOL) -> bool:
    """True when every outcome is a scalar multiple of the identity channel:
    outcome ``x`` is within ``tol`` (``choi_distances``) of ``w_x id``, one
    Kraus operator ``sqrt(w_x) 1``, ``w_x = tr(A_x) / d`` (summing as the
    effects do)."""
    w = np.trace(i.effects, axis1=1, axis2=2).real / i.dim
    return bool(np.all(choi_distances(i.kraus, np.sqrt(w)[:, None, None, None] * np.eye(i.dim)) <= tol))
