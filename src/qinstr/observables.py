"""Labelled families, finite observables and their combinators.

``LabelledFamily`` is the core that observables and instruments share: a
nonempty ordered map from distinct outcome labels to members of one
dimension, with one set of label checks, mapping protocol and ``repr``.
Closeness (``family_distance``), coexistence (``marginal_defect``), the
value-space check of mixtures and the row check of post-processing are
written once on it; the two comparisons ask each family for the distances
of its members (``_distances``): effects, or Kraus stacks.

An observable is a finite, label-indexed family of effects summing to the
identity (a finite-outcome POVM).  Product value-spaces use tuple labels;
combining labels flattens, so a triple product carries labels ``(x, y, z)``.

An observable stores its effects as one read-only ``(m, d, d)`` stack in
label order, validated by a single ``ensure_effects`` call, and keeps one
eigendecomposition of it, from which every root of its effects is read.
Combinators work on stacks: sequential products, conditioning, triple
joints and complementarity defects come from ``seq_products`` on the roots,
and mixtures and post-processing are contractions with the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .effects import _effects_spectrum, _same_dim, ensure_state, joint_feasibility_search, seq_products
from .errors import (
    DimensionError,
    InvariantViolation,
    KindError,
    LabelError,
    ShapeError,
    WeightError,
)
from .linalg import EFFECT_EIG_TOL, JOINT_TOL, SEARCH_ITERS, SEARCH_TOL, rank
from .linalg import STOCHASTIC_NEG_TOL, STOCHASTIC_ROW_TOL, SUM_TOL, WEIGHT_TOL
from .linalg import Array, _eig_columns, _from_eig, _psd_eig, as_matrix, as_numbers, completion, hermitian_part, read_only

Label = str | tuple[str, ...]


def check_token(token: str) -> str:
    if not isinstance(token, str) or not token:
        raise LabelError(f"label token must be a nonempty string, got {token!r}")
    if "|" in token:
        raise LabelError(f"label token may not contain '|': {token!r}")
    return token


def check_label(label: Label) -> Label:
    if isinstance(label, tuple):
        if not label:
            raise LabelError("empty tuple label")
        return tuple(check_token(t) for t in label)
    return check_token(label)


def combine_labels(x: Label, y: Label) -> tuple[str, ...]:
    """Flattened product label, so nested products read as flat tuples."""
    xt = x if isinstance(x, tuple) else (x,)
    yt = y if isinstance(y, tuple) else (y,)
    return xt + yt


def label_text(label: Label) -> str:
    return "|".join(label) if isinstance(label, tuple) else label


def parse_label(text: str) -> Label:
    parts = text.split("|")
    return tuple(parts) if len(parts) > 1 else parts[0]


def check_distinct_labels(labels: Iterable[Label]) -> tuple[Label, ...]:
    """The labels, each checked by ``check_label``, none repeated."""
    checked = tuple(check_label(label) for label in labels)
    if len(set(checked)) != len(checked):
        duplicate = next(x for k, x in enumerate(checked) if x in checked[:k])
        raise LabelError(f"duplicate label {duplicate!r}")
    return checked


class LabelledFamily:
    """Ordered map from distinct outcome labels to members of one dimension.

    The common base of ``Observable`` (members are effects) and ``Instrument``
    (members are operations).  Each subclass checks its members' labels with
    ``_checked_items`` and their dimension once (``ensure_effects``, or
    ``_same_dim``), then sets ``dim``, ``labels`` and ``_members`` (an
    instrument's on first read).  ``_distances`` is the comparison that
    ``family_distance`` and ``marginal_defect`` share: effects, or Kraus stacks.
    """

    dim: int
    labels: tuple[Label, ...]
    _members: dict

    def _checked_items(self, members: Mapping | Iterable[tuple], trusted: bool = False) -> tuple[list[Label], list]:
        """The labels, checked valid (unless ``trusted``), distinct and
        nonempty, and the members of a mapping or of ``(label, member)`` pairs.
        Trusted labels come from validated families or stochastic matrices,
        or are generated; flattening can still merge two of them."""
        items = list(members.items()) if isinstance(members, Mapping) else list(members)
        if not items:
            raise LabelError(f"an {type(self).__name__.lower()} needs at least one outcome")
        labels = tuple(label for label, _ in items)
        if not trusted or len(set(labels)) != len(labels):  # the full check names a repeat
            labels = check_distinct_labels(labels)
        return list(labels), [member for _, member in items]

    def _distances(self, groups: Array, other: "LabelledFamily") -> Array:
        """Frobenius distance between the sum of this family's members at
        the positions (label order) of each row of the ``(k, g)`` index array
        ``groups`` and the member of ``other`` at the row's position."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Label) -> bool:
        return label in self.labels

    def __getitem__(self, label: Label):
        try:
            return self._members[label]
        except KeyError:
            raise LabelError(f"unknown label {label!r}") from None

    def items(self):
        return self._members.items()

    def _positions(self, subset: Iterable[Label]) -> list[int]:
        """Label-order positions of an outcome set: ``LabelError`` for an
        unknown or a repeated label, which would otherwise count twice."""
        order = {x: k for k, x in enumerate(self.labels)}
        labels = check_distinct_labels(subset)
        unknown = [x for x in labels if x not in order]
        if unknown:
            raise LabelError(f"unknown label {unknown[0]!r}")
        return [order[x] for x in labels]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, labels={list(self.labels)!r})"


def family_distance(a: LabelledFamily, b: LabelledFamily) -> float:
    """Largest Frobenius distance between members of ``a`` and ``b`` under
    the same label: effects for observables, Choi matrices for instruments
    (computed in Kraus form, ``instruments.choi_distances``).

    Infinite when the two do not share one value-space (the same labels in
    the same order) and one dimension, or are families of different kinds.
    """
    if type(a) is not type(b) or a.labels != b.labels or a.dim != b.dim:
        return math.inf
    return float(a._distances(np.arange(len(a))[:, None], b).max())


def marginal_defect(a: LabelledFamily, b: LabelledFamily, joint: LabelledFamily) -> float:
    """Largest Frobenius distance between a marginal of ``joint`` and the
    family it should equal: summing ``joint`` over the labels of ``b`` must
    give ``a``, and over the labels of ``a`` must give ``b``.

    ``joint`` must live on the product value-space of ``a`` and ``b``, in
    any label order, and all three must be families of one kind
    (``KindError`` otherwise).
    """
    if not type(a) is type(b) is type(joint):
        raise KindError("families of mixed kinds: " + ", ".join(type(f).__name__.lower() for f in (a, b, joint)))
    _same_dim(a.dim, b.dim, joint.dim)
    product = [combine_labels(x, y) for x in a.labels for y in b.labels]
    if set(joint.labels) != set(product):
        kind = type(joint).__name__.lower()
        raise LabelError(f"joint {kind} labels do not form the product value-space")
    position = {x: k for k, x in enumerate(joint.labels)}
    groups = np.array([position[x] for x in product]).reshape(len(a), len(b))
    return float(max(joint._distances(groups, a).max(), joint._distances(groups.T, b).max()))


class Observable(LabelledFamily):
    """Family of effects, one per outcome label, that sums to the identity.

    ``stack`` holds the effects as a read-only ``(m, d, d)`` array in label
    order; the mapping's values are views of it.  One eigendecomposition of
    the stack is kept, formed on first read (``linalg._psd_eig``) from the range
    check's ``_spectrum`` if that clamped no effect; ``roots`` and ``_root_columns`` read it.
    """

    _spectrum: tuple[Array, Array] | None = None

    def __init__(self, effects: Mapping[Label, object] | Iterable[tuple[Label, object]]):
        labels, matrices = self._checked_items(effects)
        stack, self._spectrum = _effects_spectrum(matrices)
        completion(stack.sum(0), SUM_TOL, SUM_TOL, "sum-to-identity")
        self._set_stack(labels, stack)

    def _set_stack(self, labels: list[Label], stack: Array) -> None:
        self.dim, self.labels = stack.shape[-1], tuple(labels)
        self.stack = read_only(stack)
        self._members = dict(zip(labels, stack))

    @cached_property
    def _eig(self) -> tuple[Array, Array]:
        """``_psd_eig(stack)``: the eigenvectors and root eigenvalues."""
        return _psd_eig(self.stack, self._spectrum)

    @cached_property
    def roots(self) -> Array:
        """Read-only stack of the effects' roots, ``herm_sqrt(stack)``."""
        return read_only(_from_eig(*self._eig))

    @cached_property
    def _root_columns(self) -> tuple[Array, Array]:
        """``root_columns(stack)``, read-only: ``R_x`` with ``F_x = R_x R_x^*``,
        ``(m, d, d)``, and the kept columns (``keep``)."""
        f, keep = _eig_columns(*self._eig)
        return read_only(f), read_only(keep)

    @classmethod
    def _valid(cls, labels: Sequence[Label], stack: Array) -> "Observable":
        """Observable on a stack that is PSD by construction (Kraus-induced
        effects, checked products, mixtures, found joints) with trusted
        labels, never eigensolved; its sum is checked by ``_valid_stack``."""
        stack = _valid_stack(stack)
        obs = cls.__new__(cls)
        obs._set_stack(obs._checked_items(zip(labels, stack), trusted=True)[0], stack)
        return obs

    def _distances(self, groups: Array, other: "Observable") -> Array:
        return np.linalg.norm(self.stack[groups].sum(1) - other.stack, axis=(-2, -1))


def _valid_stack(stack: Array) -> Array:
    """``Observable._valid``'s check of a stack that is PSD by construction,
    ``(m, d, d)`` or a ``(t, m, d, d)`` batch of ``t`` trials' families: the
    Hermitian part, and a sum ``G`` missing 1 by more than ``EFFECT_EIG_TOL``,
    at most ``JOINT_TOL``, completed (``completion``): ``A_x <- P A_x P``,
    ``P = 1 - (G - 1) / 2``.  Each ``A_x`` is below the completed sum, so at
    most 1 up to ``O(||G - 1||^2)``."""
    stack = hermitian_part(stack)
    half = completion(stack.sum(-3), EFFECT_EIG_TOL, JOINT_TOL, "sum-to-identity")
    if half is not None:
        p = np.eye(stack.shape[-1]) - half[..., None, :, :]
        stack = hermitian_part(p @ stack @ p)
    return stack


def _combined(c: Array, s: Array) -> Array:
    """``sum_j c[..., i, j] s[..., j, ...]``: rows of weights ``c`` over the
    items of a stack ``s`` whose leading axes are ``c``'s, in one matmul (the
    numbers of ``tensordot``): post-processing, and a mixture as one row."""
    lead = c.ndim - 1
    out = c @ s.reshape(*s.shape[:lead], -1)
    return out.reshape(*out.shape[:-1], *s.shape[lead:])


def _pair_traces(a: Array, b: Array) -> Array:
    """``tr(a_x b_y)`` for every pair of two stacks, ``(m, n)``, or per trial of
    two batches: the outcome tables of sequential measurements."""
    return np.einsum("...xab,...yba->...xy", a, b).real


def observables_close(a: Observable, b: Observable, tol: float) -> bool:
    return family_distance(a, b) <= tol


class StochasticMatrix:
    """Row-stochastic matrix indexed by source and target labels."""

    def __init__(self, row_labels: Sequence[Label], col_labels: Sequence[Label], matrix: object):
        self.row_labels = check_distinct_labels(row_labels)
        self.col_labels = check_distinct_labels(col_labels)
        m = as_numbers(matrix, float)
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise ShapeError(f"matrix shape {m.shape} does not match label counts")
        if m.min(initial=0.0) < -STOCHASTIC_NEG_TOL:
            raise InvariantViolation("nonnegative-entries", float(-m.min()))
        m = np.clip(m, 0.0, None)
        row_residual = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
        if row_residual > STOCHASTIC_ROW_TOL:
            raise InvariantViolation("row-sums-to-one", row_residual)
        self.matrix = read_only(m)

    def value(self, src: Label, tgt: Label) -> float:
        try:
            i = self.row_labels.index(src)
            j = self.col_labels.index(tgt)
        except ValueError:
            raise LabelError(f"unknown label pair ({src!r}, {tgt!r})") from None
        return float(self.matrix[i, j])


@dataclass(frozen=True)
class ObservableFlags:
    identity: bool
    atomic: bool
    indecomposable: bool
    commutative: bool
    sharp: bool


def _commutator_norms(s: Array, t: Array) -> Array:
    """Frobenius norms of the commutators ``[s_k, t_k]`` of two stacks of
    equal length."""
    return np.linalg.norm(s @ t - t @ s, axis=(-2, -1))


def _projections(s: Array) -> Array:
    """Which matrices of a stack are projections: ``||s_k^2 - s_k|| <= SUM_TOL``."""
    return np.linalg.norm(s @ s - s, axis=(1, 2)) <= SUM_TOL


def obs_effect_of_subset(a: Observable, subset: Iterable[Label]) -> Array:
    """Effect of a set of distinct outcomes, ``sum_{x in X} A_x``."""
    return a.stack[a._positions(subset)].sum(0)


def obs_seq_product(a: Observable, b: Observable) -> Observable:
    """Observable of measuring ``a`` first and ``b`` second, on product labels."""
    products = seq_products(a.roots, b.stack).reshape(-1, a.dim, a.dim)
    return Observable._valid([combine_labels(x, y) for x in a.labels for y in b.labels], products)


def obs_conditioned(a: Observable, b: Observable) -> Observable:
    """Observable ``b`` conditioned by ``a``: outcome ``y`` is ``sum_x A_x o B_y``."""
    return Observable._valid(b.labels, seq_products(a.roots, b.stack).sum(0))


def check_weights(weights: Sequence[float], count: int) -> np.ndarray:
    w = as_numbers(weights, float)
    if w.ndim != 1 or w.size != count:
        raise WeightError(f"expected {count} weights, got shape {w.shape}")
    if w.min(initial=0.0) < -WEIGHT_TOL:
        raise WeightError(f"negative weight {w.min():.3g}")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise WeightError(f"weights sum to {w.sum():.12g}, not 1")
    return np.clip(w, 0.0, None)


def shared_value_space(families: Sequence[LabelledFamily]) -> tuple[Label, ...]:
    """The labels of nonempty ``families`` that share one value-space (the
    same labels in the same order) and one dimension, as a mixture needs."""
    first = families[0]
    kind = type(first).__name__.lower()
    for f in families[1:]:
        if f.labels != first.labels:
            raise LabelError(f"{kind}s do not share a value-space")
        if f.dim != first.dim:
            raise DimensionError(f"{kind}s of mixed dimensions")
    return first.labels


def row_positions(nu: StochasticMatrix, family: LabelledFamily) -> list[int]:
    """The label-order positions of ``family``'s members in the row order of
    ``nu``, whose rows must be exactly the family's labels."""
    if set(nu.row_labels) != set(family.labels):
        kind = type(family).__name__.lower()
        raise ShapeError(f"stochastic matrix rows do not match the {kind}'s labels")
    return family._positions(nu.row_labels)


def obs_convex_combo(weights: Sequence[float], observables: Sequence[Observable]) -> Observable:
    """Outcome-wise mixture of observables sharing one value-space.  An
    empty list fails ``check_weights``: no weights sum to one."""
    w = check_weights(weights, len(observables))
    labels = shared_value_space(observables)
    return Observable._valid(labels, _combined(w[None], np.stack([o.stack for o in observables]))[0])


def obs_post_process(nu: StochasticMatrix, b: Observable) -> Observable:
    """Classical relabeling: outcome ``z`` collects ``sum_y nu[y, z] B_y``."""
    return Observable._valid(nu.col_labels, _combined(nu.matrix.T, b.stack[row_positions(nu, b)]))


def classify_observable(a: Observable) -> ObservableFlags:
    """Structural flags of an observable, each residual within ``SUM_TOL``
    and each rank ``linalg.rank``.

    identity: every effect a multiple of the identity; atomic: every effect a
    rank-one projection; indecomposable: every effect rank one; commutative:
    all pairs of effects commute; sharp: every effect a projection.
    """
    s = a.stack
    scalars = np.trace(s, axis1=1, axis2=2).real[:, None, None] / a.dim * np.eye(a.dim)
    identity = bool(np.all(np.linalg.norm(s - scalars, axis=(1, 2)) <= SUM_TOL))
    rank_one = rank(a._eig[1] ** 2) == 1  # the squared roots: the eigenvalues kept counts
    projections = _projections(s)
    i, j = np.triu_indices(len(s), 1)
    return ObservableFlags(
        identity=identity,
        atomic=bool(np.all(rank_one & projections)),
        indecomposable=bool(np.all(rank_one)),
        commutative=bool(np.all(_commutator_norms(s[i], s[j]) <= SUM_TOL)),
        sharp=bool(np.all(projections)),
    )


def obs_commute(a: Observable, b: Observable) -> bool:
    """True when every effect of ``a`` commutes with every effect of ``b``,
    each commutator within ``SUM_TOL`` in Frobenius norm."""
    _same_dim(a.dim, b.dim)
    i, j = np.indices((len(a), len(b))).reshape(2, -1)
    return bool(np.all(_commutator_norms(a.stack[i], b.stack[j]) <= SUM_TOL))


def complementarity_defects(a: Observable, b: Observable) -> tuple[Array, Array]:
    """Defects of the complementarity identities, as two stacks.

    ``D_ab[x, y] = A_x o B_y - A_x / n`` has shape ``(m, n, d, d)`` and
    ``D_ba[y, x] = B_y o A_x - B_y / m`` has shape ``(n, m, d, d)``, with
    ``m`` and ``n`` the outcome counts of ``a`` and ``b``; both product
    stacks come from ``seq_products`` on the cached roots.
    """
    ea, eb = a.stack, b.stack
    return seq_products(a.roots, eb) - ea[:, None] / len(b), seq_products(b.roots, ea) - eb[:, None] / len(a)


def complementarity_residual(a: Observable, b: Observable) -> float:
    """Largest Frobenius norm among the defects of ``complementarity_defects``."""
    return max(float(np.linalg.norm(d, axis=(-2, -1)).max()) for d in complementarity_defects(a, b))


def obs_complementary(a: Observable, b: Observable) -> bool:
    """A definite value of either observable completely randomizes the other.

    Checks ``A_x o B_y = A_x / n`` and ``B_y o A_x = B_y / m`` for all pairs,
    with ``n`` and ``m`` the outcome counts of ``b`` and ``a``: every defect
    of ``complementarity_defects`` must be within ``SUM_TOL`` in Frobenius
    norm.
    """
    return complementarity_residual(a, b) <= SUM_TOL


def fourier_mub(d: int) -> tuple[Array, Array]:
    """Standard basis together with its discrete-Fourier partner.

    The two bases are mutually unbiased: every squared overlap is ``1/d``.
    """
    if d < 2:
        raise DimensionError(f"need dimension >= 2, got {d}")
    k = np.arange(d)
    f = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    return np.eye(d, dtype=complex), f


def _basis_projections(w: Array) -> Array:
    """``(d, d, d)`` stack of the projections ``w_i w_i^*`` onto the columns of ``w``."""
    return w.T[:, :, None] * w.T.conj()[:, None, :]


def atomic_observable(basis: Array, labels: Sequence[Label] | None = None) -> Observable:
    """Sharp atomic observable built from the columns of a unitary matrix."""
    b = as_matrix(basis)
    d = b.shape[1]
    if labels is None:
        labels = [str(j) for j in range(d)]
    return Observable(zip(labels, _basis_projections(b)))


def identity_observable(weights: Mapping[Label, float], dim: int) -> Observable:
    """Observable whose effects are multiples of the identity."""
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    w = check_weights(list(weights.values()), len(weights))
    return Observable(zip(weights.keys(), w[:, None, None] * np.eye(dim, dtype=complex)))


def obs_coexist_verify(a: Observable, b: Observable, c: Observable, tol: float = SUM_TOL) -> bool:
    """Check that ``c`` is a joint observable for ``a`` and ``b``.

    ``c`` must live on the product value-space; its row sums must reproduce
    ``a`` and its column sums ``b``, within ``tol`` (``marginal_defect``).
    """
    return marginal_defect(a, b, c) <= tol


def obs_triple_joint(a: Observable, b: Observable, c: Observable) -> Observable:
    """Joint observable ``A_x o (B_y o C_z)`` on the triple product space.

    Its marginals are ``a``, ``b`` conditioned by ``a``, and ``c`` conditioned
    by ``b`` then by ``a``.
    """
    _same_dim(a.dim, b.dim, c.dim)
    inner = seq_products(b.roots, c.stack).reshape(-1, a.dim, a.dim)
    products = seq_products(a.roots, inner).reshape(-1, a.dim, a.dim)
    labels = [combine_labels(x, combine_labels(y, z)) for x in a.labels for y in b.labels for z in c.labels]
    return Observable._valid(labels, products)


def joint_probability_table(rho: object, a: Observable, b: Observable) -> Array:
    """Outcome table ``p[x, y] = tr[rho (A_x o B_y)]`` of measuring ``a`` and
    then ``b``, an ``(m, n)`` array in label order.  The products come from
    one ``seq_products`` call, each checked as an effect."""
    r = ensure_state(rho)
    _same_dim(r.shape[0], a.dim, b.dim)
    return _probability_table(r, seq_products(a.roots, b.stack))


def _probability_table(rho: Array, products: Array) -> Array:
    """``tr(rho P_xy)`` of a state and an ``(m, n, d, d)`` stack of products, as an
    ``(m, n)`` table, or per trial of a ``(t, d, d)`` and a ``(t, m, n, d, d)`` batch."""
    flat = products.reshape(*products.shape[:-4], -1, *products.shape[-2:])
    return _pair_traces(rho[..., None, :, :], flat).reshape(products.shape[:-2])


def _set_probability(
    table: Array, a: LabelledFamily, x_set: Iterable[Label], b: LabelledFamily, y_set: Iterable[Label]
) -> float:
    """``_set_probabilities`` of one table, over two sets of distinct labels."""
    x, y = np.zeros(len(a), dtype=bool), np.zeros(len(b), dtype=bool)
    x[a._positions(x_set)], y[b._positions(y_set)] = True, True
    return float(_set_probabilities(table, x, y))


def _set_probabilities(table: Array, x: Array, y: Array) -> Array:
    """Sums of outcome tables of ``a`` then ``b`` (any leading axes) over the
    blocks ``X x Y`` of the boolean outcome masks ``x`` and ``y``, clipped to ``[0, 1]``."""
    return np.clip(np.where(x[..., :, None] & y[..., None, :], table, 0.0).sum((-2, -1)), 0.0, 1.0)


def joint_probability_then(
    rho: object, a: Observable, x_set: Iterable[Label], b: Observable, y_set: Iterable[Label]
) -> float:
    """Probability of seeing ``a`` in ``X`` and then ``b`` in ``Y``: the sum
    of ``joint_probability_table`` over ``X x Y``, which equals
    ``tr[rho (A o B)_{X x Y}]`` as the product is linear in each outcome.
    Neither set may repeat a label."""
    return _set_probability(joint_probability_table(rho, a, b), a, x_set, b, y_set)


def find_joint_observable(a: Observable, b: Observable) -> Observable | None:
    """Heuristic joint-observable search via alternating projections, with
    the budgets ``SEARCH_ITERS`` and ``SEARCH_TOL``; a found joint, completed
    (``Observable._valid``), must pass ``obs_coexist_verify`` within ``JOINT_TOL``.

    None means "unknown": the heuristic can exhibit a joint observable but can
    never certify that none exists.
    """
    _same_dim(a.dim, b.dim)
    blocks = joint_feasibility_search(a.stack, b.stack, SEARCH_ITERS, SEARCH_TOL)
    if blocks is None:
        return None
    labels = [combine_labels(x, y) for x in a.labels for y in b.labels]
    joint = Observable._valid(labels, blocks)
    return joint if obs_coexist_verify(a, b, joint, tol=JOINT_TOL) else None
