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
from .errors import DimensionError, KindError, LabelError, ShapeError, WeightError
from .linalg import EFFECT_EIG_TOL, JOINT_TOL, SEARCH_ITERS, SEARCH_TOL, rank, require
from .linalg import STOCHASTIC_NEG_TOL, STOCHASTIC_ROW_TOL, SUM_TOL, WEIGHT_TOL
from .linalg import Array, _eig_columns, _from_eig, _psd_eig, as_matrix, as_numbers, completion, hermitian_part, identity
from .linalg import norms, read_only

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
    """The labels, each checked by ``check_label``, none repeated (``LabelError`` for a non-collection)."""
    try:
        checked = tuple(check_label(label) for label in labels)
    except TypeError:  # ``labels`` is not iterable; ``check_label`` raises only ``LabelError``
        raise LabelError(f"expected a collection of labels, got {type(labels).__name__}") from None
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
    instrument's on first read); the private constructors also take a stack of
    families over a leading trial axis.  ``_distances`` is the comparison that
    ``family_distance`` and ``marginal_defect`` share: effects, or Kraus stacks.
    """

    dim: int
    labels: tuple[Label, ...]
    _members: dict

    def _checked_items(self, members: Mapping | Iterable[tuple]) -> tuple[list[Label], list]:
        """The checked labels and the members of a mapping or of ``(label, member)`` pairs, else ``KindError``."""
        try:
            items = list(members.items()) if isinstance(members, Mapping) else [(x, m) for x, m in members]
        except (TypeError, ValueError):
            raise KindError(f"expected a mapping or (label, member) pairs, got {type(members).__name__}") from None
        return self._checked_labels([x for x, _ in items]), [m for _, m in items]

    def _checked_labels(self, labels: Iterable[Label], trusted: bool = False) -> list[Label]:
        """The labels, checked valid (unless ``trusted``), distinct and
        nonempty.  Trusted labels come from validated families or stochastic
        matrices, or are generated; flattening can still merge two of them."""
        labels = tuple(labels)
        if not labels:
            raise LabelError(f"an {type(self).__name__.lower()} needs at least one outcome")
        if not trusted or len(set(labels)) != len(labels):  # the full check names a repeat
            labels = check_distinct_labels(labels)
        return list(labels)

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
        stack, self._spectrum = _checked_effects(matrices, len(labels))
        self._set_stack(labels, stack[0])

    def _set_stack(self, labels: list[Label], stack: Array) -> None:
        self.dim, self.labels = stack.shape[-1], tuple(labels)
        self.stack = read_only(stack)
        self._members = dict(zip(labels, stack.swapaxes(0, -3)))  # views (each over the trial axis of a stack)

    @cached_property
    def _eig(self) -> tuple[Array, Array]:
        """``_psd_eig(stack)``: the eigenvectors and root eigenvalues, shaped as the stack (a stack's
        range check keeps its spectrum flat, ``(t m, d)``)."""
        v, r = _psd_eig(self.stack, self._spectrum)
        return v.reshape(self.stack.shape), r.reshape(self.stack.shape[:-1])

    @cached_property
    def roots(self) -> Array:
        """Read-only stack of the effects' roots, ``herm_sqrt(stack)``."""
        return read_only(_from_eig(*self._eig))

    @cached_property
    def _root_columns(self) -> tuple[Array, Array]:
        """``root_columns(stack)``, read-only: ``R_x`` with ``F_x = R_x R_x^*``,
        ``(m, d, d)``, and the kept columns (``keep``); of a stack, those any
        trial keeps (a column another trial does not keep is zero there)."""
        f, keep = _eig_columns(*self._eig)
        return read_only(f), read_only(keep.any(0) if keep.ndim > 2 else keep)

    @classmethod
    def _valid(cls, labels: Sequence[Label], stack: Array) -> "Observable":
        """Observable on a stack that is PSD by construction (Kraus-induced
        effects, checked products, mixtures, found joints) with trusted
        labels, never eigensolved; its sum is checked by ``_valid_stack``."""
        return cls._checked(labels, _valid_stack(stack), None)

    @classmethod
    def _checked(cls, labels: Sequence[Label], stack: Array, spectrum: tuple[Array, Array] | None) -> "Observable":
        """Observable on one checked family ``(m, d, d)``, or a ``(t, m, d, d)`` stack of
        them, with trusted labels: one that ``_checked_effects`` passed, with that check's
        ``spectrum``, as ``__init__`` builds it, or one that ``_valid_stack`` passed, with none."""
        obs = cls.__new__(cls)
        obs._set_stack(obs._checked_labels(labels, trusted=True), stack)
        obs._spectrum = spectrum
        return obs

    def _distances(self, groups: Array, other: "Observable") -> Array:
        return norms(self.stack[..., groups, :, :].sum(-3) - other.stack)


def _checked_effects(matrices: object, m: int) -> tuple[Array, tuple[Array, Array] | None]:
    """``Observable``'s checks of its effects, a ``(k, d, d)`` stack of ``k / m``
    families of ``m`` (one, or a batch's): the range of each effect, from one
    ``_effects_spectrum`` call, and each family's sum within ``SUM_TOL``.  The stack
    as ``(k / m, m, d, d)``, and the range check's spectrum (``_effects_spectrum``)."""
    stack, spectrum = _effects_spectrum(matrices)
    stack = stack.reshape(-1, m, *stack.shape[1:])
    completion(stack.sum(1), SUM_TOL, SUM_TOL, "sum-to-identity")
    return stack, spectrum


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
        p = identity(stack.shape[-1]) - half[..., None, :, :]
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
    """Row-stochastic matrix indexed by source and target labels, or a ``(t, m, n)``
    stack of them over a leading trial axis with one set of each, every trial's rows checked."""

    def __init__(self, row_labels: Sequence[Label], col_labels: Sequence[Label], matrix: object):
        self.row_labels = check_distinct_labels(row_labels)
        if not self.row_labels:
            raise LabelError("a stochastic matrix needs at least one row")
        self.col_labels = check_distinct_labels(col_labels)
        m = as_numbers(matrix, float)
        if m.shape[-2:] != (len(self.row_labels), len(self.col_labels)) or m.ndim > 3:
            raise ShapeError(f"matrix shape {m.shape} does not match label counts")
        require("nonnegative-entries", -m.min(initial=0.0), STOCHASTIC_NEG_TOL)
        m = np.clip(m, 0.0, None)
        require("row-sums-to-one", np.max(np.abs(m.sum(axis=-1) - 1.0)), STOCHASTIC_ROW_TOL)
        self.matrix = read_only(m)

    def value(self, src: Label, tgt: Label) -> float | Array:
        """The entry at a pair of labels (of a stack, each trial's)."""
        try:
            i = self.row_labels.index(src)
            j = self.col_labels.index(tgt)
        except ValueError:
            raise LabelError(f"unknown label pair ({src!r}, {tgt!r})") from None
        return float(self.matrix[i, j]) if self.matrix.ndim == 2 else self.matrix[:, i, j]


@dataclass(frozen=True)
class ObservableFlags:
    identity: bool
    atomic: bool
    indecomposable: bool
    commutative: bool
    sharp: bool


def _commuting(s: Array, t: Array) -> Array:
    """Whether every matrix of a stack ``s`` commutes with every one of ``t``, each commutator
    within ``SUM_TOL`` in Frobenius norm, or per trial of two batches."""
    s, t = s[..., :, None, :, :], t[..., None, :, :, :]
    return (norms(s @ t - t @ s) <= SUM_TOL).all((-2, -1))


def _projections(s: Array) -> Array:
    """Which matrices of a stack are projections, ``||s_k^2 - s_k|| <= SUM_TOL``, or per trial of a batch."""
    return norms(s @ s - s) <= SUM_TOL


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


def check_weights(weights: Sequence[float], count: int, trials: bool = False) -> np.ndarray:
    """``count`` convex weights (with ``trials``, or a ``(t, count)`` stack over a trial axis), clipped at 0."""
    w = as_numbers(weights, float)
    if w.shape[-1:] != (count,) or w.ndim > 1 + trials:
        raise WeightError(f"expected {count} weights, got shape {w.shape}")
    if not w.min(initial=0.0) >= -WEIGHT_TOL:
        raise WeightError(f"negative weight {w.min():.3g}")
    sums = w.sum(-1)
    if not (np.abs(sums - 1.0) <= WEIGHT_TOL).all():
        raise WeightError(f"weights sum to {np.ravel(sums)[np.abs(sums - 1.0).argmax()]:.12g}, not 1")
    return np.maximum(w, 0.0)


def _mixture_weights(weights: Sequence[float], leads: Sequence[tuple[int, ...]]) -> np.ndarray:
    """A mixture's ``check_weights``: one weight per family, or ``(t, k)`` weights of families
    each stacked over the same ``t`` trials (``leads``, each family's leading shape)."""
    w = check_weights(weights, len(leads), trials=True)
    if w.ndim == 2 and any(lead != w.shape[:1] for lead in leads):
        raise WeightError(f"expected {len(leads)} weights, got shape {w.shape}")
    return w


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
    ``nu``, whose rows must be exactly the family's labels.  Both label sets
    were checked distinct when built, so they are not checked again."""
    if set(nu.row_labels) != set(family.labels):
        kind = type(family).__name__.lower()
        raise ShapeError(f"stochastic matrix rows do not match the {kind}'s labels")
    order = {x: k for k, x in enumerate(family.labels)}
    return [order[x] for x in nu.row_labels]


def obs_convex_combo(weights: Sequence[float], observables: Sequence[Observable]) -> Observable:
    """Outcome-wise mixture of observables sharing one value-space; ``(t, k)``
    weights mix stacks of ``t`` trials' observables trial by trial.  An
    empty list fails ``check_weights``: no weights sum to one."""
    w = _mixture_weights(weights, [o.stack.shape[:-3] for o in observables])
    labels = shared_value_space(observables)
    stack = np.stack([o.stack for o in observables], axis=w.ndim - 1)  # the mixed axis, after any trial axis
    return Observable._valid(labels, _combined(w[..., None, :], stack).squeeze(w.ndim - 1))


def obs_post_process(nu: StochasticMatrix, b: Observable) -> Observable:
    """Classical relabeling: outcome ``z`` collects ``sum_y nu[y, z] B_y``, of
    each trial of a stack with one ``nu``, or with a stack of ``nu`` trial by trial."""
    rows, c = b.stack[..., row_positions(nu, b), :, :], nu.matrix.swapaxes(-1, -2)
    if c.ndim == 3:  # each trial's rows of one family or of a stack of them
        return Observable._valid(nu.col_labels, _combined(c, np.broadcast_to(rows, (len(c), *rows.shape[-3:]))))
    return Observable._valid(nu.col_labels, _combined(c, rows.swapaxes(0, -3)).swapaxes(0, -3))  # outcomes first


def classify_observable(a: Observable) -> ObservableFlags:
    """Structural flags of an observable, each residual within ``SUM_TOL``
    and each rank ``linalg.rank``.

    identity: every effect a multiple of the identity; atomic: every effect a
    rank-one projection; indecomposable: every effect rank one; commutative:
    all pairs of effects commute; sharp: every effect a projection.  Of a
    stack, a flag holds when it holds for every trial.
    """
    s = a.stack
    scalars = np.trace(s, axis1=-2, axis2=-1).real[..., None, None] / a.dim * np.eye(a.dim)
    rank_one = rank(a._eig[1] ** 2) == 1  # the squared roots: the eigenvalues kept counts
    projections = _projections(s)
    return ObservableFlags(
        identity=bool((norms(s - scalars) <= SUM_TOL).all()),
        atomic=bool((rank_one & projections).all()),
        indecomposable=bool(rank_one.all()),
        commutative=bool(_commuting(s, s).all()),
        sharp=bool(projections.all()),
    )


def obs_commute(a: Observable, b: Observable) -> bool:
    """True when every effect of ``a`` commutes with every effect of ``b``,
    each commutator within ``SUM_TOL`` in Frobenius norm."""
    _same_dim(a.dim, b.dim)
    return bool(_commuting(a.stack, b.stack).all())  # of stacks, every trial's


def complementarity_defects(a: Observable, b: Observable) -> tuple[Array, Array]:
    """Defects of the complementarity identities, as two stacks.

    ``D_ab[x, y] = A_x o B_y - A_x / n`` has shape ``(m, n, d, d)`` and
    ``D_ba[y, x] = B_y o A_x - B_y / m`` has shape ``(n, m, d, d)``, with
    ``m`` and ``n`` the outcome counts of ``a`` and ``b``; both product
    stacks come from ``seq_products`` on the cached roots.
    """
    return _defects(a.stack, a.roots, b.stack, b.roots)


def _defects(ea: Array, ra: Array, eb: Array, rb: Array) -> tuple[Array, Array]:
    """``complementarity_defects`` of two observables' effects and roots, or per trial of two batches;
    of one shape, both directions from one ``seq_products`` call on the pair stacked."""
    m, n = ea.shape[-3], eb.shape[-3]
    if ea.shape != eb.shape:
        return seq_products(ra, eb) - ea[..., None, :, :] / n, seq_products(rb, ea) - eb[..., None, :, :] / m
    both = seq_products(np.stack([ra, rb]), np.stack([eb, ea])) - np.stack([ea, eb])[..., None, :, :] / n
    return both[0], both[1]


def complementarity_residual(a: Observable, b: Observable) -> float:
    """Largest Frobenius norm among the defects of ``complementarity_defects``."""
    return float(_defect_norms(complementarity_defects(a, b)))


def _defect_norms(defects: tuple[Array, Array]) -> Array:
    """``complementarity_residual`` of the two defect stacks, or per trial of two batches."""
    return np.maximum(*(norms(d).max((-2, -1)) for d in defects))


def _frobenius_complementary(defects: tuple[Array, Array]) -> Array:
    """``obs_complementary``'s rule on the two defect stacks, or per trial of two batches."""
    return _defect_norms(defects) <= SUM_TOL


def obs_complementary(a: Observable, b: Observable) -> bool:
    """A definite value of either observable completely randomizes the other.

    Checks ``A_x o B_y = A_x / n`` and ``B_y o A_x = B_y / m`` for all pairs,
    with ``n`` and ``m`` the outcome counts of ``b`` and ``a``: every defect
    of ``complementarity_defects`` must be within ``SUM_TOL`` in Frobenius
    norm.
    """
    return bool(_frobenius_complementary(complementarity_defects(a, b)))


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
    """``(d, d, d)`` stack of the projections ``w_i w_i^*`` onto the columns of ``w``, or per trial of a batch."""
    columns = w.swapaxes(-1, -2)
    return columns[..., :, :, None] * columns.conj()[..., :, None, :]


def atomic_observable(basis: Array, labels: Sequence[Label] | None = None) -> Observable:
    """Sharp atomic observable built from the columns of a unitary matrix."""
    b = as_matrix(basis)
    d = b.shape[1]
    if labels is None:
        labels = [str(j) for j in range(d)]
    return Observable(zip(labels, _basis_projections(b)))


def identity_observable(weights: Mapping[Label, float], dim: int) -> Observable:
    """Observable whose effects are multiples of the identity, ``w_x 1``, checked as ``Observable``
    checks them but with no eigensolve: their spectrum is closed form (``w_x``, eigenvectors ``1``).
    A weight may be a ``(t,)`` array over a trial axis, for a stack of ``t`` such observables."""
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    w = check_weights(as_numbers(list(weights.values()), float).T, len(weights), trials=True)
    labels = check_distinct_labels(weights)
    stack = w[..., None, None] * np.eye(dim, dtype=complex)
    completion(stack.sum(-3), SUM_TOL, SUM_TOL, "sum-to-identity")
    spectrum = np.broadcast_to(w[..., None], (*w.shape, dim)), np.broadcast_to(np.eye(dim, dtype=complex), stack.shape)
    return Observable._checked(labels, stack, spectrum)


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
