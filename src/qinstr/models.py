"""Measurement models: base-probe interactions and the instruments they measure.

A model couples the base system to a probe through a channel, then reads a
pointer observable off the probe; tracing out the probe leaves an instrument
on the base system.  Interaction channels are plain unitary matrices or
operations.  A swap model keeps its unitary; a dilation keeps its isometry
and a von Neumann model its two bases, and each forms its unitary only when
something reads it.

A model forms what it derives from its parts on first read (``FIMM``);
``model_instrument`` only reads its pointer's roots and its interaction on
the probe state's support (``W``), which a dilation and a von Neumann model
hold from construction, and of a dilation its slot map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .effects import ensure_state
from .errors import (
    DimensionError,
    KindError,
    LabelError,
    NotCommutative,
    NotIsometry,
    NotNormal,
)
from .instruments import Instrument, Operation, _assembled, _effects, _operators, _outputs, _reduced, ensure_channel
from .instruments import instr_post_process
from .linalg import BASIS_TOL, DIAG_TOL, EIGENBASIS_ATTEMPTS, GRAM_FLOOR, LUDERS_TOL, MODEL_TOL, NORMAL_SUM_TOL, ORTHO_TOL
from .linalg import Array, _phase_fix, as_matrix, complete_to_unitary, frob, herm_eig, hermitian_part
from .linalg import RANK_ONE_TOL, is_unitary, read_only, root_factors
from .observables import (
    Label,
    Observable,
    StochasticMatrix,
    _basis_projections,
    _projections,
    classify_observable,
)


def _phase_fixed_unit_vectors(m: Array) -> Array:
    """Principal eigenvectors of a ``(k, d, d)`` stack of rank-one PSD
    matrices (within ``RANK_ONE_TOL``), phase-fixed, as the columns of a
    ``(d, k)`` matrix."""
    w, v = herm_eig(m)
    top = w[:, -1]
    if np.any(top <= RANK_ONE_TOL) or (w.shape[1] > 1 and np.any(w[:, -2] > RANK_ONE_TOL * np.maximum(1.0, top))):
        raise NotNormal("matrix is not rank one within tolerance")
    return _phase_fix(v[:, :, -1].T)


class FIMM:
    """Finite measurement model: base and probe spaces, initial probe state,
    interaction channel on the composite space, and pointer observable.

    ``interaction`` is kept as given, a unitary matrix or an operation; the
    model forms what it derives on first read: ``couplings``, its ``(c, n,
    n)`` Kraus stack (``u[None]`` for a unitary ``u``); ``sharp``; the root
    ``_probe_root`` of ``eta``; and ``_restricted``, ``W_c = U_c (1 (x)
    R_eta)``, ``(c, d dk, d, rank eta)``.  The pointer holds its own roots
    (``Observable._root_columns``).  A dilation holds its polished isometry
    (``dilate_instrument``) as ``W``, its labels and ``_owner``, each probe
    slot's outcome, and forms the rest on read.  A von Neumann model
    (``VonNeumannModel.to_fimm``) holds its probe root ``phi_0``, its ``W``
    in closed form and its ``_bases``, from which it forms its unitary on
    read.
    """

    _owner: Array | None = None
    _bases: tuple[Array, Array] | None = None

    def __init__(
        self,
        dim_base: int,
        dim_probe: int,
        probe_state: object,
        interaction: object,
        pointer: Observable,
    ):
        self._set_parts(dim_base, dim_probe, ensure_state(probe_state), pointer)
        n = self.dim_base * self.dim_probe
        if isinstance(interaction, Operation):
            if interaction.dim != n:
                raise DimensionError(f"interaction dim {interaction.dim}, expected {n}")
            ensure_channel(interaction)
            self.interaction = interaction
        else:
            u = as_matrix(interaction)
            if u.shape != (n, n):
                raise DimensionError(f"interaction shape {u.shape}, expected {(n, n)}")
            if not is_unitary(u):
                raise NotIsometry("interaction matrix is not unitary")
            self.interaction = read_only(u)

    @classmethod
    def _unitary(cls, dim_base: int, dim_probe: int, probe_state: Array, u: Array, pointer: Observable) -> "FIMM":
        """Model on an interaction ``u`` that is unitary of the right shape by
        construction (the swap) and a probe state that is a state by
        construction or already checked: neither is checked again."""
        m = cls.__new__(cls)
        m._set_parts(dim_base, dim_probe, probe_state, pointer)
        m.interaction = read_only(u)
        return m

    @classmethod
    def _dilation(cls, iso: Array, labels: Sequence[Label], owner: Array) -> "FIMM":
        """Model with probe state ``|0><0|`` on an isometry ``iso``, its ``W``
        (``(d n) x d``), where probe slot ``s`` is outcome ``owner[s]``'s."""
        m = cls.__new__(cls)
        m.dim_base, m.dim_probe, m._probe_root = iso.shape[1], len(owner), np.eye(len(owner), 1, dtype=complex)
        m._restricted = read_only(iso.reshape(1, *iso.shape, 1))
        m._labels, m._owner = tuple(labels), owner
        return m

    @classmethod
    def _pairing(cls, base: Array, probe: Array, pointer: Observable) -> "FIMM":
        """Basis-pairing model of bases checked by ``_checked_bases``: probe
        root ``phi_0`` and ``W[(a, k), i] = sum_j psi_j[a] phi_j[k]
        conj(psi_j[i])``, the unitary's columns ``(i, 0)``, as one ``(d^2, d)
        (d, d)`` product."""
        d = base.shape[0]
        phi0 = probe[:, 0]
        m = cls.__new__(cls)
        eta = hermitian_part(np.outer(phi0, phi0.conj()))  # exact: the product leaves ~1e-17 imaginary diagonals
        m._set_parts(d, d, eta, pointer)
        m._bases, m._probe_root = (base, probe), phi0[:, None]
        w = (base[:, None, :] * probe[None]).reshape(d * d, d) @ base.conj().T
        m._restricted = read_only(w.reshape(1, d * d, d, 1))
        return m

    def _repointed(self, labels: Sequence[Label], owner: Array) -> "FIMM":
        """A dilation of this dilation's isometry, shared, with another
        slot-to-outcome map (``_dilation``)."""
        return self._dilation(self._restricted[0, :, :, 0], labels, owner)

    @cached_property
    def pointer(self) -> Observable:
        """A dilation's 0/1 projections onto each outcome's slots."""
        slots = self._owner == np.arange(len(self._labels))[:, None]
        return Observable._valid(self._labels, slots[:, None, :] * np.eye(self.dim_probe, dtype=complex))

    @cached_property
    def probe_state(self) -> Array:
        """A dilation's ``|0><0|``."""
        return read_only(self._probe_root @ self._probe_root.T)

    @cached_property
    def interaction(self) -> Array:
        """A von Neumann model's pairing unitary of its bases, or a
        dilation's unitary: its isometry in the columns ``(k, 0)`` and the
        completion in the others.  Other models set it at construction."""
        if self._bases is not None:
            return read_only(_pairing_unitary(*self._bases))
        d, n = self.dim_base, self.dim_probe
        first_slot = np.arange(d * n) % n == 0
        sources = np.concatenate([np.flatnonzero(first_slot), np.flatnonzero(~first_slot)])
        u = np.empty((d * n, d * n), dtype=complex)
        u[:, sources] = complete_to_unitary(self._restricted[0, :, :, 0].T, d * n)
        return read_only(u)

    @cached_property
    def couplings(self) -> Array:
        """An operation's Kraus stack, or ``u[None]`` for a unitary ``u``."""
        u = self.interaction
        return u._kraus if isinstance(u, Operation) else u[None]

    @cached_property
    def _probe_root(self) -> Array:
        """``R_eta`` with ``eta = R_eta R_eta^*``."""
        return root_factors(self.probe_state[None])[0]

    @cached_property
    def _restricted(self) -> Array:
        """``W``: the couplings times the probe state's root factor."""
        return read_only(self.couplings.reshape(*self.couplings.shape[:2], self.dim_base, -1) @ self._probe_root)

    @cached_property
    def sharp(self) -> bool:
        """Whether every pointer effect is a projection, as a dilation's are."""
        return self._owner is not None or bool(_projections(self.pointer.stack).all())

    def _set_parts(self, dim_base: int, dim_probe: int, eta: Array, pointer: Observable) -> None:
        """Check and set everything but the interaction, given a probe state
        that is already checked (``ensure_state``) or a state by construction."""
        if dim_base < 1 or dim_probe < 1:
            raise DimensionError("dimensions must be at least 1")
        self.dim_base = int(dim_base)
        self.dim_probe = int(dim_probe)
        if eta.shape[0] != self.dim_probe:
            raise DimensionError(f"probe state dim {eta.shape[0]}, expected {self.dim_probe}")
        self.probe_state = read_only(eta)
        if _checked_pointer(pointer).dim != self.dim_probe:
            raise DimensionError(f"pointer dim {pointer.dim}, expected {self.dim_probe}")
        self.pointer, self._labels = pointer, pointer.labels

    def apply_interaction(self, mat: Array) -> Array:
        """The interaction applied to a base (x) probe matrix: ``sum_k U_k mat U_k^*`` over the couplings."""
        return _outputs(self.couplings[None], mat)[0]

    def __repr__(self) -> str:
        return (
            f"FIMM(dim_base={self.dim_base}, dim_probe={self.dim_probe}, "
            f"pointer_labels={list(self._labels)!r}, sharp={self.sharp})"
        )


def _checked_pointer(pointer: object) -> Observable:
    """The pointer, which must be an ``Observable`` (``KindError`` otherwise)."""
    if not isinstance(pointer, Observable):
        raise KindError(f"pointer must be an Observable, got {type(pointer).__name__}")
    return pointer


def model_instrument(m: FIMM) -> Instrument:
    """Instrument measured by a model, in closed Kraus form.

    Outcome ``x`` maps ``rho`` to the probe-trace of
    ``nu(rho (x) eta) (1 (x) F_x)``.  For ``nu = U . U^*`` and
    ``P[(i, a), (k, m)] = <a, k| U |i, m>`` its Choi matrix is
    ``P (F_x^T (x) eta) P^*``, so the columns of ``P (R_F (x) R_eta)`` are
    the ``vec(K^T)`` of Kraus operators, where ``F_x^T = R_F R_F^*`` and
    ``eta = R_eta R_eta^*``, one set per Kraus operator of an interaction
    given as an operation.  Only ``W = P (1 (x) R_eta)`` and the pointer's
    kept root columns (``Observable._root_columns``, conjugated: ``R_F =
    conj(R_x)``) are read, in one batched product; a dilation's outcome
    ``x`` has its slots' operators of the isometry.  Cut to ``d^2``
    operators, they are completed up to ``MODEL_TOL`` (``_assembled``).
    """
    d, dk = m.dim_base, m.dim_probe
    if m._owner is not None:
        slots = m._restricted[0, :, :, 0].reshape(d, dk, d).swapaxes(0, 1)  # slots[s] = W[(a, s), i]
        counts = np.bincount(m._owner, minlength=len(m._labels))
        return _assembled(m._labels, slots[np.argsort(m._owner, kind="stable")], counts)
    f, keep = m.pointer._root_columns
    roots = f.conj()  # F_x^T = conj(F_x) = conj(R_x) conj(R_x)^*
    w = m._restricted
    q = w.reshape(len(w), d, dk, d, -1).transpose(0, 4, 3, 1, 2).reshape(len(w), -1, d * d, dk)  # [c, s, (i, a), k]
    kraus = (q @ roots[:, None, None]).reshape(len(roots), len(w), -1, d, d, roots.shape[-1]).transpose(0, 1, 5, 2, 4, 3)
    valid = keep[:, None, :, None] & np.ones(kraus.shape[:4], dtype=bool)
    return _assembled(m._labels, kraus[valid], keep.sum(1) * len(w) * kraus.shape[3])


def swap_unitary(d: int) -> Array:
    """Unitary exchanging the two factors of a d-by-d composite space."""
    if d < 1:
        raise DimensionError("dimension must be at least 1")
    return np.eye(d * d, dtype=complex).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)


def trivial_fimm(eta: object, pointer: Observable) -> FIMM:
    """Swap-interaction model; it measures the instrument that discards the
    input and prepares ``eta`` with probabilities read from ``pointer``."""
    st = ensure_state(eta)
    d = st.shape[0]
    if _checked_pointer(pointer).dim != d:
        raise DimensionError(f"pointer dim {pointer.dim}, state dim {d}")
    return FIMM._unitary(d, d, st, swap_unitary(d), pointer)


def _checked_bases(base_basis: object, probe_basis: object) -> tuple[Array, Array]:
    """Both bases as complex matrices: square, unitary and of equal dimension."""
    base = as_matrix(base_basis)
    probe = as_matrix(probe_basis)
    if base.shape != probe.shape or base.shape[0] != base.shape[1]:
        raise DimensionError("bases must be square and of equal dimension")
    if not is_unitary(base, BASIS_TOL) or not is_unitary(probe, BASIS_TOL):
        raise NotIsometry("bases must be unitary")
    return base, probe


def von_neumann_unitary(base_basis: object, probe_basis: object) -> Array:
    """Basis-pairing unitary: it copies the base-basis index into the probe.

    Sends ``psi_i (x) phi_0`` to ``psi_i (x) phi_i``, swaps back
    ``psi_i (x) phi_i`` to ``psi_i (x) phi_0`` for ``i != 0``, and fixes all
    other basis pairs; an involution on the product basis.
    """
    return _pairing_unitary(*_checked_bases(base_basis, probe_basis))


def _pairing_unitary(base: Array, probe: Array) -> Array:
    """``von_neumann_unitary`` of bases already checked by ``_checked_bases``:
    ``sum_i |psi_i><psi_i| (x) V_i`` for the probe permutations ``V_i``, as
    one ``(d^2, d) (d, d^2)`` product."""
    d = base.shape[0]
    target = np.tile(np.arange(d), (d, 1))  # target[i, j]: where probe slot j goes under psi_i
    target[:, 0] = np.arange(d)
    target[np.arange(1, d), np.arange(1, d)] = 0
    perms = probe[:, target].transpose(1, 0, 2) @ probe.conj().T  # perms[i] = V_i
    u = _basis_projections(base).reshape(d, d * d).T @ perms.reshape(d, d * d)  # u[(a, b), (k, l)]
    return u.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


@dataclass(frozen=True)
class VonNeumannModel:
    """Model with a pure probe state and a basis-pairing unitary."""

    base_basis: Array
    probe_basis: Array
    pointer: Observable

    def __post_init__(self):
        base, probe = _checked_bases(self.base_basis, self.probe_basis)
        if _checked_pointer(self.pointer).dim != probe.shape[0]:
            raise DimensionError("pointer dimension does not match the probe basis")
        for name, basis in (("base_basis", base), ("probe_basis", probe)):
            object.__setattr__(self, name, read_only(basis.copy()))

    @property
    def dim(self) -> int:
        return self.base_basis.shape[0]

    def to_fimm(self) -> FIMM:
        """The model as a ``FIMM`` (``FIMM._pairing``): no eigensolve, and
        the pairing unitary formed only when something reads it."""
        return FIMM._pairing(self.base_basis, self.probe_basis, self.pointer)


def vn_measured(model: VonNeumannModel) -> tuple[Instrument, Operation, Observable]:
    """Closed forms of the instrument, channel, and observable a
    basis-pairing model measures.

    Outcome ``x`` maps ``rho`` to
    ``sum_ij <psi_i, rho psi_j> <phi_j, F_x phi_i> |psi_i><psi_j|``, a Schur
    multiplier in the base basis.  With ``h[x, i, j] = <phi_i, F_x phi_j>``
    and the pointer's root columns ``F_x = R_x R_x^*``, ``f_x = phi^T
    conj(R_x)`` has ``h_x^T = f_x f_x^*``, so the Kraus operators are ``W
    diag(f_x[:, l]) W^*``, and ``h[x, i, i] = sum_l |f_x[i, l]|^2``: the
    pointer's one kept eigendecomposition is the only one.  The channel
    dephases in the base basis; the observable mixes base-basis projections
    with pointer diagonal weights.
    """
    w = model.base_basis
    labels = model.pointer.labels
    base_projs = read_only(_basis_projections(w))
    channel = Operation._unchecked(base_projs)  # projections summing to 1: a channel

    r, keep = model.pointer._root_columns
    f = model.probe_basis.T @ r.conj()
    kraus = (w * f.swapaxes(1, 2)[:, :, None, :]) @ w.conj().T  # kraus[x, l] = W diag(f_x[:, l]) W^*
    effects = np.einsum("xi,iab->xab", (f.real**2 + f.imag**2).sum(2), base_projs)
    return _assembled(labels, kraus[keep], keep.sum(1)), channel, Observable._valid(labels, effects)


def vn_model_for_commutative(a: Observable, rng: np.random.Generator | None = None) -> VonNeumannModel:
    """Basis-pairing model measuring a commutative observable.

    The shared eigenbasis comes from a random real combination of the
    effects; a draw is accepted only if it actually diagonalizes every
    effect, within ``DIAG_TOL`` (collisions among eigenvalues force a redraw
    unless the effects are scalar on the colliding block), and at most
    ``EIGENBASIS_ATTEMPTS`` draws are made.
    """
    if not classify_observable(a).commutative:
        raise NotCommutative("observable effects do not pairwise commute")
    if rng is None:
        rng = np.random.default_rng(20210)
    d, eye = a.dim, np.eye(a.dim)
    for _ in range(EIGENBASIS_ATTEMPTS):
        _, v = herm_eig(hermitian_part((rng.standard_normal(len(a))[:, None, None] * a.stack).sum(0)))
        rotated = v.conj().T @ a.stack @ v
        diagonals = np.diagonal(rotated, axis1=1, axis2=2)
        if np.linalg.norm(rotated - diagonals[:, :, None] * eye, axis=(1, 2)).max() <= DIAG_TOL * max(1.0, d):
            pointer = Observable(zip(a.labels, (diagonals.real[:, :, None] * eye).astype(complex)))
            return VonNeumannModel(v, np.eye(d, dtype=complex), pointer)
    raise NotCommutative("failed to find a joint eigenbasis")


def dilate_instrument(instr: Instrument) -> FIMM:
    """Realize an instrument as a sharp measurement model.

    The probe carries one basis slot per Kraus operator (outcome-major),
    each outcome's cut to its Choi rank (``instruments._reduced``).  The
    isometry ``W`` stacking the operators, whose Gram matrix ``G`` is the
    effect sum, is polished by one Newton-Schulz step ``W (3 - G) / 2``,
    which leaves ``||W^* W - 1|| <= 3/4 ||G - 1||^2`` plus rounding, and
    completed to a unitary on first read (``FIMM.interaction``); the
    pointer coarse-grains slots by outcome, so it is atomic exactly when
    every outcome has a single Kraus operator.
    """
    d = instr.dim
    kraus, counts = _reduced(instr.kraus, instr.counts, 1)
    iso = _operators(kraus, counts).transpose(1, 0, 2).reshape(-1, d)
    defect = iso.conj().T @ iso - np.eye(d)
    if not frob(defect) <= 1.0 - GRAM_FLOOR:  # then every eigenvalue of G is at least GRAM_FLOOR
        raise NotIsometry("stacked Kraus columns are numerically rank deficient")
    iso = iso - iso @ (defect / 2.0)  # orthonormal to rounding before completion
    if frob(iso.conj().T @ iso - np.eye(d)) > ORTHO_TOL * d:
        raise NotIsometry("polished Kraus columns are not orthonormal")

    return FIMM._dilation(iso, instr.labels, np.repeat(np.arange(len(counts)), counts))


def normal_fimm_kraus_extract(m: FIMM) -> dict[Label, Array]:
    """Kraus operators of a normal model (pure probe, unitary interaction,
    atomic pointer), one per pointer outcome.

    ``S_x[j, i] = <e_j (x) phi_x, U (e_i (x) phi)>`` with ``phi`` the initial
    probe vector and ``phi_x`` the pointer atoms, both phase-fixed.  Of the
    interaction only ``W`` is read (``FIMM``), whose probe root is ``phi``
    times a phase, divided out here: a dilation completes no unitary.
    """
    w = m._restricted
    if len(w) != 1:  # one coupling is unitary: by construction or checked at build
        raise NotNormal("interaction channel is not unitary")
    try:
        vectors = _phase_fixed_unit_vectors(np.concatenate([m.probe_state[None], m.pointer.stack]))
    except NotNormal as exc:
        raise NotNormal(f"model is not normal: {exc}") from exc

    d, dk = m.dim_base, m.dim_probe
    # evolved[j, k, i] = <e_j (x) e_k, U (e_i (x) phi)>, from W's column of the top root r = <phi, r> phi
    evolved = w[0, :, :, -1].reshape(d, dk, d) / np.vdot(vectors[:, 0], m._probe_root[:, -1])
    ops = np.einsum("jki,kx->xji", evolved, vectors[:, 1:].conj())
    residual = frob(_effects(ops[None])[0] - np.eye(d))
    if residual > NORMAL_SUM_TOL * max(1.0, d):
        raise NotNormal(f"extracted operators miss completeness by {residual:.3g}")
    return dict(zip(m.pointer.labels, ops))


def luders_positivity_check(m: FIMM) -> bool:
    """True when every extracted Kraus operator is positive semidefinite,
    within ``LUDERS_TOL``.

    A passing model measures the measurement-update instrument of its own
    observable (outcome maps ``rho -> sqrt(A_x) rho sqrt(A_x)``).
    """
    s = np.stack(list(normal_fimm_kraus_extract(m).values()))
    scale = np.maximum(1.0, np.linalg.norm(s, axis=(1, 2)))
    if np.any(np.linalg.norm(s - s.conj().swapaxes(1, 2), axis=(1, 2)) > LUDERS_TOL * scale):
        return False
    return bool(np.linalg.eigvalsh(hermitian_part(s))[:, 0].min() >= -LUDERS_TOL)


def _marginal_maps(labels: tuple[Label, ...]) -> tuple[StochasticMatrix, StochasticMatrix]:
    """The 0/1 matrices that coarse-grain product labels onto their first
    factor and onto the rest, each factor's labels in order of appearance."""
    pairs = []
    for label in labels:
        if not isinstance(label, tuple) or len(label) < 2:
            raise LabelError(f"label {label!r} is not a product label")
        pairs.append((label[0], label[1] if len(label) == 2 else label[1:]))

    def onto(side: int) -> StochasticMatrix:
        targets = list(dict.fromkeys(p[side] for p in pairs))
        return StochasticMatrix(labels, targets, [[float(p[side] == t) for t in targets] for p in pairs])

    return onto(0), onto(1)


def simultaneous_fimms(joint: Instrument) -> tuple[FIMM, FIMM]:
    """Two models that differ only in their pointers and measure the two
    marginals of a joint instrument.

    The joint instrument is dilated with a sharp pointer over the product
    labels; each returned model coarse-grains that pointer over one factor,
    so the two pointers commute.
    """
    maps = _marginal_maps(joint.labels)
    m = dilate_instrument(joint)
    return tuple(m._repointed(nu.col_labels, nu.matrix.argmax(axis=1)[m._owner]) for nu in maps)


def marginal_instruments(joint: Instrument) -> tuple[Instrument, Instrument]:
    """The two marginals of an instrument on a product value-space: its
    post-processings by the 0/1 matrices of ``_marginal_maps``."""
    first, second = _marginal_maps(joint.labels)
    return instr_post_process(first, joint), instr_post_process(second, joint)
