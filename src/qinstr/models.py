"""Measurement models: base-probe interactions and the instruments they measure.

A model couples the base system to a probe through a channel, then reads a
pointer observable off the probe; tracing out the probe leaves an instrument
on the base system.  Interaction channels are plain unitary matrices or
operations.  A swap model keeps its unitary; a dilation keeps its isometry
and a von Neumann model (``VonNeumannModel``, a ``FIMM``) its two bases, and
each forms its unitary only when something reads it.

A model forms what it derives from its parts on first read (``FIMM``);
``model_instrument`` only reads its pointer's roots and its interaction on
the probe state's support (``W``), which a dilation and a von Neumann model
hold from construction, and of a dilation its slot map.

The kernels of the von Neumann and swap forms take leading trial axes, so the
catalog builds a batch of such models' instruments with the formulas the
public functions use: ``_coupled`` (``W`` of couplings and a probe root),
``_vn_w`` (a von Neumann model's closed-form ``W``), ``_pairing_unitary``,
``_vn_forms`` (``vn_measured``'s Kraus, channel and effect closed forms) and
``_measured_kraus`` (``model_instrument``'s general branch).  A von Neumann
model of stacked bases and ``vn_model_for_commutative`` take a trial axis too.

The dilation path takes a stack of instruments over a leading trial axis
itself: ``dilate_instrument`` of a stack is a stack of dilations with one
isometry per trial and one slot-to-outcome map, sized by each outcome's
largest Choi rank over the trials (a trial of lower rank dilates with zero
slot operators), so one pointer; ``simultaneous_fimms``, ``model_instrument``
on a dilation or a re-pointed one, ``normal_fimm_kraus_extract``,
``luders_positivity_check`` (true when every trial passes) and
``marginal_instruments`` follow.  Its kernels are ``_isometry`` (the polished
isometry and its two checks), ``_slot_projections`` (the pointer),
``_slot_operators`` (the measured operators, for any slot map),
``_normal_kraus`` (the extracted operators and their completeness check) and
``_positive`` (the positivity decision).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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
from .instruments import Instrument, Operation, _assembled, _effects, _operators, _reduced, ensure_channel
from .instruments import instr_post_process
from .linalg import BASIS_TOL, DIAG_TOL, EIGENBASIS_ATTEMPTS, GRAM_FLOOR, LUDERS_TOL, MODEL_TOL, NORMAL_SUM_TOL, ORTHO_TOL
from .linalg import Array, _phase_fix, _sandwich, _unitary_defects, as_matrix, complete_to_unitary, herm_eig
from .linalg import hermitian_part, identity, is_unitary, largest, norms, rank, read_only, root_factors
from .observables import Label, Observable, StochasticMatrix, _basis_projections, _projections, obs_commute


def _phase_fixed_unit_vectors(m: Array) -> Array:
    """Principal eigenvectors of a ``(k, d, d)`` stack of PSD matrices of
    ``linalg.rank`` one, phase-fixed, as the columns of a ``(d, k)`` matrix."""
    w, v = herm_eig(m)
    if np.any(rank(w) != 1):
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
    slot's outcome, and forms the rest on read.  A von Neumann model is the
    subclass ``VonNeumannModel``.
    """

    _owner: Array | None = None

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
        (``(d n) x d``), where probe slot ``s`` is outcome ``owner[s]``'s; or a
        stack of such models over a leading trial axis, one isometry per trial
        and one slot map (and so one pointer) for all."""
        m = cls.__new__(cls)
        m.dim_base, m.dim_probe, m._probe_root = iso.shape[-1], len(owner), np.eye(len(owner), 1, dtype=complex)
        m._restricted = read_only(iso[..., None, :, :, None])
        m._labels, m._owner = tuple(labels), owner
        return m

    def _repointed(self, labels: Sequence[Label], owner: Array) -> "FIMM":
        """A dilation of this dilation's isometry, shared, with another
        slot-to-outcome map (``_dilation``)."""
        return self._dilation(self._restricted[..., 0, :, :, 0], labels, owner)

    @cached_property
    def pointer(self) -> Observable:
        """A dilation's 0/1 projections onto each outcome's slots."""
        return Observable._valid(self._labels, _slot_projections(self._owner, len(self._labels)))

    @cached_property
    def probe_state(self) -> Array:
        """A dilation's ``|0><0|``."""
        return read_only(self._probe_root @ self._probe_root.T)

    @cached_property
    def interaction(self) -> Array:
        """A dilation's unitary: its isometry in the columns ``(k, 0)`` and the completion
        in the others (a stack's is refused).  Other models set it at construction,
        or form it on read (``VonNeumannModel``)."""
        if self._restricted.ndim > 4:
            raise DimensionError("a stack of dilations has one isometry per trial, and no one interaction unitary")
        d, n = self.dim_base, self.dim_probe
        first_slot = np.arange(d * n) % n == 0
        sources = np.concatenate([np.flatnonzero(first_slot), np.flatnonzero(~first_slot)])
        u = np.empty((d * n, d * n), dtype=complex)
        u[:, sources] = complete_to_unitary(self._restricted[0, :, :, 0].T, d * n)
        return read_only(u)

    @cached_property
    def couplings(self) -> Array:
        """An operation's Kraus stack, or ``u[None]`` for a unitary ``u`` (of each trial's, for a stack)."""
        u = self.interaction
        return u._kraus if isinstance(u, Operation) else u[..., None, :, :]

    @cached_property
    def _probe_root(self) -> Array:
        """``R_eta`` with ``eta = R_eta R_eta^*``."""
        return root_factors(self.probe_state[None])[0]

    @cached_property
    def _restricted(self) -> Array:
        """``W``: the couplings times the probe state's root factor."""
        return read_only(_coupled(self.couplings, self.dim_base, self._probe_root))

    @cached_property
    def sharp(self) -> bool:
        """Whether every pointer effect is a projection, as a dilation's are."""
        return bool(_projections(self.pointer.stack).all())

    def _set_parts(self, dim_base: int, dim_probe: int, eta: Array, pointer: Observable) -> None:
        """Check and set everything but the interaction, given a probe state
        that is already checked (``ensure_state``) or a state by construction."""
        if dim_base < 1 or dim_probe < 1:
            raise DimensionError("dimensions must be at least 1")
        self.dim_base = int(dim_base)
        self.dim_probe = int(dim_probe)
        if eta.shape[-1] != self.dim_probe:
            raise DimensionError(f"probe state dim {eta.shape[-1]}, expected {self.dim_probe}")
        self.probe_state = read_only(eta)
        if _checked_pointer(pointer).dim != self.dim_probe:
            raise DimensionError(f"pointer dim {pointer.dim}, expected {self.dim_probe}")
        self.pointer, self._labels = pointer, pointer.labels

    def apply_interaction(self, mat: Array) -> Array:
        """The interaction applied to a base (x) probe matrix: ``sum_k U_k mat U_k^*`` over the couplings."""
        return _sandwich(self.couplings, mat)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim_base={self.dim_base}, dim_probe={self.dim_probe}, "
            f"pointer_labels={list(self._labels)!r}, sharp={self.sharp})"
        )


def _coupled(couplings: Array, dim_base: int, root: Array) -> Array:
    """``W_c = U_c (1 (x) R)``, ``(c, d dk, d, s)``, of couplings ``(c, d dk, d dk)`` and a probe
    root ``R``, ``(dk, s)``, or per trial of a batch (couplings shared or one set per trial)."""
    return couplings.reshape(*couplings.shape[:-1], dim_base, -1) @ root[..., None, None, :, :]


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
    operators, they are completed up to ``MODEL_TOL`` (``_assembled``).  A
    stack of dilations or of von Neumann models measures a stack of instruments.
    """
    if m._owner is not None:
        counts = np.bincount(m._owner, minlength=len(m._labels))
        return _assembled(m._labels, _slot_operators(m._restricted[..., 0, :, :, 0], m._owner), counts)
    f, keep = m.pointer._root_columns
    kraus = _measured_kraus(m._restricted, f)
    valid = keep[:, None, :, None] & np.ones(kraus.shape[-6:-2], dtype=bool)
    return _assembled(m._labels, kraus[..., valid, :, :], keep.sum(1) * kraus.shape[-5] * kraus.shape[-3])


def _measured_kraus(w: Array, f: Array) -> Array:
    """``model_instrument``'s operators of ``W``, ``(c, d dk, d, s)``, and the pointer's root
    columns ``f``, ``(m, dk, dk)``: ``[x, c, l, s]`` is ``K[a, i] = sum_k W_c[(a, k), i, s]
    conj(f_x[k, l])``, ``(m, c, dk, s, d, d)``, or per trial of a batch with leading axes."""
    lead, (c, n, d, s) = w.shape[:-4], w.shape[-4:]
    t = len(lead)
    q = w.reshape(*lead, c, d, n // d, d, s).transpose(*range(t), t, t + 4, t + 3, t + 1, t + 2)  # [c, s, i, a, k]
    kraus = q.reshape(*lead, 1, c, s, d * d, -1) @ f.conj()[..., :, None, None, :, :]  # F_x^T = conj(R_x) conj(R_x)^*
    return kraus.reshape(*kraus.shape[:-2], d, d, -1).transpose(*range(t), t, t + 1, t + 5, t + 2, t + 4, t + 3)


def _slot_projections(owner: Array, m: int) -> Array:
    """A dilation's pointer effects, ``(m, n, n)``: the 0/1 projections onto the probe slots
    ``s`` of each outcome ``x = owner[s]``, or per trial of a batch of maps ``(t, n)``."""
    slots = owner[..., None, :] == np.arange(m)[:, None]
    return slots[..., :, None, :] * np.eye(owner.shape[-1], dtype=complex)


def _slot_operators(iso: Array, owner: Array) -> Array:
    """``model_instrument``'s operators of a dilation's isometry ``W``, ``(d n, d)``, one per
    probe slot ``s``, ``K_s[a, i] = W[(a, s), i]``, ordered by the slots' outcomes ``owner``
    (stable), ``(n, d, d)``; or per trial of a batch of isometries with one map."""
    d = iso.shape[-1]
    slots = iso.reshape(*iso.shape[:-2], d, -1, d).swapaxes(-3, -2)
    return slots[..., np.argsort(owner, kind="stable"), :, :]


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
    """Both bases as complex matrices, either or both a ``(t, d, d)`` stack over
    one trial axis: square, unitary (every trial's) and of equal dimension."""
    base, probe = (as_matrix(b, stack=np.ndim(b) == 3) for b in (base_basis, probe_basis))
    trials = {base.shape[:-2], probe.shape[:-2]} - {()}  # one trial axis, or none
    if base.shape[-2:] != probe.shape[-2:] or base.shape[-1] != base.shape[-2] or len(trials) > 1:
        raise DimensionError("bases must be square and of equal dimension")
    if not (largest(_unitary_defects(base)) <= BASIS_TOL and largest(_unitary_defects(probe)) <= BASIS_TOL):
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
    one ``(d^2, d) (d, d^2)`` product, or per trial of a batch."""
    lead, d = base.shape[:-2], base.shape[-1]
    target = np.tile(np.arange(d), (d, 1))  # target[i, j]: where probe slot j goes under psi_i
    target[:, 0] = np.arange(d)
    target[np.arange(1, d), np.arange(1, d)] = 0
    perms = probe[..., :, target].swapaxes(-3, -2) @ probe.conj().swapaxes(-1, -2)[..., None, :, :]  # perms[i] = V_i
    u = _basis_projections(base).reshape(*lead, d, d * d).swapaxes(-1, -2) @ perms.reshape(*lead, d, d * d)
    return u.reshape(*lead, d, d, d, d).swapaxes(-3, -2).reshape(*lead, d * d, d * d)  # u[(a, b), (k, l)] regrouped


def _vn_w(base: Array, probe: Array) -> Array:
    """A von Neumann model's ``W[(a, k), i] = sum_j psi_j[a] phi_j[k] conj(psi_j[i])``,
    ``(d^2, d)``, of its two bases, one ``(d^2, d) (d, d)`` product, or per trial of a batch."""
    d, adjoint = base.shape[-1], base.conj().swapaxes(-1, -2)
    pairs = base[..., :, None, :] * probe[..., None, :, :]
    return pairs.reshape(*pairs.shape[:-3], d * d, d) @ adjoint


class VonNeumannModel(FIMM):
    """Model with a pure probe state ``phi_0`` and the pairing unitary of its
    bases (``von_neumann_unitary``), held as read-only copies with its probe
    root ``phi_0`` and ``W[(a, k), i] = sum_j psi_j[a] phi_j[k]
    conj(psi_j[i])``, the unitary's columns ``(i, 0)``: no eigensolve.  Of
    bases stacked over a trial axis (``_checked_bases``), a stack of models."""

    def __init__(self, base_basis: object, probe_basis: object, pointer: Observable):
        base, probe = (read_only(b.copy()) for b in _checked_bases(base_basis, probe_basis))
        self.base_basis, self.probe_basis = base, probe
        d, phi0 = base.shape[-1], probe[..., :, 0]
        # exact: the product (np.outer's, per trial) leaves ~1e-17 imaginary diagonals
        eta = hermitian_part(phi0[..., :, None] * phi0.conj()[..., None, :])
        self._set_parts(d, d, eta, pointer)
        self._probe_root = phi0[..., :, None]
        self._restricted = read_only(_vn_w(base, probe)[..., None, :, :, None])

    @cached_property
    def interaction(self) -> Array:
        """The pairing unitary of the bases."""
        return read_only(_pairing_unitary(self.base_basis, self.probe_basis))

    @property
    def dim(self) -> int:
        return self.dim_base

    def to_fimm(self) -> VonNeumannModel:
        """The model itself, a ``FIMM``."""
        return self


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
    labels = model.pointer.labels
    r, keep = model.pointer._root_columns
    kraus, projs, effects = _vn_forms(model.base_basis, model.probe_basis, r)
    channel = Operation._unchecked(read_only(projs))  # projections summing to 1: a channel
    return _assembled(labels, kraus[..., keep, :, :], keep.sum(1)), channel, Observable._valid(labels, effects)


def _vn_forms(base: Array, probe: Array, r: Array) -> tuple[Array, Array, Array]:
    """``vn_measured``'s closed forms of the bases ``W`` and ``phi`` and the pointer's root columns
    ``r``, ``(m, d, d)``, or per trial of a batch: the Kraus operators ``[x, l] = W diag(f_x[:, l])
    W^*``, ``(m, d, d, d)``, the base-basis projections (the channel's) and the effects."""
    projs = _basis_projections(base)
    f = probe.swapaxes(-1, -2)[..., None, :, :] @ r.conj()
    adjoint = base.conj().swapaxes(-1, -2)[..., None, None, :, :]
    kraus = (base[..., None, None, :, :] * f.swapaxes(-1, -2)[..., :, :, None, :]) @ adjoint
    return kraus, projs, np.einsum("...xi,...iab->...xab", (f.real**2 + f.imag**2).sum(-1), projs)


def vn_model_for_commutative(a: Observable, rng: np.random.Generator | None = None) -> VonNeumannModel:
    """Basis-pairing model measuring a commutative observable.

    The shared eigenbasis comes from a random real combination of the
    effects; a draw is accepted only if it actually diagonalizes every
    effect, within ``DIAG_TOL`` (collisions among eigenvalues force a redraw
    unless the effects are scalar on the colliding block), and at most
    ``EIGENBASIS_ATTEMPTS`` draws are made.  Of a stack of observables, one
    draw of stacked combinations must diagonalize every trial's effects.
    """
    if not obs_commute(a, a):
        raise NotCommutative("observable effects do not pairwise commute")
    if rng is None:
        rng = np.random.default_rng(20210)
    for _ in range(EIGENBASIS_ATTEMPTS):
        v, diagonals, diagonalizes = _eigenbasis(a.stack, rng.standard_normal(len(a)))
        if np.all(diagonalizes):
            return VonNeumannModel(v, np.eye(a.dim, dtype=complex), Observable._valid(a.labels, diagonals))
    raise NotCommutative("failed to find a joint eigenbasis")


def _eigenbasis(stack: Array, x: Array) -> tuple[Array, Array, Array]:
    """The eigenbasis ``V`` of a commuting family's real combination ``sum_k x_k A_k``, the
    effects' diagonals in it as diagonal matrices, and whether ``V`` diagonalizes every
    effect within ``DIAG_TOL``; or per trial of a batch, one eigensolve for all."""
    d, eye = stack.shape[-1], identity(stack.shape[-1])
    _, v = herm_eig(hermitian_part((x[..., None, None] * stack).sum(-3)))
    rotated = v.conj().swapaxes(-1, -2)[..., None, :, :] @ stack @ v[..., None, :, :]
    diagonals = np.diagonal(rotated, axis1=-2, axis2=-1)
    off = norms(rotated - diagonals[..., None] * eye).max(-1)
    return v, (diagonals.real[..., None] * eye).astype(complex), off <= DIAG_TOL * max(1.0, d)


def dilate_instrument(instr: Instrument) -> FIMM:
    """Realize an instrument as a sharp measurement model.

    The probe carries one basis slot per Kraus operator (outcome-major),
    each outcome's cut to its Choi rank (``instruments._reduced``).  The
    isometry ``W`` stacking the operators, whose Gram matrix ``G`` is the
    effect sum, is polished by one Newton-Schulz step ``W (3 - G) / 2``,
    which leaves ``||W^* W - 1|| <= 3/4 ||G - 1||^2`` plus rounding, and
    completed to a unitary on first read (``FIMM.interaction``); the
    pointer coarse-grains slots by outcome, so it is atomic exactly when
    every outcome has a single Kraus operator.  A stack of instruments gives
    a stack of dilations (see the module docstring).
    """
    kraus, counts = _reduced(instr.kraus, instr.counts, 1)
    iso = _isometry(_operators(kraus, counts))
    return FIMM._dilation(iso, instr.labels, np.repeat(np.arange(len(counts)), counts))


def _isometry(ops: Array) -> Array:
    """``dilate_instrument``'s polished isometry ``W[(a, s), i] = K_s[a, i]`` of its
    outcome-major operators ``(n, d, d)``, ``(d n, d)``, or per trial of a batch: each
    Gram defect within ``1 - GRAM_FLOOR`` before the step and ``ORTHO_TOL d`` after it."""
    d = ops.shape[-1]
    iso = ops.swapaxes(-3, -2).reshape(*ops.shape[:-3], -1, d)
    defect = iso.conj().swapaxes(-1, -2) @ iso - identity(d)
    if not largest(norms(defect)) <= 1.0 - GRAM_FLOOR:  # then every eigenvalue of G is at least GRAM_FLOOR
        raise NotIsometry("stacked Kraus columns are numerically rank deficient")
    iso = iso - iso @ (defect / 2.0)  # orthonormal to rounding before completion
    if not largest(norms(iso.conj().swapaxes(-1, -2) @ iso - identity(d))) <= ORTHO_TOL * d:
        raise NotIsometry("polished Kraus columns are not orthonormal")
    return iso


def normal_fimm_kraus_extract(m: FIMM) -> dict[Label, Array]:
    """Kraus operators of a normal model (pure probe, unitary interaction,
    atomic pointer), one per pointer outcome.

    ``S_x[j, i] = <e_j (x) phi_x, U (e_i (x) phi)>`` with ``phi`` the initial
    probe vector and ``phi_x`` the pointer atoms, both phase-fixed.  Of the
    interaction only ``W`` is read (``FIMM``), whose probe root is ``phi``
    times a phase, divided out here: a dilation completes no unitary.
    """
    w = m._restricted
    if w.shape[-4] != 1:  # one coupling is unitary: by construction or checked at build
        raise NotNormal("interaction channel is not unitary")
    try:
        vectors = _phase_fixed_unit_vectors(np.concatenate([m.probe_state[None], m.pointer.stack]))
    except NotNormal as exc:
        raise NotNormal(f"model is not normal: {exc}") from exc
    ops = _normal_kraus(w[..., 0, :, :, -1], vectors, np.vdot(vectors[:, 0], m._probe_root[:, -1]))
    return dict(zip(m.pointer.labels, ops.swapaxes(0, -3)))  # each over the trial axis of a stacked dilation


def _normal_kraus(w: Array, vectors: Array, overlap: complex | Array) -> Array:
    """``normal_fimm_kraus_extract``'s operators ``S_x[j, i] = sum_k conj(phi_x[k]) U[(j, k), (i, phi)]``,
    ``(m, d, d)``, of ``W``'s column of the probe root's top vector ``r``, ``(d dk, d)``, the phase-fixed
    probe and pointer vectors ``(dk, 1 + m)`` and ``overlap = <phi, r>``; or per trial of a batch (an
    overlap per trial, ``(t, 1, 1, 1)``).  Each family's ``||sum S^* S - 1||_F`` within ``NORMAL_SUM_TOL d``."""
    d, dk = w.shape[-1], vectors.shape[-2]
    evolved = w.reshape(*w.shape[:-2], d, dk, d) / overlap  # evolved[j, k, i] = <e_j (x) e_k, U (e_i (x) phi)>
    ops = np.einsum("...jki,...kx->...xji", evolved, vectors[..., 1:].conj())
    residual = largest(norms(_effects(ops) - identity(d)))
    if not residual <= NORMAL_SUM_TOL * max(1.0, d):
        raise NotNormal(f"extracted operators miss completeness by {residual:.3g}")
    return ops


def luders_positivity_check(m: FIMM) -> bool:
    """True when every extracted Kraus operator is positive semidefinite,
    within ``LUDERS_TOL``.

    A passing model measures the measurement-update instrument of its own
    observable (outcome maps ``rho -> sqrt(A_x) rho sqrt(A_x)``).
    """
    return bool(_positive(np.stack(list(normal_fimm_kraus_extract(m).values()), axis=-3)).all())


def _positive(s: Array) -> Array:
    """``luders_positivity_check``'s decision on extracted operators ``(m, d, d)``, or per trial of a
    batch: each Hermitian within ``LUDERS_TOL`` relative to its norm (at least 1), then no eigenvalue
    below ``-LUDERS_TOL``; no eigensolve when no family is Hermitian."""
    hermitian = np.all(norms(s - s.conj().swapaxes(-1, -2)) <= LUDERS_TOL * np.maximum(1.0, norms(s)), axis=-1)
    if not hermitian.any():
        return hermitian
    return hermitian & (np.linalg.eigvalsh(hermitian_part(s))[..., 0].min(-1) >= -LUDERS_TOL)


@lru_cache(maxsize=64)
def _marginal_maps(labels: tuple[Label, ...]) -> tuple[StochasticMatrix, StochasticMatrix]:
    """The 0/1 matrices that coarse-grain product labels onto their first
    factor and onto the rest, each factor's labels in order of appearance;
    kept per label tuple, as building them costs more than applying them."""
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
    # slot s goes to the one outcome that the 0/1 map sends its joint outcome to
    return tuple(m._repointed(nu.col_labels, nu.matrix.argmax(axis=1)[m._owner]) for nu in maps)


def marginal_instruments(joint: Instrument) -> tuple[Instrument, Instrument]:
    """The two marginals of an instrument on a product value-space: its
    post-processings by the 0/1 matrices of ``_marginal_maps``."""
    first, second = _marginal_maps(joint.labels)
    return instr_post_process(first, joint), instr_post_process(second, joint)
