"""Numerical verification suites for the toolkit's catalog of results.

Each suite re-derives one identity, counterexample, or construction on
concrete matrices and reports the worst residual seen.  Suites are
deterministic given a seed.  The two ``conj-*`` suites are random
counterexample probes: they only ever report "unknown" together with the
number of trials searched; they never assert either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .effects import (
    CoexistenceWitness,
    atom,
    binary_observables_from_coexistence,
    complement,
    ensure_effect,
    seq_product,
)
from .errors import InvalidWitness, QinstrError
from .instruments import (
    Instrument,
    Operation,
    _outputs,
    compose_operations,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_coexist_verify,
    instr_complementary,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    is_identity_instrument,
    is_single_kraus,
    joint_probability_instr,
    joint_probability_table_instr,
    kraus_instrument,
    kraus_instrument_from_channel,
    luders_instrument,
    trivial_instrument,
)
from .linalg import frob, hermitian_part, spectral_norm
from .models import (
    FIMM,
    VonNeumannModel,
    dilate_instrument,
    luders_positivity_check,
    marginal_instruments,
    model_instrument,
    normal_fimm_kraus_extract,
    simultaneous_fimms,
    trivial_fimm,
    vn_measured,
    vn_model_for_commutative,
)
from .observables import (
    Observable,
    StochasticMatrix,
    atomic_observable,
    classify_observable,
    combine_labels,
    complementarity_residual,
    family_distance,
    fourier_mub,
    identity_observable,
    joint_probability_table,
    joint_probability_then,
    marginal_defect,
    obs_coexist_verify,
    obs_commute,
    obs_complementary,
    obs_conditioned,
    obs_convex_combo,
    obs_post_process,
    obs_seq_product,
)
from .rand import (
    random_commutative_observable,
    random_commuting_effect_pair,
    random_instrument,
    random_kraus_instrument,
    random_observable,
    random_simplex,
    random_state,
    random_stochastic,
    random_unitary,
)


@dataclass
class VerificationReport:
    result_id: str
    trials: int
    max_residual: float
    status: str  # "pass" | "fail" | "unknown"
    seed: int
    tolerance: float
    note: str = ""

    def line(self) -> str:
        extra = f"  ({self.note})" if self.note else ""
        return (
            f"{self.result_id}: {self.status}  trials={self.trials}  "
            f"max_residual={self.max_residual:.3g}  tol={self.tolerance:.3g}  seed={self.seed}{extra}"
        )


def _rng(result_id: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, result_id))])


def _worst(a: np.ndarray, b: np.ndarray) -> float:
    """Largest Frobenius distance between matching matrices of two stacks."""
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max())


def _single_kraus(instr: Instrument) -> np.ndarray:
    """The one Kraus operator of each outcome, as a stack in label order."""
    return np.stack([op.kraus_ops()[0] for _, op in instr.items()])


def sharp_qubit_z() -> Observable:
    return Observable({"0": np.diag([1.0, 0.0]).astype(complex), "1": np.diag([0.0, 1.0]).astype(complex)})


def sharp_qubit_x() -> Observable:
    plus = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    minus = atom(np.array([1.0, -1.0]) / np.sqrt(2.0))
    return Observable({"+": plus, "-": minus})


def stored_trivial_instrument() -> Instrument:
    """The reference trivial instrument whose outcome Choi matrices all have
    rank four, so no single-Kraus realization exists."""
    half = Observable({"0": 0.5 * np.eye(2, dtype=complex), "1": 0.5 * np.eye(2, dtype=complex)})
    return trivial_instrument(half, 0.5 * np.eye(2, dtype=complex))


# -- individual suites --------------------------------------------------------


def _suite_ex_1(seed: int, trials: int, scale: float) -> VerificationReport:
    """Sequential product is non-associative: rank-one closed forms differ by
    exactly one quarter in operator norm."""
    tol = 1e-10 * scale
    e1 = np.array([1.0, 0.0], dtype=complex)
    beta = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    a, b, c = atom(e1), atom(beta), atom(e1)
    left = seq_product(a, seq_product(b, c))
    right = seq_product(seq_product(a, b), c)
    p = atom(e1)
    res = max(frob(left - 0.25 * p), frob(right - 0.5 * p))
    gap = spectral_norm(right - left)
    res = max(res, abs(gap - 0.25))
    status = "pass" if res <= tol else "fail"
    return VerificationReport("ex-1", 1, res, status, seed, tol, "gap in operator norm is 1/4")


def _suite_lem_1_1(seed: int, trials: int, scale: float) -> VerificationReport:
    """Commuting effects coexist: the algebraic witness validates and the
    binary joint observable has the right marginals."""
    tol = 1e-8 * scale
    rng = _rng("lem-1.1", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        a, b = random_commuting_effect_pair(d, rng)
        ab = ensure_effect(hermitian_part(a @ b))
        w = CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab)
        # joint[x, y] in label order ("1", "1"), ("1", "2"), ...: its row and
        # column sums must give {a, a'} and {b, b'}
        try:
            joint = binary_observables_from_coexistence(a, b, w).stack.reshape(2, 2, d, d)
        except InvalidWitness:
            return VerificationReport("lem-1.1", trials, 1.0, "fail", seed, tol, "witness rejected")
        worst = max(worst, _worst(joint.sum(1), np.stack([a, complement(a)])))
        worst = max(worst, _worst(joint.sum(0), np.stack([b, complement(b)])))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("lem-1.1", trials, worst, status, seed, tol)


def _suite_lem_1_2(seed: int, trials: int, scale: float) -> VerificationReport:
    """Atomic observables are complementary exactly for mutually unbiased
    bases; a generic basis pair misses by a visible margin."""
    tol = 1e-9 * scale
    rng = _rng("lem-1.2", seed)
    worst = 0.0
    for d in (2, 3, 4, 5):
        basis1, basis2 = fourier_mub(d)
        overlaps = np.abs(basis1.conj().T @ basis2) ** 2
        worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / d))))
        worst = max(worst, complementarity_residual(atomic_observable(basis1), atomic_observable(basis2)))
    gap_ok = True
    for d in (2, 3):
        # A random pair can be nearly unbiased, and then its residual is
        # small for a good reason; redraw until the overlaps deviate from
        # 1/d by at least 0.05 (residual/deviation >= 1 for d = 2, 3).
        while True:
            u, v = random_unitary(d, rng), random_unitary(d, rng)
            if np.max(np.abs(np.abs(u.conj().T @ v) ** 2 - 1.0 / d)) >= 0.05:
                break
        residual = complementarity_residual(atomic_observable(u), atomic_observable(v))
        gap_ok = gap_ok and residual >= 1e-3
    status = "pass" if worst <= tol and gap_ok else "fail"
    return VerificationReport("lem-1.2", 6, worst, status, seed, tol, "non-MUB residual >= 1e-3")


def _suite_thm_2_1(seed: int, trials: int, scale: float) -> VerificationReport:
    """The observable of a measurement-update instrument is the observable it
    came from; the reverse composition is not the identity on instruments."""
    tol = 1e-9 * scale
    rng = _rng("thm-2.1", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        a = random_observable(d, 2 + t % 3, rng)
        back = induced_observable(luders_instrument(a))
        worst = max(worst, family_distance(back, a))
    # KJ fixes exactly the measurement-update instruments
    a = random_observable(2, 2, rng)
    luders = luders_instrument(a)
    worst = max(worst, family_distance(luders_instrument(induced_observable(luders)), luders))
    trivial = stored_trivial_instrument()
    rebuilt = luders_instrument(induced_observable(trivial))
    gap = family_distance(rebuilt, trivial)
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("thm-2.1", trials, worst, status, seed, tol, f"KJ gap {gap:.3g} >= 1e-3")


def _suite_thm_2_2(seed: int, trials: int, scale: float) -> VerificationReport:
    """Instrument mixtures mix their observables; observable mixtures do not
    mix their measurement-update instruments (cross terms survive)."""
    tol = 1e-9 * scale
    rng = _rng("thm-2.2", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        n = 2 + t % 2
        weights = random_simplex(3, rng)
        parts = [random_instrument(d, n, rng) for _ in range(3)]
        a_mix = induced_observable(instr_convex_combo(weights, parts))
        worst = max(worst, family_distance(a_mix, obs_convex_combo(weights, [induced_observable(p) for p in parts])))
    a, b = sharp_qubit_z(), sharp_qubit_x()
    b_relab = Observable({"0": b["+"], "1": b["-"]})
    mixed_obs = obs_convex_combo([0.5, 0.5], [a, b_relab])
    rho = np.diag([1.0, 0.0]).astype(complex)
    lhs = _outputs(luders_instrument(mixed_obs), rho)
    gap = _worst(lhs, 0.5 * _outputs(luders_instrument(a), rho) + 0.5 * _outputs(luders_instrument(b_relab), rho))
    status = "pass" if worst <= tol and gap >= 1e-2 else "fail"
    return VerificationReport("thm-2.2", trials, worst, status, seed, tol, f"K mixture gap {gap:.3g} >= 1e-2")


def _suite_thm_2_3(seed: int, trials: int, scale: float) -> VerificationReport:
    """Post-processing commutes with taking the observable of an instrument,
    and distributes over mixtures, but not with the measurement-update map."""
    tol = 1e-9 * scale
    rng = _rng("thm-2.3", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        n = 2 + t % 2
        instr = random_instrument(d, n, rng)
        nu = random_stochastic(list(instr.labels), [f"t{k}" for k in range(2)], rng)
        lhs = induced_observable(instr_post_process(nu, instr))
        rhs = obs_post_process(nu, induced_observable(instr))
        worst = max(worst, family_distance(lhs, rhs))
        weights = random_simplex(2, rng)
        other = random_instrument(d, n, rng)
        mixed = instr_post_process(nu, instr_convex_combo(weights, [instr, other]))
        split = instr_convex_combo(
            weights, [instr_post_process(nu, instr), instr_post_process(nu, other)]
        )
        worst = max(worst, family_distance(mixed, split))
    a = sharp_qubit_z()
    nu = StochasticMatrix(["0", "1"], ["0", "1"], [[0.5, 0.5], [0.5, 0.5]])
    rho = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    lhs = _outputs(luders_instrument(obs_post_process(nu, a)), rho)
    gap = _worst(lhs, np.tensordot(nu.matrix.T, _outputs(luders_instrument(a), rho), 1))
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("thm-2.3", trials, worst, status, seed, tol, f"K post-processing gap {gap:.3g} >= 1e-3")


def _complementary_pair_catalog(rng: np.random.Generator, count: int):
    """Instrument pairs labelled with whether their observables are
    complementary; used for the complementarity agreement suites."""
    pairs = []
    for t in range(count):
        kind = t % 5
        d = 2 + t % 3
        if kind == 0:
            b1, b2 = fourier_mub(d)
            pairs.append((luders_instrument(atomic_observable(b1)), luders_instrument(atomic_observable(b2))))
        elif kind == 1:
            a = identity_observable({"0": 0.5, "1": 0.5}, d)
            b = identity_observable({"0": 1.0 / 3, "1": 1.0 / 3, "2": 1.0 / 3}, d)
            alpha = random_state(d, rng)
            pairs.append((trivial_instrument(a, alpha), trivial_instrument(b, alpha)))
        elif kind == 2:
            b1, b2 = fourier_mub(d)
            u = random_unitary(d, rng)
            pairs.append(
                (
                    luders_instrument(atomic_observable(u @ b1)),
                    luders_instrument(atomic_observable(u @ b2)),
                )
            )
        elif kind == 3:
            a = random_observable(d, 2, rng)
            pairs.append((luders_instrument(a), luders_instrument(a)))
        else:
            pairs.append((random_instrument(d, 2, rng), random_instrument(d, 2, rng)))
    return pairs


def _suite_lem_2_4(seed: int, trials: int, scale: float) -> VerificationReport:
    """Instrument-level complementarity agrees exactly with observable-level
    complementarity of the induced observables."""
    rng = _rng("lem-2.4", seed)
    disagreements = 0
    pairs = _complementary_pair_catalog(rng, trials)
    for i, j in pairs:
        lhs = instr_complementary(i, j)
        rhs = obs_complementary(induced_observable(i), induced_observable(j))
        if lhs != rhs:
            disagreements += 1
    status = "pass" if disagreements == 0 else "fail"
    return VerificationReport("lem-2.4", len(pairs), float(disagreements), status, seed, 0.0, "boolean agreement")


def _suite_cor_2_5(seed: int, trials: int, scale: float) -> VerificationReport:
    """Complementary measurement-update instruments come from complementary
    observables."""
    rng = _rng("cor-2.5", seed)
    failures = 0
    checked = 0
    pairs = _complementary_pair_catalog(rng, trials)
    for i, j in pairs:
        if instr_complementary(i, j):
            checked += 1
            if not obs_complementary(induced_observable(i), induced_observable(j)):
                failures += 1
    status = "pass" if failures == 0 and checked > 0 else "fail"
    return VerificationReport("cor-2.5", checked, float(failures), status, seed, 0.0, f"{checked} complementary pairs checked")


def _suite_lem_2_6(seed: int, trials: int, scale: float) -> VerificationReport:
    """Coexisting instruments induce coexisting observables."""
    tol = 1e-8 * scale
    rng = _rng("lem-2.6", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        alpha = random_state(d, rng)
        joint_obs = random_observable(
            d, 4, rng, labels=[combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        )
        joint_instr = trivial_instrument(joint_obs, alpha)
        i, j = marginal_instruments(joint_instr)
        if not instr_coexist_verify(i, j, joint_instr, tol):
            return VerificationReport("lem-2.6", trials, 1.0, "fail", seed, tol, "joint marginals broken")
        a, b, c = induced_observable(i), induced_observable(j), induced_observable(joint_instr)
        if not obs_coexist_verify(a, b, c, tol):
            return VerificationReport("lem-2.6", trials, 1.0, "fail", seed, tol, "observables do not coexist")
        worst = max(worst, marginal_defect(a, b, c))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("lem-2.6", trials, worst, status, seed, tol)


def _suite_ex_2(seed: int, trials: int, scale: float) -> VerificationReport:
    """The stored trivial instrument admits no single Kraus operator: every
    outcome Choi matrix has rank four."""
    trivial = stored_trivial_instrument()
    w = np.linalg.eigvalsh(trivial.member_matrices())
    ok = bool(np.all(np.sum(w > 1e-8 * w[:, -1:], axis=1) >= 2))
    ok = ok and not any(is_single_kraus(op) for _, op in trivial.items())
    luders = luders_instrument(sharp_qubit_z())
    ok = ok and all(is_single_kraus(op) for _, op in luders.items())
    status = "pass" if ok else "fail"
    return VerificationReport("ex-2", 1, 0.0 if ok else 1.0, status, seed, 0.0, "outcome Choi ranks >= 2")


def _suite_ex_3(seed: int, trials: int, scale: float) -> VerificationReport:
    """Products of single-Kraus instruments compose their operators, and the
    induced observable of the product is generally not the observable
    product."""
    tol = 1e-9 * scale
    rng = _rng("ex-3", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        i = random_kraus_instrument(d, 2, rng)
        j = random_kraus_instrument(d, 2, rng)
        s, tt = _single_kraus(i), _single_kraus(j)
        # expected[x, y] = S_x^* T_y^* T_y S_x, the effect of outcome (x, y)
        expected = s.conj().swapaxes(1, 2)[:, None] @ tt.conj().swapaxes(1, 2)[None] @ tt[None] @ s[:, None]
        a_prod = induced_observable(instr_product(i, j)).stack.reshape(expected.shape)
        b_cond = induced_observable(instr_conditioned(i, j)).stack
        worst = max(worst, _worst(a_prod, expected), _worst(b_cond, expected.sum(0)))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    i = kraus_instrument({"0": np.eye(2, dtype=complex) / np.sqrt(2.0), "1": hadamard / np.sqrt(2.0)})
    j = luders_instrument(sharp_qubit_z())
    lhs = induced_observable(instr_product(i, j))
    rhs = obs_seq_product(induced_observable(i), induced_observable(j))
    gap = family_distance(lhs, rhs)
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("ex-3", trials, worst, status, seed, tol, f"observable-product gap {gap:.3g} >= 1e-3")


def _suite_ex_4(seed: int, trials: int, scale: float) -> VerificationReport:
    """For measurement-update instruments the product observable law holds,
    and the update map is multiplicative exactly on commuting pairs."""
    tol = 1e-9 * scale
    rng = _rng("ex-4", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        a = random_observable(d, 2, rng)
        b = random_observable(d, 2, rng)
        lhs = induced_observable(instr_product(luders_instrument(a), luders_instrument(b)))
        rhs = obs_seq_product(a, b)
        worst = max(worst, family_distance(lhs, rhs))
        cond = induced_observable(instr_conditioned(luders_instrument(a), luders_instrument(b)))
        expected = obs_conditioned(a, b)
        worst = max(worst, family_distance(cond, expected))
    # commuting branch: same eigenbasis by construction
    u = random_unitary(3, rng)
    diag_a, diag_b = (rng.dirichlet(np.ones(2), size=3).T[:, :, None] * np.eye(3) for _ in range(2))
    a_com, b_com = (Observable(zip(("0", "1"), u @ diag.astype(complex) @ u.conj().T)) for diag in (diag_a, diag_b))
    if not obs_commute(a_com, b_com):
        return VerificationReport("ex-4", trials, 1.0, "fail", seed, tol, "construction should commute")
    k_joint = luders_instrument(obs_seq_product(a_com, b_com))
    k_split = instr_product(luders_instrument(a_com), luders_instrument(b_com))
    worst = max(worst, family_distance(k_joint, k_split))
    a, b = sharp_qubit_z(), sharp_qubit_x()
    k_joint = luders_instrument(obs_seq_product(a, b))
    k_split = instr_product(luders_instrument(a), luders_instrument(b))
    gap = family_distance(k_joint, k_split)
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("ex-4", trials, worst, status, seed, tol, f"non-commuting gap {gap:.3g} >= 1e-3")


def _suite_ex_5(seed: int, trials: int, scale: float) -> VerificationReport:
    """Products and conditioning against an identity instrument only scale:
    conditioning a generic instrument on it returns that instrument."""
    tol = 1e-9 * scale
    rng = _rng("ex-5", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        w = random_simplex(2, rng)
        ident = identity_instrument(dict(zip(["0", "1"], w)), d)
        j = random_instrument(d, 2, rng)
        scaled = w[:, None, None, None] * j.member_matrices()  # scaled[x, y] = w_x J_y
        prod = instr_product(ident, j).member_matrices()
        reversed_prod = instr_product(j, ident).member_matrices()
        worst = max(worst, _worst(prod, scaled.reshape(prod.shape)))
        worst = max(worst, _worst(reversed_prod, scaled.swapaxes(0, 1).reshape(prod.shape)))
        worst = max(worst, family_distance(instr_conditioned(ident, j), j))
        reverse = instr_conditioned(j, ident).member_matrices()
        worst = max(worst, _worst(reverse, w[:, None, None] * instr_channel(j).choi))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("ex-5", trials, worst, status, seed, tol)


def _suite_ex_6(seed: int, trials: int, scale: float) -> VerificationReport:
    """Products of state-preparation instruments factorize through the
    prepared state, and conditioning loses the first observable entirely."""
    tol = 1e-9 * scale
    rng = _rng("ex-6", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        a = random_observable(d, 2, rng)
        b = random_observable(d, 2, rng)
        alpha = random_state(d, rng)
        beta = random_state(d, rng)
        prod = instr_product(trivial_instrument(a, alpha), trivial_instrument(b, beta)).member_matrices()
        coeff = np.trace(alpha @ b.stack, axis1=1, axis2=2).real  # tr(alpha B_y)
        kron = np.einsum("xji,ab->xiajb", a.stack, beta).reshape(len(a), d * d, d * d)  # A_x^T (x) beta
        expected = coeff[None, :, None, None] * kron[:, None]
        worst = max(worst, _worst(prod, expected.reshape(prod.shape)))
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    i = trivial_instrument(a, alpha)
    j = trivial_instrument(a, alpha)
    lhs = induced_observable(instr_conditioned(i, j))
    rhs = obs_conditioned(a, a)
    gap = family_distance(lhs, rhs)
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("ex-6", trials, worst, status, seed, tol, f"conditioned-observable gap {gap:.3g} >= 1e-3")


def _suite_ex_7(seed: int, trials: int, scale: float) -> VerificationReport:
    """Sequential probabilities of state-preparation instruments factorize as
    tr(rho A_X) tr(alpha B_Y), unlike the observable-level probabilities."""
    tol = 1e-10 * scale
    rng = _rng("ex-7", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        a = random_observable(d, 2, rng)
        b = random_observable(d, 2, rng)
        alpha = random_state(d, rng)
        beta = random_state(d, rng)
        rho = random_state(d, rng)
        i = trivial_instrument(a, alpha)
        j = trivial_instrument(b, beta)
        x_set, y_set = [a.labels[0]], [b.labels[1]]
        p = joint_probability_instr(rho, i, x_set, j, y_set)
        expected = float(np.trace(rho @ a[x_set[0]]).real) * float(np.trace(alpha @ b[y_set[0]]).real)
        worst = max(worst, abs(p - expected))
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = np.diag([1.0, 0.0]).astype(complex)
    i = trivial_instrument(a, alpha)
    j = trivial_instrument(a, alpha)
    p_instr = joint_probability_instr(rho, i, ["0"], j, ["0"])
    p_obs = joint_probability_then(rho, a, ["0"], a, ["0"])
    gap = abs(p_instr - p_obs)
    status = "pass" if worst <= tol and gap >= 1e-3 else "fail"
    return VerificationReport("ex-7", trials, worst, status, seed, tol, f"probability gap {gap:.3g} >= 1e-3")


def _suite_ex_8(seed: int, trials: int, scale: float) -> VerificationReport:
    """Measurement-update instruments reproduce the observable-level
    sequential probabilities outcome by outcome."""
    tol = 1e-10 * scale
    rng = _rng("ex-8", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        a = random_observable(d, 2, rng)
        b = random_observable(d, 2, rng)
        rho = random_state(d, rng)
        p_instr = joint_probability_table_instr(rho, luders_instrument(a), luders_instrument(b))
        worst = max(worst, float(np.abs(p_instr - joint_probability_table(rho, a, b)).max()))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("ex-8", trials, worst, status, seed, tol)


def _suite_lem_3_1(seed: int, trials: int, scale: float) -> VerificationReport:
    """Set-level sequential probabilities of measurement-update instruments
    match the observable-level joint probabilities."""
    tol = 1e-10 * scale
    rng = _rng("lem-3.1", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        m, n = 2 + t % 2, 2 + (t + 1) % 2
        a = random_observable(d, m, rng)
        b = random_observable(d, n, rng)
        rho = random_state(d, rng)
        x_set = [lab for k, lab in enumerate(a.labels) if rng.random() < 0.6 or k == 0]
        y_set = [lab for k, lab in enumerate(b.labels) if rng.random() < 0.6 or k == 0]
        p_instr = joint_probability_instr(rho, luders_instrument(a), x_set, luders_instrument(b), y_set)
        p_obs = joint_probability_then(rho, a, x_set, b, y_set)
        worst = max(worst, abs(p_instr - p_obs))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("lem-3.1", trials, worst, status, seed, tol)


def _suite_thm_3_2(seed: int, trials: int, scale: float) -> VerificationReport:
    """Splitting a channel into its canonical Kraus instrument yields an
    identity instrument exactly for the identity channel."""
    tol = 1e-9 * scale
    rng = _rng("thm-3.2", seed)
    worst = 0.0
    for d in (2, 3):
        split = kraus_instrument_from_channel(Operation.identity(d))
        if not is_identity_instrument(split, tol):
            return VerificationReport("thm-3.2", trials, 1.0, "fail", seed, tol, "identity channel split")
        u = random_unitary(d, rng)
        split_u = kraus_instrument_from_channel(Operation.from_unitary(u))
        if len(split_u) != 1:
            return VerificationReport("thm-3.2", trials, 1.0, "fail", seed, tol, "unitary channel should have one operator")
        if d == 2:
            dephasing = instr_channel(luders_instrument(sharp_qubit_z()))
            split_z = kraus_instrument_from_channel(dephasing)
            p, q = (op.kraus_ops()[0] for _, op in split_z.items())
            worst = max(worst, min(frob(p @ q), frob(q @ p)))
            if is_identity_instrument(split_z, tol):
                return VerificationReport("thm-3.2", trials, 1.0, "fail", seed, tol, "dephasing is not an identity instrument")
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("thm-3.2", trials, worst, status, seed, tol)


def _suite_cor_3_3(seed: int, trials: int, scale: float) -> VerificationReport:
    """Identity instruments always sum to the identity channel."""
    tol = 1e-9 * scale
    rng = _rng("cor-3.3", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 3
        n = 2 + t % 3
        weights = dict(zip([str(k) for k in range(n)], random_simplex(n, rng)))
        ident = identity_instrument(weights, d)
        worst = max(worst, frob(instr_channel(ident).choi - Operation.identity(d).choi))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("cor-3.3", trials, worst, status, seed, tol)


def _suite_lem_3_4(seed: int, trials: int, scale: float) -> VerificationReport:
    """The total channel of a product instrument, of a conditioned
    instrument, and the composition of the total channels all agree."""
    tol = 1e-9 * scale
    rng = _rng("lem-3.4", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        i = random_instrument(d, 2, rng)
        j = random_instrument(d, 2 + t % 2, rng)
        prod_hat = instr_channel(instr_product(i, j))
        cond_hat = instr_channel(instr_conditioned(i, j))
        composed = compose_operations(instr_channel(j), instr_channel(i))
        worst = max(worst, frob(prod_hat.choi - cond_hat.choi))
        worst = max(worst, frob(prod_hat.choi - composed.choi))
        worst = max(worst, frob(cond_hat.choi - composed.choi))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("lem-3.4", trials, worst, status, seed, tol)


def _product_labelled_instrument(rng: np.random.Generator, d: int, m: int, n: int) -> Instrument:
    base = random_instrument(d, m * n, rng)
    labels = [combine_labels(str(x), str(y)) for x in range(m) for y in range(n)]
    return Instrument(zip(labels, (op for _, op in base.items())))


def _product_pointer_model(m1: FIMM, m2: FIMM) -> FIMM:
    """``m1`` with the product of the two models' commuting pointers, on the
    product value-space."""
    p1, p2 = m1.pointer, m2.pointer
    pointer = Observable({combine_labels(x, y): p1[x] @ p2[y] for x in p1.labels for y in p2.labels})
    return FIMM(m1.dim_base, m1.dim_probe, m1.probe_state, m1.interaction, pointer)


def _suite_thm_4_1(seed: int, trials: int, scale: float) -> VerificationReport:
    """Coexisting instruments are exactly those measured by simultaneous,
    commuting, sharp models built over a joint instrument."""
    tol = 1e-7 * scale
    rng = _rng("thm-4.1", seed)
    worst = 0.0
    commutator_worst = 0.0
    for t in range(trials):
        d = 2
        joint = _product_labelled_instrument(rng, d, 2, 2)
        i, j = marginal_instruments(joint)
        m1, m2 = simultaneous_fimms(joint)
        if not (m1.sharp and m2.sharp):
            return VerificationReport("thm-4.1", trials, 1.0, "fail", seed, tol, "pointers not sharp")
        p, q = m1.pointer.stack[:, None], m2.pointer.stack[None]
        commutator_worst = max(commutator_worst, float(np.linalg.norm(p @ q - q @ p, axis=(-2, -1)).max()))
        meas1 = model_instrument(m1)
        meas2 = model_instrument(m2)
        worst = max(worst, family_distance(meas1, i))
        worst = max(worst, family_distance(meas2, j))
        # converse: the product pointer measures a joint instrument with the
        # same marginals as the two models.
        measured_joint = model_instrument(_product_pointer_model(m1, m2))
        if not instr_coexist_verify(meas1, meas2, measured_joint, tol):
            return VerificationReport("thm-4.1", trials, 1.0, "fail", seed, tol, "converse marginals broken")
    residual = max(worst, commutator_worst)
    status = "pass" if worst <= tol and commutator_worst <= 1e-8 * scale else "fail"
    return VerificationReport("thm-4.1", trials, residual, status, seed, tol)


def _suite_lem_4_2(seed: int, trials: int, scale: float) -> VerificationReport:
    """Coexisting observables lift to coexisting state-preparation
    instruments over any joint observable."""
    tol = 1e-8 * scale
    rng = _rng("lem-4.2", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        alpha = random_state(d, rng)
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        c = random_observable(d, 4, rng, labels=labels)
        joint = trivial_instrument(c, alpha)
        i, j = marginal_instruments(joint)
        if not instr_coexist_verify(i, j, joint, tol):
            return VerificationReport("lem-4.2", trials, 1.0, "fail", seed, tol, "joint instrument marginals broken")
        a, b = (Observable(zip(("0", "1"), c.stack.reshape(2, 2, d, d).sum(k))) for k in (1, 0))
        expect_i = trivial_instrument(a, alpha)
        expect_j = trivial_instrument(b, alpha)
        worst = max(worst, family_distance(i, expect_i))
        worst = max(worst, family_distance(j, expect_j))
        back_a = induced_observable(i)
        back_b = induced_observable(j)
        worst = max(worst, family_distance(back_a, a))
        worst = max(worst, family_distance(back_b, b))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("lem-4.2", trials, worst, status, seed, tol)


def _suite_cor_4_3(seed: int, trials: int, scale: float) -> VerificationReport:
    """Coexisting observables are measured by simultaneous, commuting, sharp
    models, and such model pairs reproduce a joint observable."""
    tol = 1e-7 * scale
    rng = _rng("cor-4.3", seed)
    worst = 0.0
    for t in range(trials):
        d = 2
        alpha = random_state(d, rng)
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        c = random_observable(d, 4, rng, labels=labels)
        a, b = (Observable(zip(("0", "1"), c.stack.reshape(2, 2, d, d).sum(k))) for k in (1, 0))
        joint = trivial_instrument(c, alpha)
        m1, m2 = simultaneous_fimms(joint)
        obs1 = induced_observable(model_instrument(m1))
        obs2 = induced_observable(model_instrument(m2))
        worst = max(worst, family_distance(obs1, a))
        worst = max(worst, family_distance(obs2, b))
        measured_c = induced_observable(model_instrument(_product_pointer_model(m1, m2)))
        if not obs_coexist_verify(a, b, measured_c, tol):
            return VerificationReport("cor-4.3", trials, 1.0, "fail", seed, tol, "measured joint observable broken")
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("cor-4.3", trials, worst, status, seed, tol)


def _suite_thm_4_4(seed: int, trials: int, scale: float) -> VerificationReport:
    """Closed forms of the basis-pairing model (instrument, dephasing
    channel, measured observable) match the partial-trace definition."""
    tol = 1e-8 * scale
    rng = _rng("thm-4.4", seed)
    worst = 0.0
    idem_worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))
        instr, channel, obs = vn_measured(model)
        direct = model_instrument(model.to_fimm())
        worst = max(worst, family_distance(instr, direct))
        worst = max(worst, frob(instr_channel(direct).choi - channel.choi))
        direct_obs = induced_observable(direct)
        worst = max(worst, family_distance(obs, direct_obs))
        rho = random_state(d, rng)
        once = channel.apply(rho)
        idem_worst = max(idem_worst, frob(channel.apply(once) - once))
    status = "pass" if worst <= tol and idem_worst <= 1e-9 * scale else "fail"
    return VerificationReport("thm-4.4", trials, max(worst, idem_worst), status, seed, tol, "channel idempotent within 1e-9")


def _suite_cor_4_5(seed: int, trials: int, scale: float) -> VerificationReport:
    """Basis-pairing models measure exactly the commutative observables."""
    tol = 1e-8 * scale
    rng = _rng("cor-4.5", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        if t % 3 == 2:
            a = identity_observable(dict(zip(("0", "1"), random_simplex(2, rng))), d)
        else:
            a = random_commutative_observable(d, 2 + t % 2, rng)
        model = vn_model_for_commutative(a, rng)
        _, _, measured = vn_measured(model)
        worst = max(worst, family_distance(measured, a))
        generic = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))
        _, _, obs = vn_measured(generic)
        if not classify_observable(obs).commutative:
            return VerificationReport("cor-4.5", trials, 1.0, "fail", seed, tol, "measured observable not commutative")
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("cor-4.5", trials, worst, status, seed, tol)


def _suite_thm_4_6(seed: int, trials: int, scale: float) -> VerificationReport:
    """Single-Kraus instruments are exactly those measured by normal models:
    dilation gives an atomic pointer and the extraction round-trips; the
    stored trivial instrument obstructs (outcome ranks exceed one)."""
    tol = 1e-8 * scale
    rng = _rng("thm-4.6", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        instr = random_kraus_instrument(d, 2 + t % 2, rng)
        m = dilate_instrument(instr)
        if not classify_observable(m.pointer).atomic:
            return VerificationReport("thm-4.6", trials, 1.0, "fail", seed, tol, "pointer not atomic")
        measured = model_instrument(m)
        worst = max(worst, family_distance(measured, instr))
        extracted = normal_fimm_kraus_extract(m)
        s_new, s_orig = np.stack([extracted[x] for x in instr.labels]), _single_kraus(instr)
        worst = max(worst, _worst(s_new.conj().swapaxes(1, 2) @ s_new, s_orig.conj().swapaxes(1, 2) @ s_orig))
    trivial = stored_trivial_instrument()
    w = np.linalg.eigvalsh(trivial.member_matrices())
    ranks_ok = bool(np.all(np.sum(w > 1e-8 * w[:, -1:], axis=1) >= 2))
    m_trivial = dilate_instrument(trivial)
    pointer_flags = classify_observable(m_trivial.pointer)
    obstruction = ranks_ok and pointer_flags.sharp and not pointer_flags.atomic
    status = "pass" if worst <= tol and obstruction else "fail"
    return VerificationReport("thm-4.6", trials, worst, status, seed, tol, "trivial instrument pointer is sharp, not atomic")


def _suite_cor_4_7(seed: int, trials: int, scale: float) -> VerificationReport:
    """A normal model measures a measurement-update instrument exactly when
    every extracted operator is positive semidefinite."""
    tol = 1e-8 * scale
    rng = _rng("cor-4.7", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        a = random_observable(d, 2, rng)
        luders = luders_instrument(a)
        m = dilate_instrument(luders)
        if not luders_positivity_check(m):
            return VerificationReport("cor-4.7", trials, 1.0, "fail", seed, tol, "positivity check failed on update model")
        measured = model_instrument(m)
        worst = max(worst, family_distance(measured, luders))
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    skew = kraus_instrument({"0": pauli_x / np.sqrt(2.0), "1": np.eye(2, dtype=complex) / np.sqrt(2.0)})
    m_skew = dilate_instrument(skew)
    negative_ok = not luders_positivity_check(m_skew)
    status = "pass" if worst <= tol and negative_ok else "fail"
    return VerificationReport("cor-4.7", trials, worst, status, seed, tol, "non-PSD operator detected")


def _suite_thm_4_8(seed: int, trials: int, scale: float) -> VerificationReport:
    """Swap-interaction models measure exactly the state-preparation
    instruments, with the model's own pointer and probe state."""
    tol = 1e-8 * scale
    rng = _rng("thm-4.8", seed)
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        eta = random_state(d, rng)
        pointer = random_observable(d, 2 + t % 2, rng)
        m = trivial_fimm(eta, pointer)
        measured = model_instrument(m)
        expected = trivial_instrument(pointer, eta)
        worst = max(worst, family_distance(measured, expected))
        # converse: starting from a state-preparation instrument, the swap
        # model over its observable and state measures it back.
        a = random_observable(d, 2, rng)
        alpha = random_state(d, rng)
        instr = trivial_instrument(a, alpha)
        m2 = trivial_fimm(alpha, a)
        measured2 = model_instrument(m2)
        worst = max(worst, family_distance(measured2, instr))
    status = "pass" if worst <= tol else "fail"
    return VerificationReport("thm-4.8", trials, worst, status, seed, tol)


def _suite_conj_2_5(seed: int, trials: int, scale: float) -> VerificationReport:
    """Probe for a complementary observable pair whose measurement-update
    instruments fail instrument-level complementarity.  Reports only the
    search outcome; asserts nothing."""
    rng = _rng("conj-2.5-converse", seed)
    found = 0
    searched = 0
    for t in range(trials):
        d = 2 + t % 3
        b1, b2 = fourier_mub(d)
        u = random_unitary(d, rng)
        if t % 2 == 0:
            a, b = atomic_observable(u @ b1), atomic_observable(u @ b2)
        else:
            a = identity_observable({"0": 0.5, "1": 0.5}, d)
            b = identity_observable({"0": 1.0 / 3, "1": 1.0 / 3, "2": 1.0 / 3}, d)
        if not obs_complementary(a, b):
            continue
        searched += 1
        if not instr_complementary(luders_instrument(a), luders_instrument(b)):
            found += 1
    note = (
        f"no counterexample found in {searched} trials"
        if found == 0
        else f"{found} counterexample candidates in {searched} trials"
    )
    return VerificationReport("conj-2.5-converse", searched, float(found), "unknown", seed, 0.0, note)


def _suite_conj_3_3(seed: int, trials: int, scale: float) -> VerificationReport:
    """Probe for a non-identity instrument whose total channel is the
    identity.  Reports only the search outcome; asserts nothing."""
    rng = _rng("conj-3.3-converse", seed)
    found = 0
    searched = 0
    for t in range(trials):
        d = 2 + t % 3
        n = 2 + t % 3
        weights = dict(zip([str(k) for k in range(n)], random_simplex(n, rng)))
        candidate = identity_instrument(weights, d)
        if frob(instr_channel(candidate).choi - Operation.identity(d).choi) <= 1e-8:
            searched += 1
            if not is_identity_instrument(candidate):
                found += 1
        generic = random_instrument(d, n, rng)
        if frob(instr_channel(generic).choi - Operation.identity(d).choi) <= 1e-8:
            searched += 1
            if not is_identity_instrument(generic):
                found += 1
    note = (
        f"no counterexample found in {searched} identity-channel candidates"
        if found == 0
        else f"{found} counterexample candidates"
    )
    return VerificationReport("conj-3.3-converse", searched, float(found), "unknown", seed, 0.0, note)


SUITES: dict[str, tuple[Callable[[int, int, float], VerificationReport], int]] = {
    "ex-1": (_suite_ex_1, 1),
    "lem-1.1": (_suite_lem_1_1, 50),
    "lem-1.2": (_suite_lem_1_2, 6),
    "thm-2.1": (_suite_thm_2_1, 100),
    "thm-2.2": (_suite_thm_2_2, 100),
    "thm-2.3": (_suite_thm_2_3, 100),
    "lem-2.4": (_suite_lem_2_4, 50),
    "cor-2.5": (_suite_cor_2_5, 50),
    "lem-2.6": (_suite_lem_2_6, 20),
    "ex-2": (_suite_ex_2, 1),
    "ex-3": (_suite_ex_3, 20),
    "ex-4": (_suite_ex_4, 20),
    "ex-5": (_suite_ex_5, 20),
    "ex-6": (_suite_ex_6, 20),
    "ex-7": (_suite_ex_7, 20),
    "ex-8": (_suite_ex_8, 50),
    "lem-3.1": (_suite_lem_3_1, 100),
    "thm-3.2": (_suite_thm_3_2, 1),
    "cor-3.3": (_suite_cor_3_3, 20),
    "lem-3.4": (_suite_lem_3_4, 50),
    "thm-4.1": (_suite_thm_4_1, 5),
    "lem-4.2": (_suite_lem_4_2, 20),
    "cor-4.3": (_suite_cor_4_3, 5),
    "thm-4.4": (_suite_thm_4_4, 20),
    "cor-4.5": (_suite_cor_4_5, 20),
    "thm-4.6": (_suite_thm_4_6, 10),
    "cor-4.7": (_suite_cor_4_7, 10),
    "thm-4.8": (_suite_thm_4_8, 20),
    "conj-2.5-converse": (_suite_conj_2_5, 40),
    "conj-3.3-converse": (_suite_conj_3_3, 40),
}


def run_suite(result_id: str, seed: int = 0, trials: int | None = None, tol_scale: float = 1.0) -> VerificationReport:
    if result_id not in SUITES:
        raise KeyError(f"unknown suite id {result_id!r}")
    if seed < 0 or (trials is not None and trials < 1):
        raise QinstrError(f"seed must be nonnegative, got {seed}" if seed < 0 else f"trials must be at least 1, got {trials}")
    fn, default_trials = SUITES[result_id]
    return fn(seed, trials if trials is not None else default_trials, tol_scale)


def run_suites(
    ids: list[str] | None = None,
    seed: int = 0,
    trials: int | None = None,
    tol_scale: float = 1.0,
) -> list[VerificationReport]:
    selected = list(SUITES) if not ids else ids
    return [run_suite(rid, seed, trials, tol_scale) for rid in selected]
