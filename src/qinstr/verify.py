"""Numerical verification suites for the toolkit's catalog of results.

Each suite re-derives one identity, counterexample, or construction on
concrete matrices.  ``SUITES`` is the one table: id -> suite function,
default trials, pinned tolerance.  A suite is a function of one run record
(``_Run``): it draws from ``run.rng`` in each trial of ``run.cases(*dims)``
and records residuals, gap floors and its note; ``run.require`` ends it
early as a fail.  ``run_suite``, the one runner, seeds the generator from
the id and the seed, scales the tolerance and applies one status rule:
``pass`` when the worst residual is at most the scaled tolerance and every
gap floor (and tighter bound) is met, else ``fail``.  ``fixed`` suites run
a fixed set and report its count whatever ``trials`` is.  The two ``conj-*``
probes (tolerance ``None``) only ever report "unknown", with the number of
cases searched; they assert nothing.

The four suites of 100 trials (thm-2.1, thm-2.2, thm-2.3 and lem-3.1, in
``_BATCHED``) draw every trial with the public generators' Generator calls,
in order (``_Run.groups``), and run each group of trials that share a shape
(dimension and outcome counts) as one array program of the library's kernels,
with every sum check, root PSD check and ``d^2`` cut; each group's first
trial also runs through the public functions, on the same draws.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .effects import (
    CoexistenceWitness,
    atom,
    binary_observables_from_coexistence,
    complement,
    ensure_effect,
    seq_product,
    seq_products,
)
from .errors import InvalidWitness, QinstrError
from .instruments import (
    Instrument,
    Operation,
    _checked_sum,
    _choi_rank,
    _effects,
    _mixed,
    _outputs,
    _reduced,
    _relabelled,
    choi_distances,
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
from .linalg import CHOI_TOL, MODEL_TOL, frob, herm_sqrt, hermitian_part, spectral_norm
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
    von_neumann_unitary,
)
from .observables import (
    Observable,
    StochasticMatrix,
    _combined,
    _pair_traces,
    _probability_table,
    _set_probabilities,
    _valid_stack,
    atomic_observable,
    check_distinct_labels,
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
    _ginibres_of,
    _normals,
    _states,
    _whitened_effects,
    _whitened_kraus,
    default_labels,
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


class _Stop(Exception):
    """A failed ``_Run.require``; its message is the report's note."""


@dataclass
class _Run:
    """One suite run: what the runner hands the suite, and what it records."""

    rng: np.random.Generator
    trials: int
    scale: float
    tol: float  # the pinned tolerance times ``scale``
    worst: float = 0.0
    met: bool = True  # False once a gap floor or tighter bound is missed
    note: str = ""
    count: int | None = None  # cases checked, reported in place of ``trials``

    def residual(self, *values: float, bound: float | None = None) -> None:
        """Keep the running max; the values must also meet ``bound * scale``."""
        self.worst = max(self.worst, *values)
        if bound is not None:
            self.met = self.met and max(values) <= bound * self.scale

    def gap(self, text: str, value: float, floor: float) -> None:
        """A counterexample must separate by at least ``floor`` (unscaled)."""
        self.met = self.met and value >= floor
        self.note = f"{text} {value:.3g} >= {np.format_float_scientific(floor, trim='-', exp_digits=1)}"

    def cases(self, *dims: int) -> Iterator[tuple[int, int]]:
        """Each trial's index and dimension, cycling through ``dims``."""
        return ((t, dims[t % len(dims)]) for t in range(self.trials))

    def require(self, cond: bool, note: str) -> None:
        if not cond:
            raise _Stop(note)

    def groups(self, period: int, dims: tuple[int, ...], draw: Callable) -> list[tuple]:
        """The trials of ``cases(*dims)``, each drawn in order by ``draw(rng, t, d)``,
        grouped by their shape ``t % period``: per group, its first trial ``t`` and
        dimension ``d``, a copy of the generator from before that trial's draws
        (it replays them) and each draw stacked over the group's trials."""
        groups: dict[int, tuple] = {}
        for t, d in self.cases(*dims):
            if t % period not in groups:
                groups[t % period] = (t, d, copy.deepcopy(self.rng), [])
            groups[t % period][3].append(draw(self.rng, t, d))
        return [(t, d, replay, [np.stack(x) for x in zip(*draws)]) for t, d, replay, draws in groups.values()]


def _worst(a: np.ndarray, b: np.ndarray) -> float:
    """Largest Frobenius distance between matching matrices of two stacks."""
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max())


def _kraus_gap(instr: Instrument, stacks: list[np.ndarray]) -> float:
    """Largest Choi-form distance between the outcomes of ``instr``, in label
    order, and the maps of the Kraus stacks ``stacks``."""
    return float(choi_distances(instr.kraus, stacks).max())


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


def _suite_ex_1(run: _Run) -> None:
    """Sequential product is non-associative: rank-one closed forms differ by
    exactly one quarter in operator norm."""
    e1 = np.array([1.0, 0.0], dtype=complex)
    beta = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    a, b, c = atom(e1), atom(beta), atom(e1)
    left = seq_product(a, seq_product(b, c))
    right = seq_product(seq_product(a, b), c)
    p = atom(e1)
    run.residual(frob(left - 0.25 * p), frob(right - 0.5 * p))
    run.residual(abs(spectral_norm(right - left) - 0.25))
    run.note = "gap in operator norm is 1/4"


def _suite_lem_1_1(run: _Run) -> None:
    """Commuting effects coexist: the algebraic witness validates and the
    binary joint observable has the right marginals."""
    for _, d in run.cases(2, 3, 4):
        a, b = random_commuting_effect_pair(d, run.rng)
        ab = ensure_effect(hermitian_part(a @ b))
        w = CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab)
        # joint[x, y] in label order ("1", "1"), ("1", "2"), ...: its row and
        # column sums must give {a, a'} and {b, b'}
        try:
            joint = binary_observables_from_coexistence(a, b, w).stack.reshape(2, 2, d, d)
        except InvalidWitness:
            raise _Stop("witness rejected")
        run.residual(_worst(joint.sum(1), np.stack([a, complement(a)])))
        run.residual(_worst(joint.sum(0), np.stack([b, complement(b)])))


def _suite_lem_1_2(run: _Run) -> None:
    """Atomic observables are complementary exactly for mutually unbiased
    bases; a generic basis pair misses by a visible margin."""
    for d in (2, 3, 4, 5):
        basis1, basis2 = fourier_mub(d)
        overlaps = np.abs(basis1.conj().T @ basis2) ** 2
        run.residual(float(np.max(np.abs(overlaps - 1.0 / d))))
        run.residual(complementarity_residual(atomic_observable(basis1), atomic_observable(basis2)))
    run.note = "non-MUB residual >= 1e-3"
    for d in (2, 3):
        # A random pair can be nearly unbiased, and then its residual is
        # small for a good reason; redraw until the overlaps deviate from
        # 1/d by at least 0.05 (residual/deviation >= 1 for d = 2, 3).
        while True:
            u, v = random_unitary(d, run.rng), random_unitary(d, run.rng)
            if np.max(np.abs(np.abs(u.conj().T @ v) ** 2 - 1.0 / d)) >= 0.05:
                break
        residual = complementarity_residual(atomic_observable(u), atomic_observable(v))
        run.require(residual >= 1e-3, run.note)


def _checked(kraus: np.ndarray, bound: float = CHOI_TOL) -> tuple[np.ndarray, np.ndarray]:
    """A batch of padded Kraus arrays, ``(t, m, r, d, d)``, and its effects, each
    trial's sum checked (``_checked_sum``) as ``Instrument._from_kraus`` checks it."""
    return _checked_sum(kraus, _effects(kraus), bound)


def _assembled_batch(ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``instruments._assembled`` on a ``(t, m, r, d, d)`` batch: every outcome
    of every trial one row of ``_reduced`` (cut at ``d^2``), then the sum check up to ``MODEL_TOL``."""
    t, m, r, d = *ops.shape[:3], ops.shape[-1]
    kraus = _reduced(ops.reshape(-1, r, d, d), np.full(t * m, r), d * d)[0]
    return _checked(kraus.reshape(t, m, -1, d, d), MODEL_TOL)


def _post_processed(c: np.ndarray, kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``instr_post_process`` on a batch, with ``c = nu^T`` per trial."""
    ops = _relabelled(c, kraus)
    return _assembled_batch(ops.reshape(*ops.shape[:2], -1, *ops.shape[-2:]))


def _roots(stack: np.ndarray) -> np.ndarray:
    """The effects' roots of a ``(t, m, d, d)`` batch, from one ``herm_sqrt`` call."""
    return herm_sqrt(stack.reshape(-1, *stack.shape[-2:])).reshape(stack.shape)


def _draw_thm_2_1(rng: np.random.Generator, t: int, d: int) -> tuple:
    return (_normals(rng, 2 + t % 3, d, d),)


def _public_thm_2_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    a = random_observable(d, 2 + t % 3, rng)
    return (family_distance(induced_observable(luders_instrument(a)), a),)


def _batch_thm_2_1(g: np.ndarray) -> tuple[float, ...]:
    a = _valid_stack(_whitened_effects(_ginibres_of(g)))
    return (_worst(_valid_stack(_checked(_roots(a)[..., None, :, :])[1]), a),)


def _draw_thm_2_2(rng: np.random.Generator, t: int, d: int) -> tuple:
    return random_simplex(3, rng), *(_normals(rng, 2 + t % 2, 2, d, d) for _ in range(3))


def _public_thm_2_2(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    n = 2 + t % 2
    weights = random_simplex(3, rng)
    parts = [random_instrument(d, n, rng) for _ in range(3)]
    a_mix = induced_observable(instr_convex_combo(weights, parts))
    return (family_distance(a_mix, obs_convex_combo(weights, [induced_observable(p) for p in parts])),)


def _batch_thm_2_2(weights: np.ndarray, *raw: np.ndarray) -> tuple[float, ...]:
    parts, effects = _checked(_whitened_kraus(_ginibres_of(np.stack(raw, axis=1))))
    a_mix = _valid_stack(_assembled_batch(_mixed(weights, parts.swapaxes(0, 1)))[1])
    return (_worst(a_mix, _valid_stack(_combined(weights[:, None], _valid_stack(effects))[:, 0])),)


_TARGETS = ["t0", "t1"]


def _draw_thm_2_3(rng: np.random.Generator, t: int, d: int) -> tuple:
    n = 2 + t % 2
    raw = _normals(rng, n, 2, d, d)
    nu = random_stochastic(default_labels(n), _TARGETS, rng).matrix
    return raw, nu, random_simplex(2, rng), _normals(rng, n, 2, d, d)


def _public_thm_2_3(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    n = 2 + t % 2
    instr = random_instrument(d, n, rng)
    nu = random_stochastic(list(instr.labels), _TARGETS, rng)
    lhs = induced_observable(instr_post_process(nu, instr))
    rhs = obs_post_process(nu, induced_observable(instr))
    weights = random_simplex(2, rng)
    other = random_instrument(d, n, rng)
    mixed = instr_post_process(nu, instr_convex_combo(weights, [instr, other]))
    split = instr_convex_combo(weights, [instr_post_process(nu, instr), instr_post_process(nu, other)])
    return family_distance(lhs, rhs), family_distance(mixed, split)


def _batch_thm_2_3(raw: np.ndarray, nu: np.ndarray, weights: np.ndarray, raw_other: np.ndarray) -> tuple[float, ...]:
    c = nu.swapaxes(1, 2)
    (instr, effects), (other, _) = (_checked(_whitened_kraus(_ginibres_of(x))) for x in (raw, raw_other))
    processed, processed_effects = _post_processed(c, instr)
    rhs = _valid_stack(_combined(c, _valid_stack(effects)))
    mixed = _post_processed(c, _assembled_batch(_mixed(weights, [instr, other]))[0])[0]
    split = _assembled_batch(_mixed(weights, [processed, _post_processed(c, other)[0]]))[0]
    gaps = choi_distances(mixed.reshape(-1, *mixed.shape[2:]), split.reshape(-1, *split.shape[2:]))
    return _worst(_valid_stack(processed_effects), rhs), float(gaps.max())


def _draw_lem_3_1(rng: np.random.Generator, t: int, d: int) -> tuple:
    m, n = 2 + t % 2, 2 + (t + 1) % 2
    a, b, g = _normals(rng, m, d, d), _normals(rng, n, d, d), _normals(rng, d, d)
    x = [rng.random() < 0.6 or k == 0 for k in range(m)]
    return a, b, g, x, [rng.random() < 0.6 or k == 0 for k in range(n)]


def _public_lem_3_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    m, n = 2 + t % 2, 2 + (t + 1) % 2
    a = random_observable(d, m, rng)
    b = random_observable(d, n, rng)
    rho = random_state(d, rng)
    x_set = [lab for k, lab in enumerate(a.labels) if rng.random() < 0.6 or k == 0]
    y_set = [lab for k, lab in enumerate(b.labels) if rng.random() < 0.6 or k == 0]
    p_instr = joint_probability_instr(rho, luders_instrument(a), x_set, luders_instrument(b), y_set)
    return (abs(p_instr - joint_probability_then(rho, a, x_set, b, y_set)),)


def _batch_lem_3_1(ga: np.ndarray, gb: np.ndarray, g: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    a, b = (_valid_stack(_whitened_effects(_ginibres_of(s))) for s in (ga, gb))
    rho = _states(_ginibres_of(g))
    roots = _roots(a)
    luders_a = _checked(roots[..., None, :, :])[0].reshape(-1, 1, *a.shape[-2:])
    states = np.repeat(rho, a.shape[1], axis=0)[:, None]
    outputs = _outputs(luders_a, states).reshape(a.shape)
    p_instr = _set_probabilities(_pair_traces(outputs, _checked(_roots(b)[..., None, :, :])[1]), x, y)
    p_obs = _set_probabilities(_probability_table(rho, seq_products(roots, b)), x, y)
    return (float(np.abs(p_instr - p_obs).max()),)


class _Batched(NamedTuple):
    """A suite's trials run as one array program per shape (``_Run.groups``)."""

    period: int  # trials t and t + period share a shape
    dims: tuple[int, ...]
    draw: Callable  # one trial's draws: the public route's Generator calls, in order
    public: Callable  # one trial through the public functions, from a generator: its residuals
    batch: Callable  # a group's residuals from its stacked draws


_BATCHED = {
    "thm-2.1": _Batched(3, (2, 3, 4), _draw_thm_2_1, _public_thm_2_1, _batch_thm_2_1),
    "thm-2.2": _Batched(6, (2, 3, 4), _draw_thm_2_2, _public_thm_2_2, _batch_thm_2_2),
    "thm-2.3": _Batched(6, (2, 3, 4), _draw_thm_2_3, _public_thm_2_3, _batch_thm_2_3),
    "lem-3.1": _Batched(6, (2, 3, 4), _draw_lem_3_1, _public_lem_3_1, _batch_lem_3_1),
}


def _batched_trials(run: _Run, result_id: str) -> None:
    """Every trial's residuals from its group's array program, and the first
    trial of each group's also through the public functions, on the same draws."""
    spec = _BATCHED[result_id]
    for t, d, replay, draws in run.groups(spec.period, spec.dims, spec.draw):
        run.residual(*spec.public(replay, t, d), *spec.batch(*draws))


def _suite_thm_2_1(run: _Run) -> None:
    """The observable of a measurement-update instrument is the observable it
    came from; the reverse composition is not the identity on instruments."""
    _batched_trials(run, "thm-2.1")
    # KJ fixes exactly the measurement-update instruments
    a = random_observable(2, 2, run.rng)
    luders = luders_instrument(a)
    run.residual(family_distance(luders_instrument(induced_observable(luders)), luders))
    trivial = stored_trivial_instrument()
    rebuilt = luders_instrument(induced_observable(trivial))
    run.gap("KJ gap", family_distance(rebuilt, trivial), 1e-3)


def _suite_thm_2_2(run: _Run) -> None:
    """Instrument mixtures mix their observables; observable mixtures do not
    mix their measurement-update instruments (cross terms survive)."""
    _batched_trials(run, "thm-2.2")
    a, b = sharp_qubit_z(), sharp_qubit_x()
    b_relab = Observable({"0": b["+"], "1": b["-"]})
    mixed_obs = obs_convex_combo([0.5, 0.5], [a, b_relab])
    rho = np.diag([1.0, 0.0]).astype(complex)
    lhs, out_a, out_b = (_outputs(luders_instrument(o).kraus, rho) for o in (mixed_obs, a, b_relab))
    run.gap("K mixture gap", _worst(lhs, 0.5 * out_a + 0.5 * out_b), 1e-2)


def _suite_thm_2_3(run: _Run) -> None:
    """Post-processing commutes with taking the observable of an instrument,
    and distributes over mixtures, but not with the measurement-update map."""
    _batched_trials(run, "thm-2.3")
    a = sharp_qubit_z()
    nu = StochasticMatrix(["0", "1"], ["0", "1"], [[0.5, 0.5], [0.5, 0.5]])
    rho = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    lhs, out = (_outputs(luders_instrument(o).kraus, rho) for o in (obs_post_process(nu, a), a))
    run.gap("K post-processing gap", _worst(lhs, np.tensordot(nu.matrix.T, out, 1)), 1e-3)


def _complementary_pair_catalog(rng: np.random.Generator, count: int):
    """Instrument pairs labelled with whether their observables are
    complementary; used for the complementarity agreement suites."""
    pairs = []
    for t in range(count):
        kind = t % 5
        d = 2 + t % 3
        if kind in (0, 2):
            # a mutually unbiased pair, rotated by a random unitary for kind 2
            b1, b2 = fourier_mub(d)
            if kind == 2:
                u = random_unitary(d, rng)
                b1, b2 = u @ b1, u @ b2
            pairs.append((luders_instrument(atomic_observable(b1)), luders_instrument(atomic_observable(b2))))
        elif kind == 1:
            a = identity_observable({"0": 0.5, "1": 0.5}, d)
            b = identity_observable({"0": 1.0 / 3, "1": 1.0 / 3, "2": 1.0 / 3}, d)
            alpha = random_state(d, rng)
            pairs.append((trivial_instrument(a, alpha), trivial_instrument(b, alpha)))
        elif kind == 3:
            a = random_observable(d, 2, rng)
            pairs.append((luders_instrument(a), luders_instrument(a)))
        else:
            pairs.append((random_instrument(d, 2, rng), random_instrument(d, 2, rng)))
    return pairs


def _suite_lem_2_4(run: _Run) -> None:
    """Instrument-level complementarity agrees exactly with observable-level
    complementarity of the induced observables."""
    disagreements = 0
    for i, j in _complementary_pair_catalog(run.rng, run.trials):
        lhs = instr_complementary(i, j)
        rhs = obs_complementary(induced_observable(i), induced_observable(j))
        if lhs != rhs:
            disagreements += 1
    run.residual(disagreements)
    run.note = "boolean agreement"


def _suite_cor_2_5(run: _Run) -> None:
    """Complementary measurement-update instruments come from complementary
    observables."""
    failures = 0
    run.count = 0
    for i, j in _complementary_pair_catalog(run.rng, run.trials):
        if instr_complementary(i, j):
            run.count += 1
            if not obs_complementary(induced_observable(i), induced_observable(j)):
                failures += 1
    run.residual(failures)
    run.note = f"{run.count} complementary pairs checked"
    run.require(run.count > 0, run.note)


def _suite_lem_2_6(run: _Run) -> None:
    """Coexisting instruments induce coexisting observables."""
    for _, d in run.cases(2, 3):
        alpha = random_state(d, run.rng)
        joint_instr = trivial_instrument(_product_labelled_observable(run.rng, d), alpha)
        i, j = marginal_instruments(joint_instr)
        run.require(instr_coexist_verify(i, j, joint_instr, run.tol), "joint marginals broken")
        a, b, c = induced_observable(i), induced_observable(j), induced_observable(joint_instr)
        run.require(obs_coexist_verify(a, b, c, run.tol), "observables do not coexist")
        run.residual(marginal_defect(a, b, c))


def _outcome_ranks_exceed_one(instr: Instrument) -> bool:
    """Every outcome Choi matrix has rank two or more (``_choi_rank``)."""
    return all(_choi_rank(op) >= 2 for _, op in instr.items())


def _suite_ex_2(run: _Run) -> None:
    """The stored trivial instrument admits no single Kraus operator: every
    outcome Choi matrix has rank four."""
    trivial = stored_trivial_instrument()
    ok = _outcome_ranks_exceed_one(trivial) and not any(is_single_kraus(op) for _, op in trivial.items())
    luders = luders_instrument(sharp_qubit_z())
    ok = ok and all(is_single_kraus(op) for _, op in luders.items())
    run.note = "outcome Choi ranks >= 2"
    run.require(ok, run.note)


def _suite_ex_3(run: _Run) -> None:
    """Products of single-Kraus instruments compose their operators, and the
    induced observable of the product is generally not the observable
    product."""
    for _, d in run.cases(2, 3):
        i = random_kraus_instrument(d, 2, run.rng)
        j = random_kraus_instrument(d, 2, run.rng)
        s, tt = i.kraus[:, 0], j.kraus[:, 0]
        # expected[x, y] = S_x^* T_y^* T_y S_x, the effect of outcome (x, y)
        expected = s.conj().swapaxes(1, 2)[:, None] @ tt.conj().swapaxes(1, 2)[None] @ tt[None] @ s[:, None]
        a_prod = induced_observable(instr_product(i, j)).stack.reshape(expected.shape)
        b_cond = induced_observable(instr_conditioned(i, j)).stack
        run.residual(_worst(a_prod, expected), _worst(b_cond, expected.sum(0)))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    i = kraus_instrument({"0": np.eye(2, dtype=complex) / np.sqrt(2.0), "1": hadamard / np.sqrt(2.0)})
    j = luders_instrument(sharp_qubit_z())
    lhs = induced_observable(instr_product(i, j))
    rhs = obs_seq_product(induced_observable(i), induced_observable(j))
    run.gap("observable-product gap", family_distance(lhs, rhs), 1e-3)


def _suite_ex_4(run: _Run) -> None:
    """For measurement-update instruments the product observable law holds,
    and the update map is multiplicative exactly on commuting pairs."""
    for _, d in run.cases(2, 3):
        a = random_observable(d, 2, run.rng)
        b = random_observable(d, 2, run.rng)
        lhs = induced_observable(instr_product(luders_instrument(a), luders_instrument(b)))
        rhs = obs_seq_product(a, b)
        run.residual(family_distance(lhs, rhs))
        cond = induced_observable(instr_conditioned(luders_instrument(a), luders_instrument(b)))
        expected = obs_conditioned(a, b)
        run.residual(family_distance(cond, expected))
    # commuting branch: same eigenbasis by construction
    u = random_unitary(3, run.rng)
    diag_a, diag_b = (run.rng.dirichlet(np.ones(2), size=3).T[:, :, None] * np.eye(3) for _ in range(2))
    a_com, b_com = (Observable(zip(("0", "1"), u @ diag.astype(complex) @ u.conj().T)) for diag in (diag_a, diag_b))
    run.require(obs_commute(a_com, b_com), "construction should commute")
    k_joint = luders_instrument(obs_seq_product(a_com, b_com))
    k_split = instr_product(luders_instrument(a_com), luders_instrument(b_com))
    run.residual(family_distance(k_joint, k_split))
    a, b = sharp_qubit_z(), sharp_qubit_x()
    k_joint = luders_instrument(obs_seq_product(a, b))
    k_split = instr_product(luders_instrument(a), luders_instrument(b))
    run.gap("non-commuting gap", family_distance(k_joint, k_split), 1e-3)


def _suite_ex_5(run: _Run) -> None:
    """Products and conditioning against an identity instrument only scale:
    conditioning a generic instrument on it returns that instrument."""
    for _, d in run.cases(2, 3):
        w = random_simplex(2, run.rng)
        ident = identity_instrument(dict(zip(["0", "1"], w)), d)
        j = random_instrument(d, 2, run.rng)
        roots, kj = np.sqrt(w), [op._kraus for _, op in j.items()]  # sqrt(w_x) K is a Kraus stack of w_x J_y
        run.residual(_kraus_gap(instr_product(ident, j), [r * k for r in roots for k in kj]))
        run.residual(_kraus_gap(instr_product(j, ident), [r * k for k in kj for r in roots]))
        run.residual(family_distance(instr_conditioned(ident, j), j))
        run.residual(_kraus_gap(instr_conditioned(j, ident), [r * instr_channel(j)._kraus for r in roots]))


def _suite_ex_6(run: _Run) -> None:
    """Products of state-preparation instruments factorize through the
    prepared state, and conditioning loses the first observable entirely."""
    for _, d in run.cases(2, 3):
        a = random_observable(d, 2, run.rng)
        b = random_observable(d, 2, run.rng)
        alpha = random_state(d, run.rng)
        beta = random_state(d, run.rng)
        prod = instr_product(trivial_instrument(a, alpha), trivial_instrument(b, beta))
        roots = np.sqrt(np.trace(alpha @ b.stack, axis1=1, axis2=2).real)  # sqrt(tr(alpha B_y))
        ka = [op._kraus for _, op in trivial_instrument(a, beta).items()]  # rho -> tr(rho A_x) beta
        run.residual(_kraus_gap(prod, [r * k for k in ka for r in roots]))
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    i = j = trivial_instrument(a, alpha)
    lhs = induced_observable(instr_conditioned(i, j))
    rhs = obs_conditioned(a, a)
    run.gap("conditioned-observable gap", family_distance(lhs, rhs), 1e-3)


def _suite_ex_7(run: _Run) -> None:
    """Sequential probabilities of state-preparation instruments factorize as
    tr(rho A_X) tr(alpha B_Y), unlike the observable-level probabilities."""
    for _, d in run.cases(2, 3):
        a = random_observable(d, 2, run.rng)
        b = random_observable(d, 2, run.rng)
        alpha = random_state(d, run.rng)
        beta = random_state(d, run.rng)
        rho = random_state(d, run.rng)
        i = trivial_instrument(a, alpha)
        j = trivial_instrument(b, beta)
        x_set, y_set = [a.labels[0]], [b.labels[1]]
        p = joint_probability_instr(rho, i, x_set, j, y_set)
        expected = float(np.trace(rho @ a[x_set[0]]).real) * float(np.trace(alpha @ b[y_set[0]]).real)
        run.residual(abs(p - expected))
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = np.diag([1.0, 0.0]).astype(complex)
    i = j = trivial_instrument(a, alpha)
    p_instr = joint_probability_instr(rho, i, ["0"], j, ["0"])
    p_obs = joint_probability_then(rho, a, ["0"], a, ["0"])
    run.gap("probability gap", abs(p_instr - p_obs), 1e-3)


def _suite_ex_8(run: _Run) -> None:
    """Measurement-update instruments reproduce the observable-level
    sequential probabilities outcome by outcome."""
    for _, d in run.cases(2, 3, 4):
        a = random_observable(d, 2, run.rng)
        b = random_observable(d, 2, run.rng)
        rho = random_state(d, run.rng)
        p_instr = joint_probability_table_instr(rho, luders_instrument(a), luders_instrument(b))
        run.residual(float(np.abs(p_instr - joint_probability_table(rho, a, b)).max()))


def _suite_lem_3_1(run: _Run) -> None:
    """Set-level sequential probabilities of measurement-update instruments
    match the observable-level joint probabilities."""
    _batched_trials(run, "lem-3.1")


def _suite_thm_3_2(run: _Run) -> None:
    """Splitting a channel into its canonical Kraus instrument yields an
    identity instrument exactly for the identity channel."""
    for d in (2, 3):
        split = kraus_instrument_from_channel(Operation.identity(d))
        run.require(is_identity_instrument(split, run.tol), "identity channel split")
        u = random_unitary(d, run.rng)
        split_u = kraus_instrument_from_channel(Operation.from_unitary(u))
        run.require(len(split_u) == 1, "unitary channel should have one operator")
        if d == 2:
            dephasing = instr_channel(luders_instrument(sharp_qubit_z()))
            split_z = kraus_instrument_from_channel(dephasing)
            p, q = (op.kraus_ops()[0] for _, op in split_z.items())
            run.residual(min(frob(p @ q), frob(q @ p)))
            run.require(not is_identity_instrument(split_z, run.tol), "dephasing is not an identity instrument")


def _identity_channel_distance(instr: Instrument) -> float:
    """Frobenius distance of the total channel's Choi matrix from the identity's."""
    return float(choi_distances([instr_channel(instr)._kraus], [np.eye(instr.dim)[None]])[0])


def _suite_cor_3_3(run: _Run) -> None:
    """Identity instruments always sum to the identity channel."""
    for t, d in run.cases(2, 3, 4):
        n = 2 + t % 3
        weights = dict(zip([str(k) for k in range(n)], random_simplex(n, run.rng)))
        ident = identity_instrument(weights, d)
        run.residual(_identity_channel_distance(ident))


def _suite_lem_3_4(run: _Run) -> None:
    """The total channel of a product instrument, of a conditioned
    instrument, and the composition of the total channels all agree."""
    for t, d in run.cases(2, 3):
        i = random_instrument(d, 2, run.rng)
        j = random_instrument(d, 2 + t % 2, run.rng)
        prod_hat = instr_channel(instr_product(i, j))
        cond_hat = instr_channel(instr_conditioned(i, j))
        composed = compose_operations(instr_channel(j), instr_channel(i))
        p, c, k = prod_hat._kraus, cond_hat._kraus, composed._kraus
        run.residual(*choi_distances([p, p, c], [c, k, k]))


def _product_labelled_instrument(rng: np.random.Generator, d: int, m: int, n: int) -> Instrument:
    base = random_instrument(d, m * n, rng)
    labels = [combine_labels(str(x), str(y)) for x in range(m) for y in range(n)]
    return Instrument(zip(labels, (op for _, op in base.items())))


def _product_labelled_observable(rng: np.random.Generator, d: int) -> Observable:
    """A random observable on the product labels (x, y), x, y in {0, 1}."""
    return random_observable(d, 4, rng, labels=[combine_labels(str(x), str(y)) for x in range(2) for y in range(2)])


def _marginal_observables(c: Observable) -> tuple[Observable, ...]:
    """The x- and y-marginals of a ``_product_labelled_observable``."""
    return tuple(Observable(zip(("0", "1"), c.stack.reshape(2, 2, c.dim, c.dim).sum(k))) for k in (1, 0))


def _product_pointer_model(m1: FIMM, m2: FIMM) -> FIMM:
    """A dilation of ``m1``'s isometry with the product of the two models'
    commuting pointers, on the product value-space: both are re-pointings of
    one dilation, so probe slot ``s`` goes to the pair of its two outcomes."""
    p1, p2 = m1._labels, m2._labels
    labels = check_distinct_labels([combine_labels(x, y) for x in p1 for y in p2])
    return m1._repointed(labels, m1._owner * len(p2) + m2._owner)


def _suite_thm_4_1(run: _Run) -> None:
    """Coexisting instruments are exactly those measured by simultaneous,
    commuting, sharp models built over a joint instrument."""
    for _, d in run.cases(2):
        joint = _product_labelled_instrument(run.rng, d, 2, 2)
        i, j = marginal_instruments(joint)
        m1, m2 = simultaneous_fimms(joint)
        run.require(m1.sharp and m2.sharp, "pointers not sharp")
        p, q = m1.pointer.stack[:, None], m2.pointer.stack[None]
        run.residual(_worst(p @ q, q @ p), bound=1e-8)
        meas1 = model_instrument(m1)
        meas2 = model_instrument(m2)
        run.residual(family_distance(meas1, i))
        run.residual(family_distance(meas2, j))
        # converse: the product pointer measures a joint instrument with the
        # same marginals as the two models.
        measured_joint = model_instrument(_product_pointer_model(m1, m2))
        run.require(instr_coexist_verify(meas1, meas2, measured_joint, run.tol), "converse marginals broken")


def _suite_lem_4_2(run: _Run) -> None:
    """Coexisting observables lift to coexisting state-preparation
    instruments over any joint observable."""
    for _, d in run.cases(2, 3):
        alpha = random_state(d, run.rng)
        c = _product_labelled_observable(run.rng, d)
        joint = trivial_instrument(c, alpha)
        i, j = marginal_instruments(joint)
        run.require(instr_coexist_verify(i, j, joint, run.tol), "joint instrument marginals broken")
        a, b = _marginal_observables(c)
        expect_i = trivial_instrument(a, alpha)
        expect_j = trivial_instrument(b, alpha)
        run.residual(family_distance(i, expect_i))
        run.residual(family_distance(j, expect_j))
        back_a = induced_observable(i)
        back_b = induced_observable(j)
        run.residual(family_distance(back_a, a))
        run.residual(family_distance(back_b, b))


def _suite_cor_4_3(run: _Run) -> None:
    """Coexisting observables are measured by simultaneous, commuting, sharp
    models, and such model pairs reproduce a joint observable."""
    for _, d in run.cases(2):
        alpha = random_state(d, run.rng)
        c = _product_labelled_observable(run.rng, d)
        a, b = _marginal_observables(c)
        joint = trivial_instrument(c, alpha)
        m1, m2 = simultaneous_fimms(joint)
        obs1 = induced_observable(model_instrument(m1))
        obs2 = induced_observable(model_instrument(m2))
        run.residual(family_distance(obs1, a))
        run.residual(family_distance(obs2, b))
        measured_c = induced_observable(model_instrument(_product_pointer_model(m1, m2)))
        run.require(obs_coexist_verify(a, b, measured_c, run.tol), "measured joint observable broken")


def _suite_thm_4_4(run: _Run) -> None:
    """Closed forms of the basis-pairing model (instrument, dephasing
    channel, measured observable) match the partial-trace definition, both
    on the model's closed-form ``W`` and on a public ``FIMM`` built from the
    pairing unitary."""
    for _, d in run.cases(2, 3):
        model = VonNeumannModel(random_unitary(d, run.rng), random_unitary(d, run.rng), random_observable(d, 2, run.rng))
        instr, channel, obs = vn_measured(model)
        direct = model_instrument(model)
        unitary = von_neumann_unitary(model.base_basis, model.probe_basis)
        public = model_instrument(FIMM(d, d, model.probe_state, unitary, model.pointer))
        run.residual(family_distance(instr, direct))
        run.residual(family_distance(instr, public))
        run.residual(*choi_distances([instr_channel(direct)._kraus], [channel._kraus]))
        direct_obs = induced_observable(direct)
        run.residual(family_distance(obs, direct_obs))
        rho = random_state(d, run.rng)
        once = channel.apply(rho)
        run.residual(frob(channel.apply(once) - once), bound=1e-9)
    run.note = "channel idempotent within 1e-9"


def _suite_cor_4_5(run: _Run) -> None:
    """Basis-pairing models measure exactly the commutative observables."""
    for t, d in run.cases(2, 3):
        if t % 3 == 2:
            a = identity_observable(dict(zip(("0", "1"), random_simplex(2, run.rng))), d)
        else:
            a = random_commutative_observable(d, 2 + t % 2, run.rng)
        model = vn_model_for_commutative(a, run.rng)
        _, _, measured = vn_measured(model)
        run.residual(family_distance(measured, a))
        generic = VonNeumannModel(random_unitary(d, run.rng), random_unitary(d, run.rng), random_observable(d, 2, run.rng))
        _, _, obs = vn_measured(generic)
        run.require(classify_observable(obs).commutative, "measured observable not commutative")


def _suite_thm_4_6(run: _Run) -> None:
    """Single-Kraus instruments are exactly those measured by normal models:
    dilation gives an atomic pointer and the extraction round-trips; the
    stored trivial instrument obstructs (outcome ranks exceed one)."""
    for t, d in run.cases(2, 3):
        instr = random_kraus_instrument(d, 2 + t % 2, run.rng)
        m = dilate_instrument(instr)
        run.require(classify_observable(m.pointer).atomic, "pointer not atomic")
        measured = model_instrument(m)
        run.residual(family_distance(measured, instr))
        extracted = normal_fimm_kraus_extract(m)
        s_new, s_orig = np.stack([extracted[x] for x in instr.labels]), instr.kraus[:, 0]
        run.residual(_worst(s_new.conj().swapaxes(1, 2) @ s_new, s_orig.conj().swapaxes(1, 2) @ s_orig))
    trivial = stored_trivial_instrument()
    ranks_ok = _outcome_ranks_exceed_one(trivial)
    m_trivial = dilate_instrument(trivial)
    pointer_flags = classify_observable(m_trivial.pointer)
    run.note = "trivial instrument pointer is sharp, not atomic"
    run.require(ranks_ok and pointer_flags.sharp and not pointer_flags.atomic, run.note)


def _suite_cor_4_7(run: _Run) -> None:
    """A normal model measures a measurement-update instrument exactly when
    every extracted operator is positive semidefinite."""
    for _, d in run.cases(2, 3):
        a = random_observable(d, 2, run.rng)
        luders = luders_instrument(a)
        m = dilate_instrument(luders)
        run.require(luders_positivity_check(m), "positivity check failed on update model")
        measured = model_instrument(m)
        run.residual(family_distance(measured, luders))
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    skew = kraus_instrument({"0": pauli_x / np.sqrt(2.0), "1": np.eye(2, dtype=complex) / np.sqrt(2.0)})
    m_skew = dilate_instrument(skew)
    run.note = "non-PSD operator detected"
    run.require(not luders_positivity_check(m_skew), run.note)


def _suite_thm_4_8(run: _Run) -> None:
    """Swap-interaction models measure exactly the state-preparation
    instruments, with the model's own pointer and probe state."""
    for t, d in run.cases(2, 3):
        eta = random_state(d, run.rng)
        pointer = random_observable(d, 2 + t % 2, run.rng)
        m = trivial_fimm(eta, pointer)
        measured = model_instrument(m)
        expected = trivial_instrument(pointer, eta)
        run.residual(family_distance(measured, expected))
        # converse: starting from a state-preparation instrument, the swap
        # model over its observable and state measures it back.
        a = random_observable(d, 2, run.rng)
        alpha = random_state(d, run.rng)
        instr = trivial_instrument(a, alpha)
        m2 = trivial_fimm(alpha, a)
        measured2 = model_instrument(m2)
        run.residual(family_distance(measured2, instr))


def _suite_conj_2_5(run: _Run) -> None:
    """Probe for a complementary observable pair whose measurement-update
    instruments fail instrument-level complementarity.  Reports only the
    search outcome; asserts nothing."""
    found = 0
    run.count = 0
    for t, d in run.cases(2, 3, 4):
        b1, b2 = fourier_mub(d)
        u = random_unitary(d, run.rng)
        if t % 2 == 0:
            a, b = atomic_observable(u @ b1), atomic_observable(u @ b2)
        else:
            a = identity_observable({"0": 0.5, "1": 0.5}, d)
            b = identity_observable({"0": 1.0 / 3, "1": 1.0 / 3, "2": 1.0 / 3}, d)
        if not obs_complementary(a, b):
            continue
        run.count += 1
        if not instr_complementary(luders_instrument(a), luders_instrument(b)):
            found += 1
    run.residual(found)
    run.note = (
        f"no counterexample found in {run.count} trials"
        if found == 0
        else f"{found} counterexample candidates in {run.count} trials"
    )


def _suite_conj_3_3(run: _Run) -> None:
    """Probe for a non-identity instrument whose total channel is the
    identity.  Reports only the search outcome; asserts nothing.  A random
    instrument never passes the identity-channel filter, so none is drawn."""
    found = 0
    run.count = 0
    for t, d in run.cases(2, 3, 4):
        n = 2 + t % 3
        weights = dict(zip([str(k) for k in range(n)], random_simplex(n, run.rng)))
        candidate = identity_instrument(weights, d)
        if _identity_channel_distance(candidate) <= 1e-8:
            run.count += 1
            if not is_identity_instrument(candidate):
                found += 1
    run.residual(found)
    run.note = (
        f"no counterexample found in {run.count} identity-channel candidates"
        if found == 0
        else f"{found} counterexample candidates"
    )


class _Suite(NamedTuple):
    fn: Callable[[_Run], None]
    trials: int  # default trials; the reported count of a ``fixed`` suite
    tol: float | None  # pinned tolerance; None marks a probe
    fixed: bool = False


SUITES: dict[str, _Suite] = {
    "ex-1": _Suite(_suite_ex_1, 1, 1e-10, fixed=True),
    "lem-1.1": _Suite(_suite_lem_1_1, 50, 1e-8),
    "lem-1.2": _Suite(_suite_lem_1_2, 6, 1e-9, fixed=True),
    "thm-2.1": _Suite(_suite_thm_2_1, 100, 1e-9),
    "thm-2.2": _Suite(_suite_thm_2_2, 100, 1e-9),
    "thm-2.3": _Suite(_suite_thm_2_3, 100, 1e-9),
    "lem-2.4": _Suite(_suite_lem_2_4, 50, 0.0),
    "cor-2.5": _Suite(_suite_cor_2_5, 50, 0.0),
    "lem-2.6": _Suite(_suite_lem_2_6, 20, 1e-8),
    "ex-2": _Suite(_suite_ex_2, 1, 0.0, fixed=True),
    "ex-3": _Suite(_suite_ex_3, 20, 1e-9),
    "ex-4": _Suite(_suite_ex_4, 20, 1e-9),
    "ex-5": _Suite(_suite_ex_5, 20, 1e-9),
    "ex-6": _Suite(_suite_ex_6, 20, 1e-9),
    "ex-7": _Suite(_suite_ex_7, 20, 1e-10),
    "ex-8": _Suite(_suite_ex_8, 50, 1e-10),
    "lem-3.1": _Suite(_suite_lem_3_1, 100, 1e-10),
    "thm-3.2": _Suite(_suite_thm_3_2, 1, 1e-9, fixed=True),
    "cor-3.3": _Suite(_suite_cor_3_3, 20, 1e-9),
    "lem-3.4": _Suite(_suite_lem_3_4, 50, 1e-9),
    "thm-4.1": _Suite(_suite_thm_4_1, 5, 1e-7),
    "lem-4.2": _Suite(_suite_lem_4_2, 20, 1e-8),
    "cor-4.3": _Suite(_suite_cor_4_3, 5, 1e-7),
    "thm-4.4": _Suite(_suite_thm_4_4, 20, 1e-8),
    "cor-4.5": _Suite(_suite_cor_4_5, 20, 1e-8),
    "thm-4.6": _Suite(_suite_thm_4_6, 10, 1e-8),
    "cor-4.7": _Suite(_suite_cor_4_7, 10, 1e-8),
    "thm-4.8": _Suite(_suite_thm_4_8, 20, 1e-8),
    "conj-2.5-converse": _Suite(_suite_conj_2_5, 40, None),
    "conj-3.3-converse": _Suite(_suite_conj_3_3, 40, None),
}


def run_suite(result_id: str, seed: int = 0, trials: int | None = None, tol_scale: float = 1.0) -> VerificationReport:
    if result_id not in SUITES:
        raise KeyError(f"unknown suite id {result_id!r}")
    if seed < 0 or (trials is not None and trials < 1):
        raise QinstrError(f"seed must be nonnegative, got {seed}" if seed < 0 else f"trials must be at least 1, got {trials}")
    if not (np.isfinite(tol_scale) and tol_scale > 0):
        raise QinstrError(f"tol_scale must be finite and positive, got {tol_scale}")
    suite = SUITES[result_id]
    n = suite.trials if trials is None or suite.fixed else trials
    tol = 0.0 if suite.tol is None else suite.tol * tol_scale
    run = _Run(_rng(result_id, seed), n, tol_scale, tol)
    try:
        suite.fn(run)
    except _Stop as stop:
        return VerificationReport(result_id, n, 1.0, "fail", seed, tol, str(stop))
    status = "unknown" if suite.tol is None else "pass" if run.worst <= tol and run.met else "fail"
    return VerificationReport(result_id, n if run.count is None else run.count, run.worst, status, seed, tol, run.note)


def run_suites(
    ids: list[str] | None = None,
    seed: int = 0,
    trials: int | None = None,
    tol_scale: float = 1.0,
) -> list[VerificationReport]:
    # ``run_suite`` is looked up at call time, so rebinding it wraps every suite
    selected = list(SUITES) if not ids else dict.fromkeys(ids)  # a repeated id runs once
    return [run_suite(rid, seed, trials, tol_scale) for rid in selected]
