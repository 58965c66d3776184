"""Numerical verification suites for the toolkit's catalog of results.

Each suite re-derives one identity, counterexample, or construction on
concrete matrices.  ``SUITES`` is the one table: id -> suite function,
default trials, pinned tolerance and, for a batched suite, its ``_Batched`` row.  A
suite is a function of one run record (``_Run``): it draws from ``run.rng``
in each trial of ``run.cases(*dims)`` and records residuals, gap floors and
its note; ``run.require`` ends it early as a fail.  ``run_suite``, the one
runner, seeds the generator from the id and the seed, runs any batched
trials and then the suite function, scales the tolerance and applies one
status rule: ``pass`` when the worst residual is at most the scaled
tolerance and every gap floor (and tighter bound) is met, else ``fail``.
``fixed`` suites run a fixed set and report its count whatever ``trials``
is.  The two ``conj-*`` probes (tolerance ``None``) only ever report
"unknown", with the number of cases searched; they assert nothing.

Every suite with a ``batched`` row (all that draw random trials but
conj-3.3-converse) groups its trials by shape (dimension and outcome counts,
and the kind of pair or observable where it varies).  A trial's public route
is the one description of its draws: each group's first trial runs through the
public functions, which record their Generator calls (``_Recorded``), and each
later trial makes the same calls, in trial order (``_Run.groups``).  thm-2.1,
thm-2.3, lem-2.6, ex-3, ex-5, ex-6, cor-3.3, lem-3.4, thm-4.1, lem-4.2,
cor-4.3, cor-4.5, thm-4.6 and cor-4.7 then run that route on the group's draws
stacked over its trials (``_Stacked``, which fails the suite if the route calls
otherwise than the group recorded): the families, combinators, stochastic
matrices, mixture weights and models they call take a leading trial axis (a
group's dilations share one slot map, so one pointer), ``family_distance`` and
``marginal_defect`` take the worst trial, and a flag holds when every trial's
does.  cor-4.5's eigenbasis draw is a redraw loop, which a stack cannot
replay, so its route allows one draw (``_FirstDraw``): a trial whose first
combination does not diagonalize fails ("eigenbasis redrawn").  The others
run one array program of the library's kernels per group (``_batch_*``; for
thm-4.4 and thm-4.8, those of ``models`` with trial axes), which keeps the
checks on computed objects (sums, roots, ``d^2`` cuts, ranges, witnesses,
complementarity, unitarity) and checks the generators' own weights, states and
bases in the first trial only (``rand`` builds them valid).  A group's values
enter the run as residuals, or through the suite's ``fold`` (cor-2.5 and the
probe count their complementary pairs; lem-2.6, lem-4.2, thm-4.1 and cor-4.3
fail with their note when a trial's marginal defect exceeds the tolerance;
thm-4.1 bounds its pointers' commutators, thm-4.4 its channel's idempotence
defect).  The suite function then runs what is left one by one: the fixed
counterexamples of thm-2.1, thm-2.2, thm-2.3, ex-3, ex-4, ex-6, ex-7, thm-4.6
and cor-4.7, ex-4's commuting pair, drawn where the trials leave the
generator, and cor-2.5's count check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .effects import (
    CoexistenceWitness,
    _witness_joints,
    atom,
    binary_observables_from_coexistence,
    ensure_effect,
    ensure_effects,
    seq_product,
    seq_products,
)
from .errors import InvalidWitness, NotIsometry, QinstrError
from .instruments import (
    Instrument,
    Operation,
    _channels,
    _checked_sum,
    _effects,
    _entrywise_complementary,
    _mixed,
    _prepared,
    _reduced,
    _then,
    choi_distances,
    compose_operations,
    identity_instrument,
    induced_observable,
    instr_channel,
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
    minimal_kraus,
    trivial_instrument,
)
from .linalg import CHOI_TOL, MODEL_TOL, UNITARY_TOL, _sandwich, _unitary_defects, frob, herm_sqrt
from .linalg import _from_eig, _psd_eig, hermitian_part, identity, norms, root_columns, spectral_norm
from .models import (
    FIMM,
    VonNeumannModel,
    dilate_instrument,
    luders_positivity_check,
    marginal_instruments,
    model_instrument,
    normal_fimm_kraus_extract,
    simultaneous_fimms,
    swap_unitary,
    trivial_fimm,
    vn_measured,
    vn_model_for_commutative,
    von_neumann_unitary,
)
from .models import _coupled, _measured_kraus, _pairing_unitary, _vn_forms, _vn_w
from .observables import (
    Observable,
    StochasticMatrix,
    _basis_projections,
    _checked_effects,
    _combined,
    _defects,
    _frobenius_complementary,
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
    obs_commute,
    obs_complementary,
    obs_conditioned,
    obs_convex_combo,
    obs_post_process,
    obs_seq_product,
)
from .rand import (
    _commuting_effects,
    _states,
    _unitaries,
    _whitened_effects,
    _whitened_kraus,
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
        """Keep the running max, NaN once any value is NaN; the values must also meet ``bound * scale``."""
        top = math.nan if any(map(math.isnan, values)) else max(values)
        self.worst = top if math.isnan(top) else max(self.worst, top)
        if bound is not None:
            self.met = self.met and top <= bound * self.scale

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

    def groups(self, period: int, dims: tuple[int, ...], public: Callable) -> list[tuple]:
        """The trials of ``cases(*dims)``, grouped by their shape ``t % period``: the
        first trial of each group runs ``public(rng, t, d)`` on the recorded generator,
        and each later one makes the same Generator calls, in trial order.  Per group:
        the public route's values, its calls, and each call's output stacked over the group's trials."""
        groups: dict[int, tuple] = {}
        for t, d in self.cases(*dims):
            if t % period not in groups:
                recorded = _Recorded(self.rng)
                groups[t % period] = (public(recorded, t, d), recorded.calls, [recorded.outputs])
            else:
                _, calls, outputs = groups[t % period]
                outputs.append([getattr(self.rng, name)(*args, **kwargs) for name, args, kwargs in calls])
        return [(values, calls, [np.stack(x) for x in zip(*outputs)]) for values, calls, outputs in groups.values()]


class _Recorded:
    """A generator that passes every call on, keeping its name and arguments and its output."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls, self.outputs = rng, [], []

    def __getattr__(self, name: str) -> Callable:
        def call(*args, **kwargs):
            self.calls.append(_call(name, args, kwargs))
            self.outputs.append(getattr(self.rng, name)(*args, **kwargs))
            return self.outputs[-1]

        return call


class _Stacked:
    """A generator whose calls return a group's recorded outputs, stacked over its trials, in call order.  A stack
    cannot follow trials whose routes draw differently, so the suite fails unless each call is the recorded one,
    the same method with the same arguments, and the route makes them all (``end``)."""

    def __init__(self, calls: list[tuple], draws: list[np.ndarray]):
        self.recorded = iter(zip(calls, draws))

    def __getattr__(self, name: str) -> Callable:
        return lambda *args, **kwargs: self._take(_call(name, args, kwargs))

    def _take(self, call: tuple | None) -> np.ndarray | None:
        """The next recorded output, whose call must be ``call`` (``None``: that no recorded call is left)."""
        expected, draw = next(self.recorded, (None, None))
        if expected != call:
            raise _Stop("stacked draws diverge from the public trial's")
        return draw

    def end(self) -> None:
        self._take(None)


def _call(name: str, args: tuple, kwargs: dict) -> tuple:
    """A Generator call as ``_Recorded`` keeps it: array arguments as lists, which draw the same numbers and
    compare with ``==``."""
    plain = [x.tolist() if isinstance(x, np.ndarray) else x for x in (*args, *kwargs.values())]
    return name, tuple(plain[: len(args)]), dict(zip(kwargs, plain[len(args) :]))


def _worst(a: np.ndarray, b: np.ndarray) -> float:
    """Largest Frobenius distance between matching matrices of two stacks."""
    return float(norms(a - b).max())


def _worst_choi(k: np.ndarray, l: np.ndarray) -> float:
    """Largest Choi-form distance between matching outcomes of two batches of padded Kraus arrays, ``(t, m, r, d, d)``
    (or with the outcomes on more axes, ``(t, m, n, r, d, d)``)."""
    return float(choi_distances(k.reshape(-1, *k.shape[-3:]), l.reshape(-1, *l.shape[-3:])).max())


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
    """``instruments._assembled`` on a ``(t, m, r, d, d)`` batch: ``_reduced`` (each trial's outcomes cut at
    ``d^2``), then the sum check up to ``MODEL_TOL``."""
    return _checked(_reduced(ops, np.full(ops.shape[1], ops.shape[2]), ops.shape[-1] ** 2)[0], MODEL_TOL)


def _roots(stack: np.ndarray) -> np.ndarray:
    """The effects' roots of a ``(t, m, d, d)`` batch, from one ``herm_sqrt`` call."""
    return herm_sqrt(stack.reshape(-1, *stack.shape[-2:])).reshape(stack.shape)


def _columns(stack: np.ndarray) -> np.ndarray:
    """The root columns ``R`` (``root_columns``, ``A = R R^*``) of a ``(t, m, d, d)`` batch, from one call."""
    return root_columns(stack.reshape(-1, *stack.shape[-2:]))[0].reshape(stack.shape)


def _luders(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``luders_instrument`` of each trial's effects: its Kraus array and effects (``_checked``)."""
    return _checked(_roots(a)[..., None, :, :])


def _trivial(effects: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``trivial_instrument`` of each trial's effects ``(t, m, d, d)`` and state ``(t, d, d)``: one
    ``root_columns`` call over each trial's effects and its state, ``_prepared`` over every
    column (one not counted is zero), then ``_assembled_batch``; its Kraus array and effects."""
    f = _columns(np.concatenate([effects, states[:, None]], 1))
    return _assembled_batch(_prepared(f[:, :-1], f[:, -1]).reshape(*effects.shape[:2], -1, *effects.shape[-2:]))


def _public_lem_1_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Commuting effects coexist: the algebraic witness validates and the
    binary joint observable has the right marginals."""
    a, b = random_commuting_effect_pair(d, rng)
    ab = ensure_effect(hermitian_part(a @ b))
    w = CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab)
    try:
        joint = binary_observables_from_coexistence(a, b, w).stack.reshape(2, 2, d, d)
    except InvalidWitness:
        raise _Stop("witness rejected")
    return _worst(joint.sum(1), np.stack([a, np.eye(d) - a])), _worst(joint.sum(0), np.stack([b, np.eye(d) - b]))


def _batch_lem_1_1(t: np.ndarray, g: np.ndarray, x: np.ndarray) -> tuple[float, ...]:
    a, b = _commuting_effects(_unitaries(g), x).swapaxes(0, 1)
    ab = ensure_effects(hermitian_part(a @ b))
    try:
        defects = _witness_joints(a, b, CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab))[2]
    except InvalidWitness:
        raise _Stop("witness rejected")
    return tuple(map(float, defects.max(0)))


def _public_thm_2_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    a = random_observable(d, 2 + t % 3, rng)
    return (family_distance(induced_observable(luders_instrument(a)), a),)


def _public_thm_2_2(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    n = 2 + t % 2
    weights = random_simplex(3, rng)
    parts = [random_instrument(d, n, rng) for _ in range(3)]
    a_mix = induced_observable(instr_convex_combo(weights, parts))
    return (family_distance(a_mix, obs_convex_combo(weights, [induced_observable(p) for p in parts])),)


def _batch_thm_2_2(t: np.ndarray, weights: np.ndarray, *raw: np.ndarray) -> tuple[float, ...]:
    parts, effects = _checked(_whitened_kraus(np.stack(raw, axis=1)))
    a_mix = _valid_stack(_assembled_batch(_mixed(weights, parts.swapaxes(0, 1)))[1])
    return (_worst(a_mix, _valid_stack(_combined(weights[:, None], _valid_stack(effects))[:, 0])),)


def _public_thm_2_3(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    n = 2 + t % 2
    instr = random_instrument(d, n, rng)
    nu = random_stochastic(list(instr.labels), ["t0", "t1"], rng)
    processed = instr_post_process(nu, instr)
    rhs = obs_post_process(nu, induced_observable(instr))
    weights = random_simplex(2, rng)
    other = random_instrument(d, n, rng)
    mixed = instr_post_process(nu, instr_convex_combo(weights, [instr, other]))
    split = instr_convex_combo(weights, [processed, instr_post_process(nu, other)])
    return family_distance(induced_observable(processed), rhs), family_distance(mixed, split)


def _public_lem_3_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Set-level sequential probabilities of measurement-update instruments
    match the observable-level joint probabilities."""
    m, n = 2 + t % 2, 2 + (t + 1) % 2
    a = random_observable(d, m, rng)
    b = random_observable(d, n, rng)
    rho = random_state(d, rng)
    x, y = rng.random(len(a)), rng.random(len(b))  # an outcome is in its set when its uniform is below 0.6
    x_set = [lab for k, lab in enumerate(a.labels) if x[k] < 0.6 or k == 0]  # and the first outcome always is
    y_set = [lab for k, lab in enumerate(b.labels) if y[k] < 0.6 or k == 0]
    p_instr = joint_probability_instr(rho, luders_instrument(a), x_set, luders_instrument(b), y_set)
    return (abs(p_instr - joint_probability_then(rho, a, x_set, b, y_set)),)


def _luders_tables(ga: np.ndarray, gb: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcome tables of measuring ``a`` and then ``b``, through their measurement-update
    instruments and through the observables, from the draws of ``a``, ``b`` and the state."""
    a, b = (_valid_stack(_whitened_effects(s)) for s in (ga, gb))
    rho = _states(g)
    roots = _roots(a)
    outputs = _sandwich(_checked(roots[..., None, :, :])[0], rho[:, None, None])
    return _pair_traces(outputs, _luders(b)[1]), _probability_table(rho, seq_products(roots, b))


def _batch_lem_3_1(t: np.ndarray, ga: np.ndarray, gb: np.ndarray, g: np.ndarray, *u: np.ndarray) -> tuple[float, ...]:
    x, y = ((v < 0.6) | (np.arange(v.shape[-1]) == 0) for v in u)  # each outcome's uniform, a's then b's
    p_instr, p_obs = (_set_probabilities(p, x, y) for p in _luders_tables(ga, gb, g))
    return (float(np.abs(p_instr - p_obs).max()),)


def _public_ex_8(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Measurement-update instruments reproduce the observable-level
    sequential probabilities outcome by outcome."""
    a = random_observable(d, 2, rng)
    b = random_observable(d, 2, rng)
    rho = random_state(d, rng)
    p_instr = joint_probability_table_instr(rho, luders_instrument(a), luders_instrument(b))
    return (float(np.abs(p_instr - joint_probability_table(rho, a, b)).max()),)


def _batch_ex_8(t: np.ndarray, ga: np.ndarray, gb: np.ndarray, g: np.ndarray) -> tuple[float, ...]:
    return (float(np.abs(np.subtract(*_luders_tables(ga, gb, g))).max()),)


def _public_lem_3_4(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """The total channel of a product instrument, of a conditioned
    instrument, and the composition of the total channels all agree."""
    i = random_instrument(d, 2, rng)
    j = random_instrument(d, 2 + t % 2, rng)
    prod_hat = instr_channel(instr_product(i, j))
    cond_hat = instr_channel(instr_conditioned(i, j))
    composed = compose_operations(instr_channel(j), instr_channel(i))
    p, c, k = prod_hat._kraus, cond_hat._kraus, composed._kraus
    return (float(choi_distances([p, p, c], [c, k, k]).max()),)


def _products(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``instr_product`` of each trial's two full ``(t, m, r, d, d)`` arrays: ``instruments._then``,
    then ``_assembled_batch``; its Kraus array."""
    (m, r), (n, s) = first.shape[1:3], second.shape[1:3]
    ops = _then(first, np.full(m, r), second, np.full(n, s))[0]
    return _assembled_batch(ops.reshape(len(ops), m * n, r * s, *ops.shape[-2:]))[0]


class _Batched(NamedTuple):
    """A suite's trials by shape (``_Run.groups``): each group's stacked draws through ``batch`` or ``public``."""

    period: int  # trials t and t + period share a shape
    dims: tuple[int, ...]
    public: Callable  # one trial through the public functions, from a generator: its values
    batch: Callable | None = None  # a group's values from its trials ``t`` and its stacked draws
    fold: Callable = _Run.residual  # how the run takes a group's values, the public trial's then the stacked ones


def _suite_thm_2_1(run: _Run) -> None:
    """The observable of a measurement-update instrument is the observable it
    came from; the reverse composition is not the identity on instruments."""
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
    a, b = sharp_qubit_z(), sharp_qubit_x()
    b_relab = Observable({"0": b["+"], "1": b["-"]})
    mixed_obs = obs_convex_combo([0.5, 0.5], [a, b_relab])
    rho = np.diag([1.0, 0.0]).astype(complex)
    lhs, out_a, out_b = (_sandwich(luders_instrument(o).kraus, rho) for o in (mixed_obs, a, b_relab))
    run.gap("K mixture gap", _worst(lhs, 0.5 * out_a + 0.5 * out_b), 1e-2)


def _suite_thm_2_3(run: _Run) -> None:
    """Post-processing commutes with taking the observable of an instrument,
    and distributes over mixtures, but not with the measurement-update map."""
    a = sharp_qubit_z()
    nu = StochasticMatrix(["0", "1"], ["0", "1"], [[0.5, 0.5], [0.5, 0.5]])
    rho = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    lhs, out = (_sandwich(luders_instrument(o).kraus, rho) for o in (obs_post_process(nu, a), a))
    run.gap("K post-processing gap", _worst(lhs, np.tensordot(nu.matrix.T, out, 1)), 1e-3)


@lru_cache(maxsize=None)
def _identity_pair(d: int) -> tuple[Observable, Observable]:
    """The identity observables of two and of three equally likely outcomes, built once per ``d`` (read-only)."""
    return identity_observable({"0": 0.5, "1": 0.5}, d), identity_observable({"0": 1.0 / 3, "1": 1.0 / 3, "2": 1.0 / 3}, d)


def _public_complementary(rng: np.random.Generator, t: int, d: int) -> tuple[bool, bool]:
    """Trial ``t``'s instrument pair, by its kind ``t % 5``: the measurement-update
    instruments of a mutually unbiased pair (0; rotated by a random unitary, 2), state
    preparations over two identity observables (1), one measurement-update instrument
    twice (3), or two random instruments (4); decided complementary on the instrument
    side (entrywise within ``CHOI_TOL``) and on the observable side (in Frobenius norm
    within ``SUM_TOL``)."""
    kind = t % 5
    if kind in (0, 2):
        b1, b2 = fourier_mub(d)
        if kind == 2:
            u = random_unitary(d, rng)
            b1, b2 = u @ b1, u @ b2
        i, j = luders_instrument(atomic_observable(b1)), luders_instrument(atomic_observable(b2))
    elif kind == 1:
        alpha = random_state(d, rng)
        i, j = (trivial_instrument(a, alpha) for a in _identity_pair(d))
    elif kind == 3:
        a = random_observable(d, 2, rng)
        i, j = luders_instrument(a), luders_instrument(a)
    else:
        i, j = random_instrument(d, 2, rng), random_instrument(d, 2, rng)
    return instr_complementary(i, j), obs_complementary(induced_observable(i), induced_observable(j))


def _batch_complementary(t: np.ndarray, *draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    kind, d = t[0] % 5, 2 + t[0] % 3  # every trial of a group has its first's
    if kind in (0, 2):  # both bases' instruments stacked
        u = _unitaries(draws[0]) if draws else np.broadcast_to(identity(d), (len(t), d, d))
        effects = [_checked(_mub_projections(u)[1][..., None, :, :])[1]]
    elif kind == 1:
        alpha = _states(draws[0])
        effects = [_trivial(np.broadcast_to(a.stack, (len(t), *a.stack.shape)), alpha)[1][None] for a in _identity_pair(d)]
    elif kind == 3:
        effects = [_luders(_valid_stack(_whitened_effects(draws[0])))[1][None]]  # one instrument twice
    else:
        effects = [_checked(_whitened_kraus(np.stack(draws)))[1]]  # both instruments' draws stacked
    pair = _with_roots([_valid_stack(e) for e in effects])  # each instrument's induced observable
    defects = _defects(*pair[0], *pair[-1])
    return _entrywise_complementary(defects), _frobenius_complementary(defects)


def _mub_projections(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projections onto the Fourier pair's bases rotated by each trial's unitary, ``(2, t, d, d, d)``, basis-major,
    checked as ``atomic_observable`` checks them (``_checked_effects``), and their roots off that check's spectrum."""
    d = u.shape[-1]
    projections = _basis_projections(u @ np.stack(fourier_mub(d))[:, None])
    checked, spectrum = _checked_effects(projections.reshape(-1, d, d), d)
    return checked.reshape(projections.shape), _from_eig(*_psd_eig(checked, spectrum)).reshape(projections.shape)


def _with_roots(stacks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each batch of observables of a list of stacks ``(k, t, m, d, d)`` (of one or both of a pair) with
    its roots, one ``_roots`` call per stack."""
    return [p for e in stacks for p in zip(e, _roots(e))]


_COMPLEMENTARY = (15, (2, 3, 4), _public_complementary, _batch_complementary)  # kind t % 5, d = 2 + t % 3


def _fold_lem_2_4(run: _Run, instr: bool, obs: bool, instrs: np.ndarray, obss: np.ndarray) -> None:
    """Instrument-level complementarity agrees exactly with observable-level
    complementarity of the induced observables."""
    run.residual(float(instr != obs), float(np.count_nonzero(instrs != obss)))
    run.note = "boolean agreement"


def _fold_cor_2_5(run: _Run, instr: bool, obs: bool, instrs: np.ndarray, obss: np.ndarray) -> None:
    """Complementary instruments have complementary observables; the batch counts every trial."""
    run.count = (run.count or 0) + int(instrs.sum())
    run.residual(float(instr and not obs), float(np.count_nonzero(instrs & ~obss)))


def _suite_cor_2_5(run: _Run) -> None:
    run.note = f"{run.count} complementary pairs checked"
    run.require(run.count > 0, run.note)


def _public_lem_2_6(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Coexisting instruments induce coexisting observables: the marginal
    defects of a joint instrument and of the observables it induces."""
    alpha = random_state(d, rng)
    joint_instr = trivial_instrument(_product_labelled_observable(rng, d), alpha)
    i, j = marginal_instruments(joint_instr)
    a, b, c = induced_observable(i), induced_observable(j), induced_observable(joint_instr)
    return marginal_defect(i, j, joint_instr), marginal_defect(a, b, c)


def _fold_lem_2_6(run: _Run, instr: float, obs: float, instrs: float, obss: float) -> None:
    """Each trial's marginal defects within ``run.tol``, as ``instr_coexist_verify`` and ``obs_coexist_verify`` decide."""
    run.require(instr <= run.tol and instrs <= run.tol, "joint marginals broken")
    run.require(obs <= run.tol and obss <= run.tol, "observables do not coexist")
    run.residual(obs, obss)


def _outcome_ranks_exceed_one(instr: Instrument) -> bool:
    """Every outcome Choi matrix has rank two or more: no fewer Kraus operators (``minimal_kraus``)."""
    return all(len(minimal_kraus(op._kraus, instr.dim)) >= 2 for _, op in instr.items())


def _suite_ex_2(run: _Run) -> None:
    """The stored trivial instrument admits no single Kraus operator: every
    outcome Choi matrix has rank four."""
    trivial = stored_trivial_instrument()
    ok = _outcome_ranks_exceed_one(trivial) and not any(is_single_kraus(op) for _, op in trivial.items())
    luders = luders_instrument(sharp_qubit_z())
    ok = ok and all(is_single_kraus(op) for _, op in luders.items())
    run.note = "outcome Choi ranks >= 2"
    run.require(ok, run.note)


def _composed_effects(s: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """``S_x^* T_y^* T_y S_x``, the effect of outcome ``(x, y)`` of two single-Kraus instruments'
    operators ``(m, d, d)`` and ``(n, d, d)``, as ``(m, n, d, d)``, or per trial of two batches."""
    sh, th = s.conj().swapaxes(-1, -2), tt.conj().swapaxes(-1, -2)
    return sh[..., :, None, :, :] @ th[..., None, :, :, :] @ tt[..., None, :, :, :] @ s[..., :, None, :, :]


def _public_ex_3(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    i = random_kraus_instrument(d, 2, rng)
    j = random_kraus_instrument(d, 2, rng)
    expected = _composed_effects(i.kraus[..., 0, :, :], j.kraus[..., 0, :, :])
    a_prod = induced_observable(instr_product(i, j)).stack.reshape(expected.shape)
    b_cond = induced_observable(instr_conditioned(i, j)).stack
    return _worst(a_prod, expected), _worst(b_cond, expected.sum(-4))


def _suite_ex_3(run: _Run) -> None:
    """Products of single-Kraus instruments compose their operators, and the
    induced observable of the product is generally not the observable
    product."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    i = kraus_instrument({"0": np.eye(2, dtype=complex) / np.sqrt(2.0), "1": hadamard / np.sqrt(2.0)})
    j = luders_instrument(sharp_qubit_z())
    lhs = induced_observable(instr_product(i, j))
    rhs = obs_seq_product(induced_observable(i), induced_observable(j))
    run.gap("observable-product gap", family_distance(lhs, rhs), 1e-3)


def _public_ex_4(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    a = random_observable(d, 2, rng)
    b = random_observable(d, 2, rng)
    lhs = induced_observable(instr_product(luders_instrument(a), luders_instrument(b)))
    cond = induced_observable(instr_conditioned(luders_instrument(a), luders_instrument(b)))
    return family_distance(lhs, obs_seq_product(a, b)), family_distance(cond, obs_conditioned(a, b))


def _batch_ex_4(t: np.ndarray, ga: np.ndarray, gb: np.ndarray) -> tuple[float, ...]:
    a, b = (_valid_stack(_whitened_effects(g)) for g in (ga, gb))
    roots, j = _roots(a), _luders(b)[0]
    i, products = _checked(roots[..., None, :, :])[0], seq_products(roots, b)
    lhs, cond = (_valid_stack(_effects(_products(x, j))) for x in (i, _channels(i)[0]))
    return _worst(lhs, _valid_stack(products.reshape(lhs.shape))), _worst(cond, _valid_stack(products.sum(1)))


def _suite_ex_4(run: _Run) -> None:
    """For measurement-update instruments the product observable law holds,
    and the update map is multiplicative exactly on commuting pairs."""
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


def _public_ex_5(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Products and conditioning against an identity instrument only scale:
    conditioning a generic instrument on it returns that instrument."""
    w = random_simplex(2, rng)
    ident = identity_instrument(dict(zip(["0", "1"], w.T)), d)
    j = random_instrument(d, 2, rng)
    roots = np.sqrt(w)[..., :, None, None, None]  # sqrt(w_x) K is a Kraus stack of w_x J_y
    scaled = roots[..., None, :, :, :] * j.kraus[..., None, :, :, :, :]  # [x, y] = sqrt(w_x) K_y
    return (
        _worst_choi(instr_product(ident, j).kraus, scaled),
        _worst_choi(instr_product(j, ident).kraus, scaled.swapaxes(-5, -4)),
        family_distance(instr_conditioned(ident, j), j),
        _worst_choi(instr_conditioned(j, ident).kraus, roots * instr_channel(j)._kraus[..., None, :, :, :]),
    )


def _public_ex_6(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    a = random_observable(d, 2, rng)
    b = random_observable(d, 2, rng)
    alpha = random_state(d, rng)
    beta = random_state(d, rng)
    prod = instr_product(trivial_instrument(a, alpha), trivial_instrument(b, beta))
    roots = np.sqrt(np.trace(alpha[..., None, :, :] @ b.stack, axis1=-2, axis2=-1).real)  # sqrt(tr(alpha B_y))
    ka = trivial_instrument(a, beta).kraus  # rho -> tr(rho A_x) beta
    return (_worst_choi(prod.kraus, ka[..., :, None, :, :, :] * roots[..., None, :, None, None, None]),)


def _suite_ex_6(run: _Run) -> None:
    """Products of state-preparation instruments factorize through the
    prepared state, and conditioning loses the first observable entirely."""
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    i = j = trivial_instrument(a, alpha)
    lhs = induced_observable(instr_conditioned(i, j))
    rhs = obs_conditioned(a, a)
    run.gap("conditioned-observable gap", family_distance(lhs, rhs), 1e-3)


def _public_ex_7(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
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
    return (abs(p - expected),)


def _batch_ex_7(t: np.ndarray, ga: np.ndarray, gb: np.ndarray, *g: np.ndarray) -> tuple[float, ...]:
    a, b = (_valid_stack(_whitened_effects(x)) for x in (ga, gb))
    alpha, beta, rho = _states(np.stack(g))
    table = _pair_traces(_sandwich(_trivial(a, alpha)[0], rho[:, None, None]), _trivial(b, beta)[1])
    p = _set_probabilities(table, np.array([True, False]), np.array([False, True]))  # X = {a's first}, Y = {b's second}
    expected = np.trace(rho @ a[:, 0], axis1=-2, axis2=-1).real * np.trace(alpha @ b[:, 1], axis1=-2, axis2=-1).real
    return (float(np.abs(p - expected).max()),)


def _suite_ex_7(run: _Run) -> None:
    """Sequential probabilities of state-preparation instruments factorize as
    tr(rho A_X) tr(alpha B_Y), unlike the observable-level probabilities."""
    a = sharp_qubit_z()
    alpha = atom(np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = np.diag([1.0, 0.0]).astype(complex)
    i = j = trivial_instrument(a, alpha)
    p_instr = joint_probability_instr(rho, i, ["0"], j, ["0"])
    p_obs = joint_probability_then(rho, a, ["0"], a, ["0"])
    run.gap("probability gap", abs(p_instr - p_obs), 1e-3)


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
    return float(choi_distances(instr_channel(instr)._kraus[..., None, :, :, :], identity(instr.dim)[None, None]).max())


def _public_cor_3_3(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Identity instruments always sum to the identity channel."""
    n = 2 + t % 3
    weights = dict(zip([str(k) for k in range(n)], random_simplex(n, rng).T))
    return (_identity_channel_distance(identity_instrument(weights, d)),)


_PRODUCT_LABELS = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]  # (x, y), x, y in {0, 1}


def _product_labelled_instrument(rng: np.random.Generator, d: int) -> Instrument:
    """A random instrument on the product labels ``_PRODUCT_LABELS``."""
    return Instrument(zip(_PRODUCT_LABELS, (op for _, op in random_instrument(d, 4, rng).items())))


def _product_labelled_observable(rng: np.random.Generator, d: int) -> Observable:
    """A random observable on the product labels ``_PRODUCT_LABELS``."""
    return random_observable(d, 4, rng, labels=_PRODUCT_LABELS)


_ONTO_FACTORS = [  # the 0/1 matrices from _PRODUCT_LABELS onto the x- and onto the y-labels
    StochasticMatrix(_PRODUCT_LABELS, ("0", "1"), [[float(label[k] == x) for x in "01"] for label in _PRODUCT_LABELS])
    for k in (0, 1)
]


def _marginal_observables(c: Observable) -> tuple[Observable, ...]:
    """The x- and y-marginals of a ``_product_labelled_observable``: its post-processings onto each factor."""
    return tuple(obs_post_process(nu, c) for nu in _ONTO_FACTORS)


def _product_pointer_model(m1: FIMM, m2: FIMM) -> FIMM:
    """A dilation of ``m1``'s isometry with the product of the two models'
    commuting pointers, on the product value-space: both are re-pointings of
    one dilation, so probe slot ``s`` goes to the pair of its two outcomes."""
    p1, p2 = m1._labels, m2._labels
    labels = check_distinct_labels([combine_labels(x, y) for x in p1 for y in p2])
    return m1._repointed(labels, m1._owner * len(p2) + m2._owner)


def _public_thm_4_1(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Coexisting instruments are exactly those measured by simultaneous,
    commuting, sharp models built over a joint instrument: the marginal
    defect of the instrument that the product pointer measures (conversely,
    its marginals are the two models'), the pointers' commutator, and the
    models' distances from the joint's marginals."""
    joint = _product_labelled_instrument(rng, d)
    i, j = marginal_instruments(joint)
    m1, m2 = simultaneous_fimms(joint)
    if not (m1.sharp and m2.sharp):
        raise _Stop("pointers not sharp")
    p, q = m1.pointer.stack[:, None], m2.pointer.stack[None]
    meas1, meas2 = model_instrument(m1), model_instrument(m2)
    measured_joint = model_instrument(_product_pointer_model(m1, m2))
    gaps = family_distance(meas1, i), family_distance(meas2, j)
    return marginal_defect(meas1, meas2, measured_joint), _worst(p @ q, q @ p), *gaps


def _fold_coexisting(note: str, run: _Run, *values: float) -> None:
    """A fold (with its ``note`` bound) of the public trial's values, then the stacked route's (the group's worst),
    the marginal defect first in each: every trial's defect within ``run.tol``, as ``instr_coexist_verify`` and
    ``obs_coexist_verify`` decide (else the run fails with ``note``); the other values are residuals."""
    public, stacked = values[: len(values) // 2], values[len(values) // 2 :]
    run.require(public[0] <= run.tol and stacked[0] <= run.tol, note)
    run.residual(*public[1:], *stacked[1:])


_fold_lem_4_2 = partial(_fold_coexisting, "joint instrument marginals broken")
_fold_cor_4_3 = partial(_fold_coexisting, "measured joint observable broken")


def _fold_thm_4_1(run: _Run, *values: float) -> None:
    """``_fold_coexisting``, and each trial's pointer commutator, the second value, also within 1e-8."""
    _fold_coexisting("converse marginals broken", run, *values)
    run.residual(values[1], values[len(values) // 2 + 1], bound=1e-8)


def _public_lem_4_2(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Coexisting observables lift to coexisting state-preparation
    instruments over any joint observable: the joint's marginal defect, then
    the marginals' distances from the lifted marginal observables and back."""
    alpha = random_state(d, rng)
    c = _product_labelled_observable(rng, d)
    joint = trivial_instrument(c, alpha)
    i, j = marginal_instruments(joint)
    a, b = _marginal_observables(c)
    return (
        marginal_defect(i, j, joint),
        family_distance(i, trivial_instrument(a, alpha)),
        family_distance(j, trivial_instrument(b, alpha)),
        family_distance(induced_observable(i), a),
        family_distance(induced_observable(j), b),
    )


def _public_cor_4_3(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Coexisting observables are measured by simultaneous, commuting, sharp
    models, and such model pairs reproduce a joint observable: the marginal
    defect of the measured joint observable, and the measured observables'
    distances from the joint's marginals."""
    alpha = random_state(d, rng)
    c = _product_labelled_observable(rng, d)
    a, b = _marginal_observables(c)
    m1, m2 = simultaneous_fimms(trivial_instrument(c, alpha))
    obs1, obs2 = (induced_observable(model_instrument(m)) for m in (m1, m2))
    measured_c = induced_observable(model_instrument(_product_pointer_model(m1, m2)))
    return marginal_defect(a, b, measured_c), family_distance(obs1, a), family_distance(obs2, b)


def _measured(w: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``model_instrument``'s general branch per trial of a batch of ``W`` ``(t, c, d dk, d, s)`` and pointer root
    columns ``f``: the operators of every column (those of a column not kept are zero), then ``_assembled_batch``."""
    kraus = _measured_kraus(w, f)
    return _assembled_batch(kraus.reshape(*kraus.shape[:2], -1, *kraus.shape[-2:]))


def _public_thm_4_4(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Closed forms of the basis-pairing model (instrument, dephasing
    channel, measured observable) match the partial-trace definition, both
    on the model's closed-form ``W`` and on a public ``FIMM`` built from the
    pairing unitary; the channel is idempotent."""
    model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))
    instr, channel, obs = vn_measured(model)
    direct = model_instrument(model)
    unitary = von_neumann_unitary(model.base_basis, model.probe_basis)
    public = model_instrument(FIMM(d, d, model.probe_state, unitary, model.pointer))
    once = channel.apply(random_state(d, rng))
    gaps = family_distance(instr, direct), family_distance(instr, public), family_distance(obs, induced_observable(direct))
    channel_gap = choi_distances([instr_channel(direct)._kraus], [channel._kraus])[0]
    return *gaps, channel_gap, frob(channel.apply(once) - once)


def _batch_thm_4_4(t: np.ndarray, gb: np.ndarray, gp: np.ndarray, g: np.ndarray, gr: np.ndarray) -> tuple[float, ...]:
    base, probe, d = _unitaries(gb), _unitaries(gp), gb.shape[-1]
    eta = hermitian_part(probe[:, :, :1] @ probe[:, :, :1].conj().swapaxes(1, 2))  # the FIMM's probe state
    f = _columns(np.concatenate([_valid_stack(_whitened_effects(g)), eta[:, None]], 1))  # the pointer's roots, eta's
    kraus, channel, effects = _vn_forms(base, probe, f[:, :-1])  # vn_measured's closed forms
    instr, obs = _assembled_batch(kraus)[0], _valid_stack(effects)
    direct, effects = _measured(_vn_w(base, probe)[:, None, :, :, None], f[:, :-1])
    u = _pairing_unitary(base, probe)
    if not _unitary_defects(u).max() <= UNITARY_TOL:
        raise NotIsometry("interaction matrix is not unitary")  # as FIMM checks it
    public = _measured(_coupled(u[:, None], d, f[:, -1]), f[:, :-1])[0]
    once = _sandwich(channel, _states(gr)[:, None])
    gaps = _worst_choi(instr, direct), _worst_choi(instr, public), _worst(obs, _valid_stack(effects))
    channel_gap = float(choi_distances(_channels(direct)[0][:, 0], channel).max())
    return *gaps, channel_gap, _worst(_sandwich(channel, once[:, None]), once)


def _fold_thm_4_4(run: _Run, *values: float) -> None:
    """The public trial's five values, then the batch's: each a residual, and the last of each five, the
    channel's idempotence defect, also within 1e-9."""
    run.residual(*values)
    run.residual(*values[4::5], bound=1e-9)
    run.note = "channel idempotent within 1e-9"


def _public_cor_4_5(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Basis-pairing models measure exactly the commutative observables:
    the distance of a commutative observable (for ``t % 3 == 2`` an
    identity observable) from what its model measures; a generic model's
    measured observable must be commutative."""
    if t % 3 == 2:
        a = identity_observable(dict(zip(("0", "1"), random_simplex(2, rng).T)), d)
    else:
        a = random_commutative_observable(d, 2 + t % 2, rng)
    measured = vn_measured(vn_model_for_commutative(a, _FirstDraw(rng)))[2]
    generic = vn_measured(VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng)))[2]
    if not obs_commute(generic, generic):
        raise _Stop("measured observable not commutative")
    return (family_distance(measured, a),)


class _FirstDraw:
    """``vn_model_for_commutative``'s generator: its one call draws an eigenbasis combination, and a second (one
    redrawn) fails the suite, as a stack cannot replay trials that would stop at different draws."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.drawn = rng, False

    def standard_normal(self, *args) -> np.ndarray:
        if self.drawn:
            raise _Stop("eigenbasis redrawn")
        self.drawn = True
        return self.rng.standard_normal(*args)


def _public_thm_4_6(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Single-Kraus instruments are exactly those measured by normal models:
    dilation gives an atomic pointer, the model measures the instrument
    back, and the extracted operators have its effects."""
    instr = random_kraus_instrument(d, 2 + t % 2, rng)
    m = dilate_instrument(instr)
    if not classify_observable(m.pointer).atomic:
        raise _Stop("pointer not atomic")
    extracted = normal_fimm_kraus_extract(m)
    s_new, s_orig = np.stack([extracted[x] for x in instr.labels], axis=-3), instr.kraus[..., 0, :, :]
    gram = _worst(s_new.conj().swapaxes(-1, -2) @ s_new, s_orig.conj().swapaxes(-1, -2) @ s_orig)
    return family_distance(model_instrument(m), instr), gram


def _suite_thm_4_6(run: _Run) -> None:
    """The stored trivial instrument obstructs (outcome ranks exceed one)."""
    trivial = stored_trivial_instrument()
    ranks_ok = _outcome_ranks_exceed_one(trivial)
    pointer_flags = classify_observable(dilate_instrument(trivial).pointer)
    run.note = "trivial instrument pointer is sharp, not atomic"
    run.require(ranks_ok and pointer_flags.sharp and not pointer_flags.atomic, run.note)


def _public_cor_4_7(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """A normal model measures a measurement-update instrument exactly when
    every extracted operator is positive semidefinite: the update
    instrument's dilation passes the check and measures it back."""
    luders = luders_instrument(random_observable(d, 2, rng))
    m = dilate_instrument(luders)
    if not luders_positivity_check(m):
        raise _Stop("positivity check failed on update model")
    return (family_distance(model_instrument(m), luders),)


def _suite_cor_4_7(run: _Run) -> None:
    """A skew single-Kraus instrument fails the positivity check."""
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    skew = kraus_instrument({"0": pauli_x / np.sqrt(2.0), "1": np.eye(2, dtype=complex) / np.sqrt(2.0)})
    m_skew = dilate_instrument(skew)
    run.note = "non-PSD operator detected"
    run.require(not luders_positivity_check(m_skew), run.note)


def _public_thm_4_8(rng: np.random.Generator, t: int, d: int) -> tuple[float, ...]:
    """Swap-interaction models measure exactly the state-preparation
    instruments, with the model's own pointer and probe state; conversely,
    the swap model over a state-preparation instrument's observable and
    state measures it back."""
    eta, pointer = random_state(d, rng), random_observable(d, 2 + t % 2, rng)
    measured = family_distance(model_instrument(trivial_fimm(eta, pointer)), trivial_instrument(pointer, eta))
    a, alpha = random_observable(d, 2, rng), random_state(d, rng)
    return measured, family_distance(model_instrument(trivial_fimm(alpha, a)), trivial_instrument(a, alpha))


def _swapped(effects: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``model_instrument(trivial_fimm(state, pointer))`` per trial of a batch of pointer effects and probe
    states: one ``root_columns`` call over each trial's effects and state, the swap's ``W``; its Kraus array."""
    f, d = _columns(np.concatenate([effects, states[:, None]], 1)), states.shape[-1]
    return _measured(_coupled(swap_unitary(d)[None], d, f[:, -1]), f[:, :-1])[0]


def _batch_thm_4_8(t: np.ndarray, g: np.ndarray, gp: np.ndarray, ga: np.ndarray, gs: np.ndarray) -> tuple[float, ...]:
    pairs = (_valid_stack(_whitened_effects(gp)), _states(g)), (_valid_stack(_whitened_effects(ga)), _states(gs))
    return tuple(_worst_choi(_swapped(a, alpha), _trivial(a, alpha)[0]) for a, alpha in pairs)


def _public_conj_2_5(rng: np.random.Generator, t: int, d: int) -> tuple[bool, bool]:
    """A pair by its kind ``t % 2``: the atomic observables of a randomly
    rotated mutually unbiased pair (0), or the identity pair (1; the rotation
    is drawn, unused); whether it is complementary, and whether it then is a
    counterexample: its measurement-update instruments are not."""
    b1, b2 = fourier_mub(d)
    u = random_unitary(d, rng)
    a, b = (atomic_observable(u @ b1), atomic_observable(u @ b2)) if t % 2 == 0 else _identity_pair(d)
    complementary = obs_complementary(a, b)
    return complementary, complementary and not instr_complementary(luders_instrument(a), luders_instrument(b))


def _batch_conj_2_5(t: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = 2 + t[0] % 3
    if t[0] % 2 == 0:
        pairs = [_mub_projections(_unitaries(g))]  # the pair stacked, with its roots
    else:  # the identity pair's closed-form roots
        pairs = [tuple(np.broadcast_to(x, (1, len(t), *x.shape)) for x in (a.stack, a.roots)) for a in _identity_pair(d)]
    obs = [p for e, r in pairs for p in zip(e, r)]
    induced = _with_roots([_valid_stack(_checked(r[..., None, :, :])[1]) for _, r in pairs])  # of the update instruments
    complementary = _frobenius_complementary(_defects(*obs[0], *obs[1]))
    return complementary, complementary & ~_entrywise_complementary(_defects(*induced[0], *induced[1]))


def _fold_conj_2_5(run: _Run, public: bool, candidate: bool, complementary: np.ndarray, found: np.ndarray) -> None:
    """Probe for a complementary observable pair whose measurement-update instruments fail instrument-level
    complementarity; reports only the search outcome, asserting nothing.  The batch's decisions cover every trial
    of its group: the complementary pairs are counted, and the counterexample candidates add up in ``run.worst``."""
    run.count = (run.count or 0) + int(complementary.sum())
    run.worst += int(found.sum())
    candidates = f"{run.worst:.0f} counterexample candidates" if run.worst else "no counterexample found"
    run.note = f"{candidates} in {run.count} trials"


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
    fn: Callable[[_Run], None] | None  # the suite body, run after any batched trials
    trials: int  # default trials; the reported count of a ``fixed`` suite
    tol: float | None  # pinned tolerance; None marks a probe
    fixed: bool = False
    batched: _Batched | None = None


SUITES: dict[str, _Suite] = {
    "ex-1": _Suite(_suite_ex_1, 1, 1e-10, fixed=True),
    "lem-1.1": _Suite(None, 50, 1e-8, batched=_Batched(3, (2, 3, 4), _public_lem_1_1, _batch_lem_1_1)),
    "lem-1.2": _Suite(_suite_lem_1_2, 6, 1e-9, fixed=True),
    "thm-2.1": _Suite(_suite_thm_2_1, 100, 1e-9, batched=_Batched(3, (2, 3, 4), _public_thm_2_1)),
    "thm-2.2": _Suite(_suite_thm_2_2, 100, 1e-9, batched=_Batched(6, (2, 3, 4), _public_thm_2_2, _batch_thm_2_2)),
    "thm-2.3": _Suite(_suite_thm_2_3, 100, 1e-9, batched=_Batched(6, (2, 3, 4), _public_thm_2_3)),
    "lem-2.4": _Suite(None, 50, 0.0, batched=_Batched(*_COMPLEMENTARY, _fold_lem_2_4)),
    "cor-2.5": _Suite(_suite_cor_2_5, 50, 0.0, batched=_Batched(*_COMPLEMENTARY, _fold_cor_2_5)),
    "lem-2.6": _Suite(None, 20, 1e-8, batched=_Batched(2, (2, 3), _public_lem_2_6, fold=_fold_lem_2_6)),
    "ex-2": _Suite(_suite_ex_2, 1, 0.0, fixed=True),
    "ex-3": _Suite(_suite_ex_3, 20, 1e-9, batched=_Batched(2, (2, 3), _public_ex_3)),
    "ex-4": _Suite(_suite_ex_4, 20, 1e-9, batched=_Batched(2, (2, 3), _public_ex_4, _batch_ex_4)),
    "ex-5": _Suite(None, 20, 1e-9, batched=_Batched(2, (2, 3), _public_ex_5)),
    "ex-6": _Suite(_suite_ex_6, 20, 1e-9, batched=_Batched(2, (2, 3), _public_ex_6)),
    "ex-7": _Suite(_suite_ex_7, 20, 1e-10, batched=_Batched(2, (2, 3), _public_ex_7, _batch_ex_7)),
    "ex-8": _Suite(None, 50, 1e-10, batched=_Batched(3, (2, 3, 4), _public_ex_8, _batch_ex_8)),
    "lem-3.1": _Suite(None, 100, 1e-10, batched=_Batched(6, (2, 3, 4), _public_lem_3_1, _batch_lem_3_1)),
    "thm-3.2": _Suite(_suite_thm_3_2, 1, 1e-9, fixed=True),
    "cor-3.3": _Suite(None, 20, 1e-9, batched=_Batched(3, (2, 3, 4), _public_cor_3_3)),
    "lem-3.4": _Suite(None, 50, 1e-9, batched=_Batched(2, (2, 3), _public_lem_3_4)),
    "thm-4.1": _Suite(None, 5, 1e-7, batched=_Batched(1, (2,), _public_thm_4_1, fold=_fold_thm_4_1)),
    "lem-4.2": _Suite(None, 20, 1e-8, batched=_Batched(2, (2, 3), _public_lem_4_2, fold=_fold_lem_4_2)),
    "cor-4.3": _Suite(None, 5, 1e-7, batched=_Batched(1, (2,), _public_cor_4_3, fold=_fold_cor_4_3)),
    "thm-4.4": _Suite(None, 20, 1e-8, batched=_Batched(2, (2, 3), _public_thm_4_4, _batch_thm_4_4, _fold_thm_4_4)),
    "cor-4.5": _Suite(None, 20, 1e-8, batched=_Batched(6, (2, 3), _public_cor_4_5)),
    "thm-4.6": _Suite(_suite_thm_4_6, 10, 1e-8, batched=_Batched(2, (2, 3), _public_thm_4_6)),
    "cor-4.7": _Suite(_suite_cor_4_7, 10, 1e-8, batched=_Batched(2, (2, 3), _public_cor_4_7)),
    "thm-4.8": _Suite(None, 20, 1e-8, batched=_Batched(2, (2, 3), _public_thm_4_8, _batch_thm_4_8)),
    "conj-2.5-converse": _Suite(
        None, 40, None, batched=_Batched(6, (2, 3, 4), _public_conj_2_5, _batch_conj_2_5, _fold_conj_2_5)
    ),
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
        if suite.batched is not None:
            period, dims, public, batch, fold = suite.batched
            for first, (values, calls, draws) in enumerate(run.groups(period, dims, public)):
                if batch:
                    values += batch(np.arange(first, n, period), *draws)
                else:  # a stacked route takes the group's draws as its generator
                    stacked = _Stacked(calls, draws)
                    values += public(stacked, first, dims[first % len(dims)])
                    stacked.end()
                fold(run, *values)
        if suite.fn is not None:
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
