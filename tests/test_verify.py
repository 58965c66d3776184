import ast
import copy

import numpy as np
import pytest

import qinstr.verify
from qinstr import cli
from qinstr.effects import CoexistenceWitness, _witness_joints, binary_observables_from_coexistence, ensure_effect
from qinstr.effects import ensure_effects, seq_products
from qinstr.errors import NotIsometry, NotNormal, QinstrError
from qinstr.instruments import (
    Instrument,
    _channel_kraus,
    _effects,
    choi_distances,
    joint_probability_instr,
    joint_probability_table_instr,
    luders_instrument,
    trivial_instrument,
)
from qinstr.linalg import _sandwich, hermitian_part
from qinstr.models import FIMM, VonNeumannModel, _coupled, _pairing_unitary, _vn_forms, _vn_w, model_instrument
from qinstr.models import trivial_fimm, vn_measured, von_neumann_unitary
from qinstr.observables import Observable, _pair_traces, _probability_table, _set_probabilities, _valid_stack
from qinstr.observables import joint_probability_table, obs_conditioned, obs_seq_product
from qinstr.rand import _commuting_effects, _states, _unitaries, _whitened_effects
from qinstr.rand import random_commuting_effect_pair, random_observable, random_state, random_unitary
from qinstr.verify import SUITES, _Batched, _Recorded, _rng, _Run, _Stacked, run_suite, run_suites

# (status, trials, tolerance, note) of every suite at seed 7; residuals are
# left out, since their last bits depend on the BLAS build.
REPORTS_AT_SEED_7 = {
    "ex-1": ("pass", 1, 1e-10, "gap in operator norm is 1/4"),
    "lem-1.1": ("pass", 50, 1e-8, ""),
    "lem-1.2": ("pass", 6, 1e-9, "non-MUB residual >= 1e-3"),
    "thm-2.1": ("pass", 100, 1e-9, "KJ gap 0.866 >= 1e-3"),
    "thm-2.2": ("pass", 100, 1e-9, "K mixture gap 0.135 >= 1e-2"),
    "thm-2.3": ("pass", 100, 1e-9, "K post-processing gap 0.354 >= 1e-3"),
    "lem-2.4": ("pass", 50, 0.0, "boolean agreement"),
    "cor-2.5": ("pass", 30, 0.0, "30 complementary pairs checked"),
    "lem-2.6": ("pass", 20, 1e-8, ""),
    "ex-2": ("pass", 1, 0.0, "outcome Choi ranks >= 2"),
    "ex-3": ("pass", 20, 1e-9, "observable-product gap 0.5 >= 1e-3"),
    "ex-4": ("pass", 20, 1e-9, "non-commuting gap 0.5 >= 1e-3"),
    "ex-5": ("pass", 20, 1e-9, ""),
    "ex-6": ("pass", 20, 1e-9, "conditioned-observable gap 0.707 >= 1e-3"),
    "ex-7": ("pass", 20, 1e-10, "probability gap 0.5 >= 1e-3"),
    "ex-8": ("pass", 50, 1e-10, ""),
    "lem-3.1": ("pass", 100, 1e-10, ""),
    "thm-3.2": ("pass", 1, 1e-9, ""),
    "cor-3.3": ("pass", 20, 1e-9, ""),
    "lem-3.4": ("pass", 50, 1e-9, ""),
    "thm-4.1": ("pass", 5, 1e-7, ""),
    "lem-4.2": ("pass", 20, 1e-8, ""),
    "cor-4.3": ("pass", 5, 1e-7, ""),
    "thm-4.4": ("pass", 20, 1e-8, "channel idempotent within 1e-9"),
    "cor-4.5": ("pass", 20, 1e-8, ""),
    "thm-4.6": ("pass", 10, 1e-8, "trivial instrument pointer is sharp, not atomic"),
    "cor-4.7": ("pass", 10, 1e-8, "non-PSD operator detected"),
    "thm-4.8": ("pass", 20, 1e-8, ""),
    "conj-2.5-converse": ("unknown", 40, 0.0, "no counterexample found in 40 trials"),
    "conj-3.3-converse": ("unknown", 40, 0.0, "no counterexample found in 40 identity-channel candidates"),
}

# Suites that run a fixed set of cases, with the count they report, and the
# suites that report how many cases they checked.
FIXED_COUNT = {"ex-1": 1, "lem-1.2": 6, "ex-2": 1, "thm-3.2": 1}
CHECKED_COUNT = {"cor-2.5", "conj-2.5-converse", "conj-3.3-converse"}


class TestSuiteRegistry:
    def test_expected_catalog(self):
        expected = {
            "ex-1", "ex-2", "ex-3", "ex-4", "ex-5", "ex-6", "ex-7", "ex-8",
            "lem-1.1", "lem-1.2", "lem-2.4", "lem-2.6", "lem-3.1", "lem-3.4",
            "lem-4.2", "thm-2.1", "thm-2.2", "thm-2.3", "thm-3.2", "thm-4.1",
            "thm-4.4", "thm-4.6", "thm-4.8", "cor-2.5", "cor-3.3", "cor-4.3",
            "cor-4.5", "cor-4.7", "conj-2.5-converse", "conj-3.3-converse",
        }
        assert set(SUITES) == expected

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_suite("thm-0.0")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_rejected(self, trials):
        with pytest.raises(QinstrError, match="trials must be at least 1"):
            run_suite("lem-1.1", trials=trials)
        with pytest.raises(QinstrError, match="trials must be at least 1"):
            run_suites(["lem-1.1"], trials=trials)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(QinstrError, match="seed must be nonnegative"):
            run_suite("lem-1.1", seed=-1)

    @pytest.mark.parametrize("tol_scale", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tol_scale_must_be_finite_and_positive(self, tol_scale):
        # inf would pass every suite vacuously; nan, 0 and -1 fail every one
        with pytest.raises(QinstrError, match="tol_scale must be finite and positive"):
            run_suite("thm-4.4", seed=7, tol_scale=tol_scale)
        with pytest.raises(QinstrError, match="tol_scale must be finite and positive"):
            run_suites(["thm-4.4"], seed=7, tol_scale=tol_scale)


def test_report_fields_at_seed_7():
    reports = run_suites(seed=7)
    assert {r.result_id: (r.status, r.trials, r.tolerance, r.note) for r in reports} == REPORTS_AT_SEED_7
    assert [r.result_id for r in reports] == list(REPORTS_AT_SEED_7)


def test_trials_argument_reaches_every_suite_that_takes_it():
    for result_id in SUITES:
        reported = run_suite(result_id, seed=0, trials=3).trials
        if result_id in FIXED_COUNT:
            assert reported == FIXED_COUNT[result_id], result_id
        elif result_id in CHECKED_COUNT:
            assert reported <= 3, result_id
        else:
            assert reported == 3, result_id


@pytest.mark.parametrize(
    "body, tol, tol_scale, expected",
    [
        (lambda run: run.residual(2e-10), 1e-10, 1.0, ("fail", 2e-10, "")),
        (lambda run: run.residual(2e-10), 1e-10, 10.0, ("pass", 2e-10, "")),
        (lambda run: run.residual(1e-10, bound=1e-11), 1e-9, 1.0, ("fail", 1e-10, "")),
        (lambda run: run.residual(1e-10, bound=1e-11), 1e-9, 100.0, ("pass", 1e-10, "")),
        (lambda run: run.gap("KJ gap", 4e-4, 1e-3), 1e-9, 1.0, ("fail", 0.0, "KJ gap 0.0004 >= 1e-3")),
        (lambda run: run.gap("KJ gap", 0.5, 1e-2), 1e-9, 1.0, ("pass", 0.0, "KJ gap 0.5 >= 1e-2")),
        (lambda run: run.require(False, "broken"), 1e-9, 1.0, ("fail", 1.0, "broken")),
        (lambda run: run.residual(3.0), None, 1.0, ("unknown", 3.0, "")),
    ],
    ids=["above-tol", "scaled-tol", "above-bound", "scaled-bound", "gap-missed", "gap-met", "require", "probe"],
)
def test_one_status_rule(monkeypatch, body, tol, tol_scale, expected):
    monkeypatch.setitem(SUITES, "lem-1.1", SUITES["lem-1.1"]._replace(fn=body, tol=tol, batched=None))
    report = run_suite("lem-1.1", seed=0, tol_scale=tol_scale)
    assert (report.status, report.max_residual, report.note) == expected
    assert report.tolerance == (0.0 if tol is None else tol * tol_scale)


@pytest.mark.parametrize(
    "body",
    [lambda run: (run.residual(1e-12), run.residual(np.nan)), lambda run: run.residual(1e-12, np.nan, bound=1.0)],
    ids=["running-max", "bound"],
)
def test_a_nan_residual_fails_its_suite(monkeypatch, body):
    monkeypatch.setitem(SUITES, "lem-1.1", SUITES["lem-1.1"]._replace(fn=body, tol=1e-9))
    report = run_suite("lem-1.1", seed=0)
    assert report.status == "fail" and np.isnan(report.max_residual)


def test_every_pass_goes_through_the_module_run_suite(monkeypatch, capsys):
    # A benchmark times each suite by rebinding qinstr.verify.run_suite; both
    # run_suites() and the CLI must call it once per suite, in table order.
    inner = qinstr.verify.run_suite
    calls = []

    def counting(result_id, *args, **kwargs):
        calls.append(result_id)
        return inner(result_id, *args, **kwargs)

    monkeypatch.setattr(qinstr.verify, "run_suite", counting)
    assert len(run_suites()) == len(SUITES) == 30
    assert calls == list(SUITES)
    calls.clear()
    assert cli.main(["verify", "--seed", "0"]) == 0
    assert calls == list(SUITES)
    capsys.readouterr()


@pytest.mark.parametrize("result_id", sorted(SUITES))
def test_suite_does_not_fail(result_id):
    report = run_suite(result_id, seed=0)
    assert report.status in ("pass", "unknown")
    if result_id.startswith("conj-"):
        assert report.status == "unknown"
    else:
        assert report.status == "pass"
    assert report.max_residual <= max(report.tolerance, 0.0) or report.status == "unknown"


def test_reports_deterministic_per_seed():
    first = run_suites(["lem-3.1", "thm-4.6"], seed=9)
    second = run_suites(["lem-3.1", "thm-4.6"], seed=9)
    assert [(r.result_id, r.max_residual, r.status) for r in first] == [
        (r.result_id, r.max_residual, r.status) for r in second
    ]


def test_different_seed_changes_draws():
    a = run_suite("lem-3.1", seed=1)
    b = run_suite("lem-3.1", seed=2)
    assert a.max_residual != b.max_residual


_BUDGETS = [
    ("lem-1.1", 21), ("lem-2.4", 153), ("cor-2.5", 153), ("lem-3.1", 72), ("lem-3.4", 8), ("thm-2.3", 26), ("ex-8", 36),
    ("lem-4.2", 16), ("ex-6", 23), ("thm-4.4", 12), ("cor-4.5", 56), ("thm-4.8", 32), ("conj-2.5-converse", 66),
    ("cor-3.3", 0), ("thm-4.1", 4), ("cor-4.3", 6), ("thm-4.6", 16), ("cor-4.7", 18), ("lem-2.6", 8), ("ex-7", 23),
]


@pytest.mark.parametrize("result_id, solves", [pytest.param(*budget, id=budget[0]) for budget in _BUDGETS])
def test_eigensolve_budget(result_id, solves, eig_calls):
    # Exact counts of eigh/eigvalsh calls for one suite at seed 7: a check
    # re-run on an object that was already validated raises the count.
    run_suite(result_id, seed=7)
    assert len(eig_calls.calls) == solves


@pytest.mark.parametrize("result_id", sorted(k for k, suite in SUITES.items() if suite.batched and suite.batched.batch))
def test_no_batch_program_solves_more_than_its_public_routes(result_id, eig_calls, monkeypatch):
    # At seed 7, the eigh/eigvalsh calls of a suite's batch programs are at most
    # those of its groups' public routes: a batch solves no spectrum that its
    # public route reads again instead.
    solves = {"public": 0, "batch": 0}

    def counted(side, fn):
        def call(*args):
            before = len(eig_calls.calls)
            try:
                return fn(*args)
            finally:
                solves[side] += len(eig_calls.calls) - before

        return call

    spec = SUITES[result_id].batched
    batched = spec._replace(public=counted("public", spec.public), batch=counted("batch", spec.batch))
    monkeypatch.setitem(SUITES, result_id, SUITES[result_id]._replace(batched=batched))
    run_suite(result_id, seed=7)
    assert 0 < solves["public"] and solves["batch"] <= solves["public"]


@pytest.mark.parametrize("seed", [94, 311])
def test_lem_1_2_redraws_near_unbiased_pairs(seed):
    # these seeds first draw a nearly unbiased "generic" pair
    assert run_suite("lem-1.2", seed=seed).status == "pass"


BATCHED = sorted(result_id for result_id, suite in SUITES.items() if suite.batched)


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("result_id", BATCHED)
def test_batched_suites_pass_with_groups_empty_or_of_one(result_id, trials):
    # At 1 and 2 trials some shape groups are empty, at 7 some hold one trial.
    # A suite that reports the cases it checked (cor-2.5) checks at least one;
    # the probe (conj-2.5-converse) reports "unknown".
    report = run_suite(result_id, seed=7, trials=trials)
    assert report.status == ("unknown" if SUITES[result_id].tol is None else "pass")
    assert 0 < report.trials <= trials if result_id in CHECKED_COUNT else report.trials == trials


def _groups(result_id: str, trials: int) -> list:
    spec = SUITES[result_id].batched
    return _Run(_rng(result_id, 7), trials, 1.0, 1.0).groups(spec.period, spec.dims, spec.public)


@pytest.mark.parametrize("result_id", BATCHED)
def test_batched_draws_are_the_public_generators_draws(result_id):
    # Each trial's row of its group's stacked draws holds the outputs of the
    # Generator calls that the trial's own public route makes from its
    # generator state, bitwise, and in the same order; every trial of a group
    # makes the same calls.
    spec, trials, names = SUITES[result_id].batched, 13, {}
    groups = _groups(result_id, trials)
    assert len(groups) == min(spec.period, trials)
    rng = _rng(result_id, 7)
    for t in range(trials):
        public = _Recorded(rng)
        residuals = spec.public(public, t, spec.dims[t % len(spec.dims)])
        called = [name for name, *_ in public.calls]
        assert names.setdefault(t % spec.period, called) == called
        first_residuals, calls, draws = groups[t % spec.period]
        assert [name for name, *_ in calls] == called and len(draws) == len(public.outputs)
        assert all(np.array_equal(stacked[t // spec.period], x) for stacked, x in zip(draws, public.outputs))
        if t < spec.period:
            assert first_residuals == residuals


@pytest.mark.parametrize("result_id", BATCHED)
def test_batched_trials_leave_the_generator_as_the_public_routes_do(result_id):
    # A suite body that draws after its batched trials (thm-2.1's) starts from
    # the state that running every trial's public route in turn leaves.
    spec, trials = SUITES[result_id].batched, 13
    run = _Run(_rng(result_id, 7), trials, 1.0, 1.0)
    run.groups(spec.period, spec.dims, spec.public)
    rng = _rng(result_id, 7)
    for t, d in run.cases(*spec.dims):
        spec.public(rng, t, d)
    assert run.rng.bit_generator.state == rng.bit_generator.state


def _trial_generators(result_id: str, trials: int) -> list:
    """A copy of the suite's generator from before each trial's public route."""
    spec, rng, out = SUITES[result_id].batched, _rng(result_id, 7), []
    for t in range(trials):
        out.append(copy.deepcopy(rng))
        spec.public(rng, t, spec.dims[t % len(spec.dims)])
    return out


STACKED = sorted(result_id for result_id in BATCHED if SUITES[result_id].batched.batch is None)


def test_the_stacked_suites_are_those_whose_public_route_takes_a_stack():
    assert STACKED == [
        "cor-3.3", "cor-4.3", "cor-4.5", "cor-4.7", "ex-3", "ex-5", "ex-6", "lem-2.6", "lem-3.4", "lem-4.2", "thm-2.1",
        "thm-2.3", "thm-4.1", "thm-4.6",
    ]


@pytest.mark.parametrize("result_id", STACKED)
def test_a_stacked_route_gives_the_worst_of_its_trials(result_id):
    # A suite with no array program runs its public route once more on each
    # group's draws stacked over the group's trials (the public one included):
    # each of its values is the worst of the trials' own public values.
    spec, trials = SUITES[result_id].batched, 13
    gens = _trial_generators(result_id, trials)
    for first, (_, calls, draws) in enumerate(_groups(result_id, trials)):
        d = spec.dims[first % len(spec.dims)]
        stacked = spec.public(_Stacked(calls, draws), first, d)
        ones = [spec.public(gens[t], t, d) for t in range(first, trials, spec.period)]
        assert np.abs(np.subtract(stacked, np.max(ones, axis=0))).max() <= 1e-15


@pytest.mark.parametrize("seed", [0, 7, 94, 311])
@pytest.mark.parametrize("result_id", STACKED)
def test_a_stacked_route_makes_its_public_trials_eigensolves(result_id, seed, eig_calls, monkeypatch):
    # Group by group, a stacked route makes exactly the eigh/eigvalsh calls of
    # its group's public trial, each on matrices of the same order (batched
    # over the group's trials): stacking solves no spectrum more, and skips
    # no check that solves one.
    spec, orders = SUITES[result_id].batched, {"public": [], "stacked": []}

    def counted(rng, t, d):
        before = len(eig_calls.calls)
        try:
            return spec.public(rng, t, d)
        finally:
            orders["stacked" if isinstance(rng, _Stacked) else "public"].append(eig_calls.orders[before:])

    monkeypatch.setitem(SUITES, result_id, SUITES[result_id]._replace(batched=spec._replace(public=counted)))
    run_suite(result_id, seed=seed)
    assert orders["public"] and orders["stacked"] == orders["public"]


@pytest.mark.parametrize("diverge", ["method", "arguments", "keyword", "past the end", "fewer", None])
def test_a_stacked_route_that_draws_otherwise_than_its_public_trial_fails(monkeypatch, diverge):
    # A stack replays its group's recorded Generator calls: a stacked route
    # that calls another method, passes other arguments, draws past the last
    # recorded call or leaves one unmade fails the suite, and one that makes
    # exactly the recorded calls runs.
    def route(rng, t, d):
        other = isinstance(rng, _Stacked) and diverge
        if other == "method":
            rng.random(2)
        else:
            rng.standard_normal(3 if other == "arguments" else 2)
        rng.dirichlet(np.ones(2), size=4 if other == "keyword" else d)
        if other != "fewer":
            rng.standard_normal((2, d))
        if other == "past the end":
            rng.standard_normal(1)
        return (0.0,)

    monkeypatch.setitem(SUITES, "ex-5", SUITES["ex-5"]._replace(batched=_Batched(2, (2, 3), route)))
    report = run_suite("ex-5", seed=7)
    expected = ("pass", "") if diverge is None else ("fail", "stacked draws diverge from the public trial's")
    assert (report.status, report.note) == expected


def test_verify_describes_no_more_suites_twice():
    # At most 10 array programs (`_batch_*`) and 32 private library imports
    # are left in verify.py, counted as CI's base-branch comparison counts
    # them: a change may lower either count, never raise it.
    with open(qinstr.verify.__file__) as f:
        tree = ast.parse(f.read())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    private = [a for n in imports for a in n.names if a.name.startswith("_")]
    batch = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_batch_")]
    assert len(batch) <= 10 and len(private) <= 32


def test_batched_probabilities_are_the_public_ones():
    # lem-3.1's array program builds, trial by trial, the observables, the state
    # and the two probability tables that the public functions build.
    trials, gens = 13, _trial_generators("lem-3.1", 13)
    for first, (_, _, (ga, gb, g, *_)) in enumerate(_groups("lem-3.1", trials)):
        d = 2 + first % 3
        a, b = (_valid_stack(_whitened_effects(s)) for s in (ga, gb))
        rho = _states(g)
        table = _probability_table(rho, seq_products(qinstr.verify._roots(a), b))
        for i, t in enumerate(range(first, trials, 6)):
            rng = gens[t]
            public_a, public_b = random_observable(d, 2 + t % 2, rng), random_observable(d, 2 + (t + 1) % 2, rng)
            public_rho = random_state(d, rng)
            assert np.abs(a[i] - public_a.stack).max() <= 1e-15 and np.abs(b[i] - public_b.stack).max() <= 1e-15
            assert np.array_equal(rho[i], public_rho)
            assert np.abs(table[i] - joint_probability_table(public_rho, public_a, public_b)).max() <= 1e-15
            luders = joint_probability_table_instr(public_rho, luders_instrument(public_a), luders_instrument(public_b))
            assert np.abs(table[i] - luders).max() <= 1e-14


def test_batched_joint_observables_are_the_public_ones():
    # lem-1.1's array program draws, trial by trial, the commuting effect pair
    # that the public generator draws, and its stacked witness check builds the
    # joint observable that binary_observables_from_coexistence builds.
    trials, gens = 13, _trial_generators("lem-1.1", 13)
    for first, (_, _, (g, x)) in enumerate(_groups("lem-1.1", trials)):
        d = 2 + first % 3
        a, b = _commuting_effects(_unitaries(g), x).swapaxes(0, 1)
        ab = ensure_effects(hermitian_part(a @ b))
        joint = _witness_joints(a, b, CoexistenceWitness(a - ab, b - ab, ab))[0]
        for i, t in enumerate(range(first, trials, 3)):
            public_a, public_b = random_commuting_effect_pair(d, gens[t])
            assert np.array_equal(a[i], public_a) and np.array_equal(b[i], public_b)
            public_ab = ensure_effect(hermitian_part(public_a @ public_b))
            witness = CoexistenceWitness(public_a - public_ab, public_b - public_ab, public_ab)
            assert np.array_equal(joint[i], binary_observables_from_coexistence(public_a, public_b, witness).stack)


def test_batched_tables_are_the_public_ones():
    # ex-8's array program builds, trial by trial, the two outcome tables that
    # the public functions build from the same draws.
    trials, gens = 13, _trial_generators("ex-8", 13)
    for first, (_, _, (ga, gb, g)) in enumerate(_groups("ex-8", trials)):
        d = 2 + first % 3
        p_instr, p_obs = qinstr.verify._luders_tables(ga, gb, g)
        for i, t in enumerate(range(first, trials, 3)):
            rng = gens[t]
            a, b, rho = random_observable(d, 2, rng), random_observable(d, 2, rng), random_state(d, rng)
            luders = joint_probability_table_instr(rho, luders_instrument(a), luders_instrument(b))
            assert np.abs(p_instr[i] - luders).max() <= 1e-15
            assert np.abs(p_obs[i] - joint_probability_table(rho, a, b)).max() <= 1e-15


def test_complementarity_folds_take_every_trial_of_a_group():
    # The batch's decisions cover every trial of the group, the public one
    # included: lem-2.4 counts the disagreeing ones, cor-2.5 the instrument-
    # complementary ones and, of those, the observable failures.
    instrs, obss = np.array([True, True, False, True]), np.array([False, True, True, True])
    lem, cor = (_Run(_rng(result_id, 7), 4, 1.0, 0.0) for result_id in ("lem-2.4", "cor-2.5"))
    qinstr.verify._fold_lem_2_4(lem, True, True, instrs, obss)
    qinstr.verify._fold_cor_2_5(cor, True, True, instrs, obss)
    assert (lem.worst, lem.note) == (2.0, "boolean agreement")
    assert (cor.worst, cor.count) == (1.0, 3)


def test_the_probe_fold_counts_every_trial_of_every_group():
    # conj-2.5-converse's fold takes the batch's decisions, which cover every
    # trial of a group, the public one included: it counts the complementary
    # pairs and adds up the counterexample candidates over the groups.
    run = _Run(_rng("conj-2.5-converse", 7), 8, 1.0, 0.0)
    complementary, found = np.array([True, True, False, True]), np.array([False, True, False, True])
    qinstr.verify._fold_conj_2_5(run, True, False, complementary, np.zeros(4, dtype=bool))
    assert (run.count, run.worst, run.note) == (3, 0.0, "no counterexample found in 3 trials")
    qinstr.verify._fold_conj_2_5(run, True, False, complementary, found)
    assert (run.count, run.worst, run.note) == (6, 2.0, "2 counterexample candidates in 6 trials")


def test_the_coexistence_folds_take_every_trial_of_a_group():
    # thm-4.1's fold takes the public trial's values, then the stacked
    # route's: a stacked pointer commutator above 1e-8 fails the run although
    # it is within the tolerance, and a stacked marginal defect above run.tol
    # ends the run with the suite's note, as the public trial's would.
    values = (0.0, 0.0, 1e-9, 1e-9)
    run = _Run(_rng("thm-4.1", 7), 5, 1.0, 1e-7)
    qinstr.verify._fold_thm_4_1(run, *values, 0.0, 2e-8, 1e-9, 1e-9)
    assert (run.met, run.worst) == (False, 2e-8)
    for public, stacked in ((values, (2e-7, 0.0, 0.0, 0.0)), ((2e-7, 0.0, 0.0, 0.0), values)):
        with pytest.raises(qinstr.verify._Stop, match="converse marginals broken"):
            qinstr.verify._fold_thm_4_1(_Run(_rng("thm-4.1", 7), 5, 1.0, 1e-7), *public, *stacked)
    with pytest.raises(qinstr.verify._Stop, match="measured joint observable broken"):
        qinstr.verify._fold_cor_4_3(_Run(_rng("cor-4.3", 7), 5, 1.0, 1e-7), 0.0, 0.0, 0.0, 2e-7, 0.0, 0.0)


def test_batched_complementarity_decisions_are_the_public_ones():
    # lem-2.4's and cor-2.5's array program decides, trial by trial, both
    # complementarity rules as the public functions decide them, for every
    # kind and dimension (two trials of each of the 15 shapes).
    trials, gens = 30, _trial_generators("lem-2.4", 30)
    spec = SUITES["lem-2.4"].batched
    assert SUITES["cor-2.5"].batched[:4] == spec[:4]
    for first, (_, _, draws) in enumerate(_groups("lem-2.4", trials)):
        t = np.arange(first, trials, 15)
        decisions = np.stack(spec.batch(t, *draws), axis=1)
        for i, decided in enumerate(decisions):
            assert tuple(decided) == spec.public(gens[t[i]], t[i], 2 + t[i] % 3)


def test_batched_luders_products_are_the_public_ones():
    # ex-4's array program builds, trial by trial, the effects of the product
    # and of the conditioned measurement-update instruments, which equal
    # obs_seq_product and obs_conditioned of the public observables.
    trials, gens = 13, _trial_generators("ex-4", 13)
    for first, (_, _, (ga, gb)) in enumerate(_groups("ex-4", trials)):
        d = 2 + first % 2
        i, j = (qinstr.verify._luders(_valid_stack(_whitened_effects(x)))[0] for x in (ga, gb))
        products = qinstr.verify._products
        product, conditioned = (_effects(products(x, j)) for x in (i, _channel_kraus(i)[0]))
        for k, t in enumerate(range(first, trials, 2)):
            a, b = random_observable(d, 2, gens[t]), random_observable(d, 2, gens[t])
            assert np.abs(product[k] - obs_seq_product(a, b).stack).max() <= 1e-14
            assert np.abs(conditioned[k] - obs_conditioned(a, b).stack).max() <= 1e-14


def test_batched_prepared_probabilities_are_the_public_ones():
    # ex-7's array program builds, trial by trial, the probability of the first
    # outcome of a state preparation and then the second of another that
    # joint_probability_instr computes.
    trials, gens = 13, _trial_generators("ex-7", 13)
    trivial = qinstr.verify._trivial
    for first, (_, _, (ga, gb, *g)) in enumerate(_groups("ex-7", trials)):
        d = 2 + first % 2
        a, b = (_valid_stack(_whitened_effects(x)) for x in (ga, gb))
        alpha, beta, rho = _states(np.stack(g))
        table = _pair_traces(_sandwich(trivial(a, alpha)[0], rho[:, None, None]), trivial(b, beta)[1])
        p = _set_probabilities(table, np.array([True, False]), np.array([False, True]))
        for k, t in enumerate(range(first, trials, 2)):
            rng = gens[t]
            public_a, public_b = random_observable(d, 2, rng), random_observable(d, 2, rng)
            public_alpha, public_beta, public_rho = (random_state(d, rng) for _ in range(3))
            i, j = trivial_instrument(public_a, public_alpha), trivial_instrument(public_b, public_beta)
            assert abs(p[k] - joint_probability_instr(public_rho, i, ["0"], j, ["1"])) <= 1e-15


@pytest.mark.parametrize(
    "result_id, swap_effects, note",
    [
        ("lem-4.2", False, "joint instrument marginals broken"),
        ("lem-2.6", False, "joint marginals broken"),
        ("lem-2.6", True, "observables do not coexist"),
    ],
)
def test_a_marginal_defect_in_a_stacked_trial_fails_its_suite(monkeypatch, result_id, swap_effects, note):
    # The last trial of each shape group's stack, not the group's public
    # trial, gets a first marginal that its joint does not have: the operators
    # of its first outcome permuted on the left (a valid instrument with the
    # same effects), or the two effects of its induced observable swapped (the
    # same sum). Each trial's marginal checks end the suite with their note.
    marginals = qinstr.verify.marginal_instruments

    def broken(joint):
        first, second = marginals(joint)
        if first.kraus.ndim == 5:  # a stack of trials
            if swap_effects:
                effects = first.effects.copy()
                effects[-1] = effects[-1, ::-1].copy()
                first.__dict__["_observable"] = Observable._valid(first.labels, effects)
            else:
                kraus = first.kraus.copy()
                kraus[-1, 0] = np.roll(np.eye(kraus.shape[-1]), 1, axis=0) @ kraus[-1, 0]
                first = Instrument._from_kraus(first.labels, kraus, first.counts)
        return first, second

    monkeypatch.setattr(qinstr.verify, "marginal_instruments", broken)
    report = run_suite(result_id, seed=7)
    assert (report.status, report.note) == ("fail", note)


def test_batched_von_neumann_instruments_are_the_public_ones():
    # thm-4.4's array program builds, trial by trial, the instrument, channel
    # and observable that vn_measured builds, the instrument model_instrument
    # measures on the model, and the one it measures on a public FIMM of the
    # pairing unitary, each outcome cut to at most d^2 operators.
    trials, gens, v = 13, _trial_generators("thm-4.4", 13), qinstr.verify
    for first, (_, _, (gb, gp, g, _)) in enumerate(_groups("thm-4.4", trials)):
        d = 2 + first % 2
        base, probe = _unitaries(gb), _unitaries(gp)
        eta = hermitian_part(probe[:, :, :1] @ probe[:, :, :1].conj().swapaxes(1, 2))
        f = v._columns(np.concatenate([_valid_stack(_whitened_effects(g)), eta[:, None]], 1))
        kraus, channel, effects = _vn_forms(base, probe, f[:, :-1])
        instr, obs = v._assembled_batch(kraus)[0], _valid_stack(effects)
        direct = v._measured(_vn_w(base, probe)[:, None, :, :, None], f[:, :-1])[0]
        public = v._measured(_coupled(_pairing_unitary(base, probe)[:, None], d, f[:, -1]), f[:, :-1])[0]
        for k, t in enumerate(range(first, trials, 2)):
            rng = gens[t]
            model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))
            one_instr, one_channel, one_obs = vn_measured(model)
            unitary = von_neumann_unitary(model.base_basis, model.probe_basis)
            one_public = model_instrument(FIMM(d, d, model.probe_state, unitary, model.pointer))
            for batch, one in ((instr, one_instr), (direct, model_instrument(model)), (public, one_public)):
                assert choi_distances(batch[k], one.kraus).max() <= 1e-14
                assert len(batch[k][0]) <= d * d
            assert choi_distances([channel[k]], [one_channel._kraus])[0] <= 1e-14
            assert np.abs(obs[k] - one_obs.stack).max() <= 1e-14


def test_batched_swap_model_instruments_are_the_public_ones():
    # thm-4.8's array program builds, trial by trial, the instruments that
    # model_instrument measures on the two swap models of trivial_fimm.
    trials, gens = 13, _trial_generators("thm-4.8", 13)
    for first, (_, _, (g, gp, ga, galpha)) in enumerate(_groups("thm-4.8", trials)):
        d = 2 + first % 2
        swapped = [
            qinstr.verify._swapped(_valid_stack(_whitened_effects(x)), _states(y)) for x, y in ((gp, g), (ga, galpha))
        ]
        for k, t in enumerate(range(first, trials, 2)):
            rng = gens[t]
            eta, pointer = random_state(d, rng), random_observable(d, 2 + t % 2, rng)
            a, alpha = random_observable(d, 2, rng), random_state(d, rng)
            for batch, one in zip(swapped, (trivial_fimm(eta, pointer), trivial_fimm(alpha, a))):
                assert choi_distances(batch[k], model_instrument(one).kraus).max() <= 1e-14
                assert len(batch[k][0]) <= d * d


def test_a_model_fault_in_a_batched_trial_fails_its_suite(monkeypatch):
    # The last trial of each shape group, a batched one and not the group's
    # public trial, gets a faulty von Neumann closed form: the dephasing
    # channel is scaled by 1 + 4e-9, which misses idempotence by more than
    # 1e-9 while every distance stays within the 1e-8 tolerance.
    vn_forms = qinstr.verify._vn_forms

    def broken(base, probe, f):
        kraus, channel, effects = vn_forms(base, probe, f)
        channel = channel.copy()
        channel[-1] *= np.sqrt(1.0 + 4e-9)
        return kraus, channel, effects

    monkeypatch.setattr(qinstr.verify, "_vn_forms", broken)
    report = run_suite("thm-4.4", seed=7)
    assert report.status == "fail"  # the idempotence bound, not the tolerance, fails the suite
    assert report.max_residual <= report.tolerance and report.note == "channel idempotent within 1e-9"


def test_a_model_fault_in_a_stacked_trial_fails_cor_4_5(monkeypatch):
    # The last trial of each shape group's stack, not the group's public
    # trial, gets a generic model (its probe basis drawn per trial) that
    # measures two effects that do not commute: two of a random three-outcome
    # observable's, past the sum check, as two effects that sum to the
    # identity always commute.
    measured = qinstr.verify.vn_measured

    def broken(model):
        instr, channel, obs = measured(model)
        if model.probe_basis.ndim == 3:
            stack = obs.stack.copy()
            stack[-1] = random_observable(obs.dim, 3, np.random.default_rng(0)).stack[:2]
            obs = Observable._checked(obs.labels, stack, None)
        return instr, channel, obs

    monkeypatch.setattr(qinstr.verify, "vn_measured", broken)
    report = run_suite("cor-4.5", seed=7)
    assert (report.status, report.note) == ("fail", "measured observable not commutative")


@pytest.mark.parametrize("route", ["public", "stacked"])
def test_an_eigenbasis_redraw_fails_cor_4_5(monkeypatch, route):
    # The public route would draw a rejected eigenbasis combination again, but
    # a stacked trial replays the one combination its group's public trial
    # drew. So a public trial that drew twice (its first draw rejected here),
    # or a stacked trial whose combination does not diagonalize (the last of
    # each group rejected here), fails the suite: no basis is taken unchecked.
    eigenbasis, calls = qinstr.models._eigenbasis, []

    def rejecting(stack, x):
        v, diagonals, diagonalizes = eigenbasis(stack, x)
        calls.append(x)
        if route == "public":
            return v, diagonals, diagonalizes and len(calls) > 1
        if diagonalizes.ndim:  # a stack: its last trial's combination rejected
            diagonalizes = diagonalizes & (np.arange(diagonalizes.size) < diagonalizes.size - 1)
        return v, diagonals, diagonalizes

    monkeypatch.setattr(qinstr.models, "_eigenbasis", rejecting)
    report = run_suite("cor-4.5", seed=7)
    assert (report.status, report.note) == ("fail", "eigenbasis redrawn")


@pytest.mark.parametrize(
    "result_id, module, name, message",
    [
        ("thm-4.4", qinstr.verify, "_pairing_unitary", "interaction matrix is not unitary"),
        ("cor-4.5", qinstr.models, "_eigenbasis", "bases must be unitary"),
    ],
)
def test_a_non_unitary_matrix_in_a_batched_trial_is_refused(monkeypatch, result_id, module, name, message):
    # Every trial's pairing unitary (thm-4.4) is tested as FIMM tests an
    # interaction, and every trial's eigenbasis (cor-4.5, a stacked
    # VonNeumannModel) as VonNeumannModel tests its bases: the last trial of
    # each group, a batched or stacked one, gets one scaled by 1 + 1e-7.
    original = getattr(module, name)

    def broken(*args):
        out = original(*args)
        u = (out[0] if isinstance(out, tuple) else out).copy()
        if u.ndim == 3:
            u[-1] *= 1.0 + 1e-7
        return (u, *out[1:]) if isinstance(out, tuple) else u

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(NotIsometry, match=message):
        run_suite(result_id, seed=7)


def _zero_last(isometry):
    def broken(ops):
        if ops.ndim == 4:  # a stack: its last trial's operators zero
            ops = ops.copy()
            ops[-1] = 0.0
        return isometry(ops)

    return broken


def _merged(projections):
    def broken(owner, m):
        return projections(np.zeros_like(owner), m)  # every slot to the first outcome

    return broken


def _averaged(projections):
    def broken(owner, m):
        out = projections(owner, m)
        return (out + out[::-1]) / 2.0  # effects 1/2 on the slots of two outcomes: not projections

    return broken


def _negated_last(extract):
    def broken(*args):
        ops = extract(*args)
        if ops.ndim == 4:  # a stack: -sqrt(A_0) in its last trial, the same effect, not positive
            ops = ops.copy()
            ops[-1, 0] *= -1.0
        return ops

    return broken


def _scaled_last(extract):
    def broken(w, vectors, overlap):
        if w.ndim == 3:  # a stack: its last trial's extracted operators' effects sum to 1.21
            w = w.copy()
            w[-1] *= 1.1
        return extract(w, vectors, overlap)

    return broken


def _left_rotated_last(slot_operators):
    def broken(iso, owner):
        ops = slot_operators(iso, owner)
        if ops.ndim == 4 and owner.max() == 3:  # the product pointer's, stacked: in its last trial,
            ops = ops.copy()
            ops[-1] = ops[-1, ::-1]  # the outcomes' effects reversed,
            ops[-1, 0] = np.roll(np.eye(ops.shape[-1]), 1, axis=0) @ ops[-1, 0]  # the first operator rotated
        return ops

    return broken


@pytest.mark.parametrize(
    "result_id, name, fault, error, note",
    [
        ("thm-4.6", "_isometry", _zero_last, NotIsometry, "stacked Kraus columns are numerically rank deficient"),
        ("cor-4.7", "_isometry", _zero_last, NotIsometry, "stacked Kraus columns are numerically rank deficient"),
        ("thm-4.6", "_slot_projections", _merged, None, "pointer not atomic"),
        ("thm-4.1", "_slot_projections", _averaged, None, "pointers not sharp"),
        ("cor-4.7", "_normal_kraus", _negated_last, None, "positivity check failed on update model"),
        ("thm-4.6", "_normal_kraus", _scaled_last, NotNormal, "miss completeness"),
        ("thm-4.1", "_slot_operators", _left_rotated_last, None, "converse marginals broken"),
        ("cor-4.3", "_slot_operators", _left_rotated_last, None, "measured joint observable broken"),
    ],
)
def test_a_dilation_fault_in_a_stacked_trial_fails_its_suite(monkeypatch, result_id, name, fault, error, note):
    # A dilation kernel of qinstr.models gets a fault in the last trial of
    # each shape group's stack, not the group's public trial: a zero (rank-
    # deficient) isometry, a negated extracted operator (the same effects, not
    # positive), an isometry scaled so that its extracted operators miss
    # completeness, or a product pointer's instrument whose marginals are not
    # the two models'. A group shares one pointer, so a pointer with every slot
    # on one outcome (not atomic) or with effects that are not projections
    # (not sharp) is every trial's, the public one's too. Each is refused.
    monkeypatch.setattr(qinstr.models, name, fault(getattr(qinstr.models, name)))
    if error is not None:
        with pytest.raises(error, match=note):
            run_suite(result_id, seed=7)
    else:
        report = run_suite(result_id, seed=7)
        assert (report.status, report.note) == ("fail", note)
