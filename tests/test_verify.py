import ast
import copy

import numpy as np
import pytest

import qinstr.verify
from qinstr import cli
from qinstr.errors import NotIsometry, NotNormal, QinstrError
from qinstr.instruments import Instrument
from qinstr.observables import Observable
from qinstr.rand import random_observable
from qinstr.verify import SUITES, _Batched, _Group, _rng, _Run, run_suite, run_suites

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
    ("lem-1.1", 12), ("lem-2.4", 96), ("cor-2.5", 96), ("lem-3.1", 42), ("lem-3.4", 4), ("thm-2.3", 14), ("ex-8", 21),
    ("lem-4.2", 8), ("ex-6", 13), ("thm-4.4", 6), ("cor-4.5", 28), ("thm-4.8", 16), ("conj-2.5-converse", 36),
    ("cor-3.3", 0), ("thm-4.1", 2), ("cor-4.3", 3), ("thm-4.6", 10), ("cor-4.7", 10), ("lem-2.6", 4), ("ex-7", 15),
    ("thm-2.1", 12), ("ex-3", 7), ("ex-5", 2), ("thm-2.2", 22), ("ex-4", 20),
]


@pytest.mark.parametrize("result_id, solves", [pytest.param(*budget, id=budget[0]) for budget in _BUDGETS])
def test_eigensolve_budget(result_id, solves, eig_calls):
    # Exact counts of eigh/eigvalsh calls for one suite at seed 7: a check
    # re-run on an object that was already validated raises the count.
    run_suite(result_id, seed=7)
    assert len(eig_calls.calls) == solves


def test_every_batched_suite_has_an_eigensolve_budget():
    # A suite that runs its trials by shape group (one stacked route per
    # group) has an exact budget row, so a later change cannot drop out.
    assert sorted(k for k, suite in SUITES.items() if suite.batched) == sorted(k for k, _ in _BUDGETS)


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


@pytest.mark.parametrize("result_id", ["lem-2.4", "cor-2.5", "conj-2.5-converse"])
def test_complementarity_routes_take_the_runners_dimension(result_id, monkeypatch):
    # The complementarity routes build their pairs at the dimension the
    # runner hands them, not one derived again from the trial index: with the
    # row's dims set to (8,) each passes (the probe reports "unknown").
    spec = SUITES[result_id].batched
    monkeypatch.setitem(SUITES, result_id, SUITES[result_id]._replace(batched=spec._replace(dims=(8,))))
    report = run_suite(result_id, seed=7, trials=15)
    assert report.status == ("unknown" if SUITES[result_id].tol is None else "pass")
    assert 0 < report.trials <= 15


def _groups(result_id: str, trials: int) -> list:
    """Each shape group of a run of ``trials`` trials at seed 7, in run order: its trials, its dimension, a copy
    of the suite's generator from before the group's draws, and those draws, each stacked over its trials."""
    spec, rng, out = SUITES[result_id].batched, _rng(result_id, 7), []
    for first in range(min(spec.period, trials)):
        ts, d, before = np.arange(first, trials, spec.period), spec.dims[first % len(spec.dims)], copy.deepcopy(rng)
        group = _Group(rng, len(ts))
        spec.public(group, first, d)
        out.append((ts, d, before, group.draws))
    return out


class _Slice(_Group):
    """A shape group's generator whose calls return one trial's slice of each stacked draw."""

    def __init__(self, rng: np.random.Generator, trials: int, trial: int):
        super().__init__(rng, trials)
        self.trial = trial

    def __getattr__(self, name: str):
        call = super().__getattr__(name)
        return lambda *args, **kwargs: call(*args, **kwargs)[self.trial]


def _slice(group: tuple, i: int) -> _Slice:
    """Trial ``i``'s generator in a ``_groups`` entry: the group's draws from its state, each call returning slice ``i``."""
    ts, _, before, _ = group
    return _Slice(copy.deepcopy(before), len(ts), i)


def _stacked(group: tuple) -> _Group:
    """The generator of a ``_groups`` entry's stacked route: the group's draws from its state."""
    ts, _, before, _ = group
    return _Group(copy.deepcopy(before), len(ts))


@pytest.mark.parametrize("result_id", BATCHED)
def test_batched_draws_are_the_public_generators_draws(result_id, monkeypatch):
    # A group's generator makes one draw per Generator call of the route, for
    # every trial of the group at once, ``(trials, *size)``: the run's groups
    # draw these stacks. Trial i's public route on slice i of the group's
    # draws makes the same calls from the group's state, to the same stacks
    # bitwise, and so does a stacked route.
    spec, trials, run_draws = SUITES[result_id].batched, 13, []
    groups = _groups(result_id, trials)

    def public(rng, t, d):
        values = spec.public(rng, t, d)
        run_draws.append(rng.draws)
        return values

    monkeypatch.setitem(SUITES, result_id, SUITES[result_id]._replace(batched=spec._replace(public=public)))
    run_suite(result_id, seed=7, trials=trials)
    assert len(groups) == len(run_draws) == min(spec.period, trials)
    for (_, _, _, draws), drawn in zip(groups, run_draws):
        assert len(drawn) == len(draws) and all(np.array_equal(x, y) for x, y in zip(drawn, draws))
    for group in groups:
        ts, d, _, draws = group
        assert all(len(x) == len(ts) for x in draws)
        routes = [_slice(group, i) for i in range(len(ts))]
        for t, rng in zip(ts, routes):
            spec.public(rng, t, d)
        routes.append(_stacked(group))
        spec.public(routes[-1], ts[0], d)
        for rng in routes:
            assert len(rng.draws) == len(draws) and all(np.array_equal(x, y) for x, y in zip(rng.draws, draws))


@pytest.mark.parametrize("result_id", BATCHED)
def test_batched_trials_leave_the_generator_as_the_public_routes_do(result_id, monkeypatch):
    # A suite body that draws after its batched trials (thm-2.1's) starts from
    # the state that running each group's route in turn, in group order, leaves.
    spec, trials, states = SUITES[result_id].batched, 13, []
    body = SUITES[result_id]._replace(fn=lambda run: states.append(run.rng.bit_generator.state))
    monkeypatch.setitem(SUITES, result_id, body)
    run_suite(result_id, seed=7, trials=trials)
    group = _groups(result_id, trials)[-1]
    last = _slice(group, 0)
    spec.public(last, group[0][0], group[1])
    assert states == [last.rng.bit_generator.state]


DECIDING = ["conj-2.5-converse", "cor-2.5", "lem-2.4"]  # routes that give each trial's decisions, not residuals


def test_every_suite_that_draws_trials_runs_them_stacked():
    # Every suite whose trials draw random numbers but conj-3.3-converse (which
    # draws no instrument) runs its public route once per shape group on the
    # group's stacked draws; no suite has another description of its trials.
    assert BATCHED == [
        "conj-2.5-converse", "cor-2.5", "cor-3.3", "cor-4.3", "cor-4.5", "cor-4.7", "ex-3", "ex-4", "ex-5", "ex-6",
        "ex-7", "ex-8", "lem-1.1", "lem-2.4", "lem-2.6", "lem-3.1", "lem-3.4", "lem-4.2", "thm-2.1", "thm-2.2",
        "thm-2.3", "thm-4.1", "thm-4.4", "thm-4.6", "thm-4.8",
    ]
    assert _Batched._fields == ("period", "dims", "public", "fold")


@pytest.mark.parametrize("result_id", [result_id for result_id in BATCHED if result_id not in DECIDING])
def test_a_stacked_route_gives_the_worst_of_its_trials(result_id):
    # A suite runs its public route once on each group's draws stacked over
    # the group's trials: each of its values is the worst of trial i's public
    # values on slice i of the group's draws.
    spec, trials = SUITES[result_id].batched, 13
    for group in _groups(result_id, trials):
        ts, d, _, _ = group
        stacked = spec.public(_stacked(group), ts[0], d)
        ones = [spec.public(_slice(group, i), t, d) for i, t in enumerate(ts)]
        assert np.abs(np.subtract(stacked, np.max(ones, axis=0))).max() <= 1e-15


@pytest.mark.parametrize("result_id", DECIDING)
def test_a_stacked_route_gives_each_trials_decisions(result_id):
    # The complementarity routes and the probe decide, trial by trial, as
    # their public route decides on trial i's slice of its group's draws, for
    # every kind and dimension (two trials of each shape).
    spec = SUITES[result_id].batched
    for group in _groups(result_id, 2 * spec.period):
        ts, d, _, _ = group
        stacked = spec.public(_stacked(group), ts[0], d)
        assert all(np.shape(decisions) == ts.shape for decisions in stacked)
        for i, t in enumerate(ts):
            assert tuple(bool(x[i]) for x in stacked) == tuple(map(bool, spec.public(_slice(group, i), t, d)))


@pytest.mark.parametrize("seed", [0, 7, 94, 311])
@pytest.mark.parametrize("result_id", BATCHED)
def test_a_stacked_route_makes_the_eigensolves_of_its_route_on_one_trial(result_id, seed, eig_calls, monkeypatch):
    # Group by group, the run's stacked route makes exactly the eigh/eigvalsh
    # calls of the same route on one trial's slice of the group's draws, each
    # on matrices of the same order (batched over the group's trials):
    # stacking solves no spectrum more, and skips no check that solves one.
    spec, orders = SUITES[result_id].batched, {"stacked": [], "one": []}

    def counted(rng, t, d):
        state, before = copy.deepcopy(rng.rng), len(eig_calls.calls)
        values = spec.public(rng, t, d)
        orders["stacked"].append(eig_calls.orders[before:])
        before = len(eig_calls.calls)
        spec.public(_Slice(state, rng.trials, 0), t, d)
        orders["one"].append(eig_calls.orders[before:])
        return values

    monkeypatch.setitem(SUITES, result_id, SUITES[result_id]._replace(batched=spec._replace(public=counted)))
    run_suite(result_id, seed=seed)
    assert orders["one"] and orders["stacked"] == orders["one"]


def test_verify_describes_no_more_suites_twice():
    # No array program (`_batch_*`) and at most 1 private library import are
    # left in verify.py, counted as CI's base-branch comparison counts them:
    # a change may lower the count, never raise it.
    with open(qinstr.verify.__file__) as f:
        tree = ast.parse(f.read())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    private = [a for n in imports for a in n.names if a.name.startswith("_")]
    batch = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_batch_")]
    assert not batch and len(private) <= 1


def _route_calls(monkeypatch, result_id: str, *names: str, trials: int = 13) -> list:
    """Per shape group of ``result_id`` at seed 7, what each of ``names`` (functions ``qinstr.verify`` calls)
    returned in the group's stacked route, and in the route on each trial's slice of the group's draws, one
    ``{name: [returns]}`` for the stacked route and a list of them, one per trial."""
    spec, groups, seen = SUITES[result_id].batched, _groups(result_id, trials), {name: [] for name in names}
    for name in names:
        def keep(*args, _fn=getattr(qinstr.verify, name), _out=seen[name]):
            _out.append(_fn(*args))
            return _out[-1]

        monkeypatch.setattr(qinstr.verify, name, keep)
    out = []
    for group in groups:
        ts, d, _, _ = group
        runs = []
        for rng, t in [(_stacked(group), ts[0]), *((_slice(group, i), t) for i, t in enumerate(ts))]:
            for returns in seen.values():
                returns.clear()
            spec.public(rng, t, d)
            runs.append({name: list(returns) for name, returns in seen.items()})
        out.append((runs[0], runs[1:]))
    return out


def test_stacked_set_probabilities_are_each_trials(monkeypatch):
    # lem-3.1's stacked route gives, trial by trial, the set probabilities of
    # the measurement-update instruments and of the observables, over each
    # trial's own outcome sets, that its route gives on the trial's slice of
    # its group's draws.
    for stacked, ones in _route_calls(monkeypatch, "lem-3.1", "joint_probability_instr", "joint_probability_then"):
        for name, (p,) in stacked.items():
            assert p.shape == (len(ones),)
            assert all(abs(p[i] - one[name][0]) <= 1e-15 for i, one in enumerate(ones))


def test_stacked_joint_observables_are_each_trials(monkeypatch):
    # lem-1.1's stacked route draws, trial by trial, the commuting effect pair
    # that its route draws from the trial's slice of its group's draws, and
    # binary_observables_from_coexistence builds each trial's joint observable.
    names = "random_commuting_effect_pair", "binary_observables_from_coexistence"
    for stacked, ones in _route_calls(monkeypatch, "lem-1.1", *names):
        (pair,), (joint,) = stacked.values()
        assert joint.stack.shape == (len(ones), 4, *joint.stack.shape[-2:])
        for i, one in enumerate(ones):
            (one_pair,), (one_joint,) = one.values()
            assert all(np.array_equal(x[i], y) for x, y in zip(pair, one_pair))
            assert np.array_equal(joint.stack[i], one_joint.stack)


def test_stacked_tables_are_each_trials(monkeypatch):
    # ex-8's stacked route builds, trial by trial, the two outcome tables that
    # its route builds from the trial's slice of its group's draws.
    for stacked, ones in _route_calls(monkeypatch, "ex-8", "joint_probability_table_instr", "joint_probability_table"):
        for name, (table,) in stacked.items():
            assert table.shape == (len(ones), 2, 2)
            assert all(np.abs(table[i] - one[name][0]).max() <= 1e-15 for i, one in enumerate(ones))


def test_complementarity_folds_take_every_trial_of_a_group():
    # A group's decisions cover every trial of the group: lem-2.4 counts the
    # disagreeing ones, cor-2.5 the instrument-complementary ones and, of
    # those, the observable failures.
    instrs, obss = np.array([True, True, False, True]), np.array([False, True, True, True])
    lem, cor = (_Run(_rng(result_id, 7), 4, 1.0, 0.0) for result_id in ("lem-2.4", "cor-2.5"))
    qinstr.verify._fold_lem_2_4(lem, instrs, obss)
    qinstr.verify._fold_cor_2_5(cor, instrs, obss)
    assert (lem.worst, lem.note) == (2.0, "boolean agreement")
    assert (cor.worst, cor.count) == (1.0, 3)


def test_the_probe_fold_counts_every_trial_of_every_group():
    # conj-2.5-converse's fold takes a group's decisions, which cover every
    # trial of the group: it counts the complementary pairs and adds up the
    # counterexample candidates over the groups.
    run = _Run(_rng("conj-2.5-converse", 7), 8, 1.0, 0.0)
    complementary, found = np.array([True, True, False, True]), np.array([False, True, False, True])
    qinstr.verify._fold_conj_2_5(run, complementary, np.zeros(4, dtype=bool))
    assert (run.count, run.worst, run.note) == (3, 0.0, "no counterexample found in 3 trials")
    qinstr.verify._fold_conj_2_5(run, complementary, found)
    assert (run.count, run.worst, run.note) == (6, 2.0, "2 counterexample candidates in 6 trials")


def test_the_coexistence_folds_take_every_trial_of_a_group():
    # thm-4.1's fold takes the stacked route's values, each the group's worst:
    # a pointer commutator above 1e-8 fails the run although it is within the
    # tolerance, and a marginal defect above run.tol ends the run with the
    # suite's note.
    run = _Run(_rng("thm-4.1", 7), 5, 1.0, 1e-7)
    qinstr.verify._fold_thm_4_1(run, 0.0, 2e-8, 1e-9, 1e-9)
    assert (run.met, run.worst) == (False, 2e-8)
    with pytest.raises(qinstr.verify._Stop, match="converse marginals broken"):
        qinstr.verify._fold_thm_4_1(_Run(_rng("thm-4.1", 7), 5, 1.0, 1e-7), 2e-7, 0.0, 0.0, 0.0)
    with pytest.raises(qinstr.verify._Stop, match="measured joint observable broken"):
        qinstr.verify._fold_cor_4_3(_Run(_rng("cor-4.3", 7), 5, 1.0, 1e-7), 2e-7, 0.0, 0.0)


def test_stacked_prepared_probabilities_are_each_trials(monkeypatch):
    # ex-7's stacked route gives, trial by trial, the probability of the first
    # outcome of a state preparation and then the second of another that its
    # route gives on the trial's slice of its group's draws.
    for stacked, ones in _route_calls(monkeypatch, "ex-7", "joint_probability_instr"):
        (p,) = stacked["joint_probability_instr"]
        assert p.shape == (len(ones),)
        assert all(abs(p[i] - one["joint_probability_instr"][0]) <= 1e-15 for i, one in enumerate(ones))


@pytest.mark.parametrize(
    "result_id, swap_effects, note",
    [
        ("lem-4.2", False, "joint instrument marginals broken"),
        ("lem-2.6", False, "joint marginals broken"),
        ("lem-2.6", True, "observables do not coexist"),
    ],
)
def test_a_marginal_defect_in_a_stacked_trial_fails_its_suite(monkeypatch, result_id, swap_effects, note):
    # The last trial of each shape group's stack gets a first marginal that
    # its joint does not have: the operators
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


def test_a_model_fault_in_a_batched_trial_fails_its_suite(monkeypatch):
    # The last trial of each shape group's stack gets a faulty von Neumann
    # closed form: the dephasing channel is
    # scaled by 1 + 4e-9, which misses idempotence by more than 1e-9 while
    # every distance stays within the 1e-8 tolerance.
    vn_forms = qinstr.models._vn_forms

    def broken(base, probe, f):
        kraus, channel, effects = vn_forms(base, probe, f)
        if base.ndim == 3:  # a stack of trials
            channel = channel.copy()
            channel[-1] *= np.sqrt(1.0 + 4e-9)
        return kraus, channel, effects

    monkeypatch.setattr(qinstr.models, "_vn_forms", broken)
    report = run_suite("thm-4.4", seed=7)
    assert report.status == "fail"  # the idempotence bound, not the tolerance, fails the suite
    assert report.max_residual <= report.tolerance and report.note == "channel idempotent within 1e-9"


def test_a_model_fault_in_a_stacked_trial_fails_cor_4_5(monkeypatch):
    # The last trial of each shape group's stack gets a generic model (its
    # probe basis drawn per trial) that
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


@pytest.mark.parametrize("rejected", ["every trial", "last trial"])
def test_an_eigenbasis_redraw_fails_cor_4_5(monkeypatch, rejected):
    # The public route would draw a rejected eigenbasis combination again, but
    # a group's route takes one stacked draw of combinations. So a route whose
    # first draw is rejected in every trial (and a second would be accepted),
    # or in the last trial of each group only, fails the suite: no basis is
    # taken unchecked.
    eigenbasis, calls = qinstr.models._eigenbasis, []

    def rejecting(stack, x):
        v, diagonals, diagonalizes = eigenbasis(stack, x)
        calls.append(x)
        if rejected == "every trial":
            return v, diagonals, diagonalizes & (len(calls) > 1)
        return v, diagonals, diagonalizes & (np.arange(diagonalizes.size) < diagonalizes.size - 1)

    monkeypatch.setattr(qinstr.models, "_eigenbasis", rejecting)
    report = run_suite("cor-4.5", seed=7)
    assert (report.status, report.note) == ("fail", "eigenbasis redrawn")


@pytest.mark.parametrize(
    "result_id, module, name, message",
    [
        ("thm-4.4", qinstr.models, "_pairing_unitary", "interaction matrix is not unitary"),
        ("cor-4.5", qinstr.models, "_eigenbasis", "bases must be unitary"),
    ],
)
def test_a_non_unitary_matrix_in_a_batched_trial_is_refused(monkeypatch, result_id, module, name, message):
    # Every trial's pairing unitary (thm-4.4, a stacked FIMM) is tested as
    # FIMM tests an interaction, and every trial's eigenbasis (cor-4.5, a
    # stacked VonNeumannModel) as VonNeumannModel tests its bases: the last
    # trial of each group, a stacked one, gets one scaled by 1 + 1e-7.
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
    # each shape group's stack: a zero (rank-
    # deficient) isometry, a negated extracted operator (the same effects, not
    # positive), an isometry scaled so that its extracted operators miss
    # completeness, or a product pointer's instrument whose marginals are not
    # the two models'. A group shares one pointer, so a pointer with every slot
    # on one outcome (not atomic) or with effects that are not projections
    # (not sharp) is every trial's. Each is refused.
    monkeypatch.setattr(qinstr.models, name, fault(getattr(qinstr.models, name)))
    if error is not None:
        with pytest.raises(error, match=note):
            run_suite(result_id, seed=7)
    else:
        report = run_suite(result_id, seed=7)
        assert (report.status, report.note) == ("fail", note)
