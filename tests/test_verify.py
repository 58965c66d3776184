import copy

import numpy as np
import pytest

import qinstr.verify
from qinstr import cli
from qinstr.effects import seq_products
from qinstr.errors import QinstrError
from qinstr.instruments import (
    _mixed,
    choi_distances,
    instr_convex_combo,
    instr_post_process,
    joint_probability_table_instr,
    luders_instrument,
)
from qinstr.observables import _probability_table, _valid_stack, joint_probability_table
from qinstr.rand import _ginibres_of, _states, _whitened_effects, _whitened_kraus
from qinstr.rand import random_instrument, random_observable, random_simplex, random_state, random_stochastic
from qinstr.verify import _BATCHED, SUITES, _rng, _Run, run_suite, run_suites

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
    monkeypatch.setitem(SUITES, "lem-1.1", SUITES["lem-1.1"]._replace(fn=body, tol=tol))
    report = run_suite("lem-1.1", seed=0, tol_scale=tol_scale)
    assert (report.status, report.max_residual, report.note) == expected
    assert report.tolerance == (0.0 if tol is None else tol * tol_scale)


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


@pytest.mark.parametrize("result_id, solves", [("lem-1.1", 550), ("lem-2.4", 440), ("lem-3.1", 72), ("thm-2.3", 26)])
def test_eigensolve_budget(result_id, solves, eig_calls):
    # Exact counts of eigh/eigvalsh calls for one suite at seed 7: a check
    # re-run on an object that was already validated raises the count.
    run_suite(result_id, seed=7)
    assert len(eig_calls.calls) == solves


@pytest.mark.parametrize("seed", [94, 311])
def test_lem_1_2_redraws_near_unbiased_pairs(seed):
    # these seeds first draw a nearly unbiased "generic" pair
    assert run_suite("lem-1.2", seed=seed).status == "pass"


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("result_id", sorted(_BATCHED))
def test_batched_suites_pass_with_groups_empty_or_of_one(result_id, trials):
    # At 1 and 2 trials some shape groups are empty, at 7 some hold one trial.
    report = run_suite(result_id, seed=7, trials=trials)
    assert (report.status, report.trials) == ("pass", trials)


class _Recorded:
    """A generator that keeps the name and the output of every call, in order."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = copy.deepcopy(rng), []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.calls.append((name, out))
            return out

        return call


def _groups(result_id: str, trials: int) -> list:
    spec = _BATCHED[result_id]
    return _Run(_rng(result_id, 7), trials, 1.0, 1.0).groups(spec.period, spec.dims, spec.draw)


@pytest.mark.parametrize("result_id", sorted(_BATCHED))
def test_batched_draws_are_the_public_generators_draws(result_id):
    # Each trial's stacked draws are the numbers of the Generator calls that the
    # public functions make for that trial, bitwise, and in the same order.
    spec, trials = _BATCHED[result_id], 13
    groups = _groups(result_id, trials)
    assert [t for t, *_ in groups] == list(range(min(spec.period, trials)))
    rng = _rng(result_id, 7)
    for t in range(trials):
        d = spec.dims[t % len(spec.dims)]
        public, batched = _Recorded(rng), _Recorded(rng)
        spec.public(public, t, d)
        drawn = spec.draw(batched, t, d)
        assert [name for name, _ in public.calls] == [name for name, _ in batched.calls]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(public.calls, batched.calls))
        first, group_d, replay, draws = groups[t % spec.period]
        assert group_d == d and len(draws) == len(drawn)
        assert all(np.array_equal(stacked[t // spec.period], x) for stacked, x in zip(draws, drawn))
        if t == first:
            assert replay.bit_generator.state == rng.bit_generator.state
        rng = batched.rng


def _trial_generators(result_id: str, trials: int) -> list:
    """A copy of the suite's generator from before each trial's draws."""
    spec, rng, out = _BATCHED[result_id], _rng(result_id, 7), []
    for t in range(trials):
        out.append(copy.deepcopy(rng))
        spec.draw(rng, t, spec.dims[t % len(spec.dims)])
    return out


def test_batched_instruments_are_the_public_ones():
    # thm-2.3's array program builds, trial by trial, the instruments and the
    # post-processings that the public functions build from the same draws,
    # each outcome cut to at most d^2 operators as the public ones are.
    trials, gens = 13, _trial_generators("thm-2.3", 13)
    for first, d, _, (raw, nu, weights, raw_other) in _groups("thm-2.3", trials):
        c = nu.swapaxes(1, 2)
        checked = qinstr.verify._checked
        (instr, _), (other, _) = (checked(_whitened_kraus(_ginibres_of(x))) for x in (raw, raw_other))
        processed = qinstr.verify._post_processed(c, instr)[0]
        mixed = qinstr.verify._assembled_batch(_mixed(weights, [instr, other]))[0]
        for i, t in enumerate(range(first, trials, 6)):
            rng = gens[t]
            public = random_instrument(d, 2 + t % 2, rng)
            stochastic = random_stochastic(list(public.labels), ["t0", "t1"], rng)
            w = random_simplex(2, rng)
            public_other = random_instrument(d, 2 + t % 2, rng)
            for batch, one in (
                (instr[i], public),
                (processed[i], instr_post_process(stochastic, public)),
                (mixed[i], instr_convex_combo(w, [public, public_other])),
            ):
                assert choi_distances(batch, one.kraus).max() <= 1e-14
                assert len(batch[0]) <= d * d


def test_batched_probabilities_are_the_public_ones():
    # lem-3.1's array program builds, trial by trial, the observables, the state
    # and the two probability tables that the public functions build.
    trials, gens = 13, _trial_generators("lem-3.1", 13)
    for first, d, _, (ga, gb, g, x, y) in _groups("lem-3.1", trials):
        a, b = (_valid_stack(_whitened_effects(_ginibres_of(s))) for s in (ga, gb))
        rho = _states(_ginibres_of(g))
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
