"""Families, combinators and models on a stack of trials over a leading axis.

A generator whose calls return each trial's draw of the same call, stacked,
gives a stack of families; every public call on such a stack must equal its
calls on the trials one by one, and a check on a stack holds when it holds for
every trial.  The catalog runs thm-2.1, lem-2.6, ex-3, ex-5, cor-3.3, lem-3.4,
thm-4.1, lem-4.2, cor-4.3, thm-4.6 and cor-4.7 this way (``verify._Stacked``);
these tests replace the checks that their array programs built what the public
functions build.
"""

import numpy as np
import pytest

from qinstr.instruments import (
    Instrument,
    _reduced,
    choi_distances,
    compose_operations,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_conditioned,
    instr_post_process,
    instr_product,
    is_identity_instrument,
    kraus_instrument,
    luders_instrument,
    trivial_instrument,
)
from qinstr.models import dilate_instrument, luders_positivity_check, marginal_instruments, model_instrument
from qinstr.models import normal_fimm_kraus_extract, simultaneous_fimms
from qinstr.observables import Observable, atomic_observable, classify_observable, combine_labels, family_distance
from qinstr.observables import identity_observable, obs_post_process
from qinstr.rand import random_instrument, random_kraus_instrument, random_observable, random_simplex, random_state
from qinstr.rand import random_stochastic, random_unitary
from qinstr.verify import _product_pointer_model

SEEDS = (3, 5, 8, 13)


class StackedDraws:
    """A generator stand-in: each call makes the same call on every trial's
    generator and returns the outputs stacked over the trials."""

    def __init__(self, seeds=SEEDS):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]

    def __getattr__(self, name):
        return lambda *args, **kwargs: np.stack([getattr(rng, name)(*args, **kwargs) for rng in self.rngs])


def per_trial(build, seeds=SEEDS) -> list:
    """``build`` on each trial's own generator."""
    return [build(np.random.default_rng(seed)) for seed in seeds]


def assert_same_maps(stacked, ones, d: int) -> None:
    """Each trial of a stacked instrument (or operation) is the map of its own call, cut to at most d^2 operators."""
    kraus = stacked.kraus if hasattr(stacked, "kraus") else stacked._kraus[:, None]
    for k, one in enumerate(ones):
        assert choi_distances(kraus[k], one.kraus if hasattr(one, "kraus") else one._kraus[None]).max() <= 1e-14
    assert kraus.shape[-3] <= d * d


@pytest.mark.parametrize("d, m", [(2, 2), (3, 3), (4, 2)])
def test_stacked_observables_and_update_instruments_are_the_per_trial_ones(d, m):
    # thm-2.1: a stack of random observables, their measurement-update
    # instruments and the observables those induce; family_distance of two
    # stacks is the worst trial's.
    a = random_observable(d, m, StackedDraws())
    ones = per_trial(lambda rng: random_observable(d, m, rng))
    assert a.labels == ones[0].labels and a.dim == d and a.stack.shape == (len(SEEDS), m, d, d)
    assert all(np.abs(a.stack[k] - one.stack).max() <= 1e-15 for k, one in enumerate(ones))
    induced = induced_observable(luders_instrument(a))
    assert_same_maps(luders_instrument(a), [luders_instrument(one) for one in ones], d)
    worst = max(family_distance(induced_observable(luders_instrument(one)), one) for one in ones)
    assert abs(family_distance(induced, a) - worst) <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_products_and_conditionings_are_the_per_trial_ones(d):
    # ex-3: products and conditionings of stacks of single-Kraus instruments.
    draws = StackedDraws()
    i, j = random_kraus_instrument(d, 2, draws), random_kraus_instrument(d, 2, draws)
    ones = per_trial(lambda rng: (random_kraus_instrument(d, 2, rng), random_kraus_instrument(d, 2, rng)))
    assert_same_maps(instr_product(i, j), [instr_product(*pair) for pair in ones], d)
    assert_same_maps(instr_conditioned(i, j), [instr_conditioned(*pair) for pair in ones], d)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_stacked_channels_and_compositions_are_the_per_trial_ones(d, n):
    # lem-3.4: the total channels of a product and of a conditioned instrument,
    # and the composition of two total channels, each cut to at most d^2
    # operators as the public ones are.
    draws = StackedDraws()
    i, j = random_instrument(d, 2, draws), random_instrument(d, n, draws)
    ones = per_trial(lambda rng: (random_instrument(d, 2, rng), random_instrument(d, n, rng)))
    assert_same_maps(instr_channel(instr_product(i, j)), [instr_channel(instr_product(*p)) for p in ones], d)
    assert_same_maps(instr_channel(instr_conditioned(i, j)), [instr_channel(instr_conditioned(*p)) for p in ones], d)
    composed = compose_operations(instr_channel(j), instr_channel(i))
    assert composed.is_channel()
    assert_same_maps(composed, [compose_operations(instr_channel(q), instr_channel(p)) for p, q in ones], d)


@pytest.mark.parametrize("d, m", [(2, 2), (3, 4)])
def test_stacked_identity_instruments_are_the_per_trial_ones(d, m):
    # ex-5 and cor-3.3: identity instruments of (t,) weights per outcome, their
    # total channels, and their products and conditionings with a random stack.
    draws = StackedDraws()
    w = random_simplex(m, draws)
    ident = identity_instrument(dict(zip(map(str, range(m)), w.T)), d)
    j = random_instrument(d, 2, draws)

    def one(rng):
        weights = dict(zip(map(str, range(m)), random_simplex(m, rng)))
        return identity_instrument(weights, d), random_instrument(d, 2, rng)

    ones = per_trial(one)
    assert_same_maps(ident, [x for x, _ in ones], d)
    assert_same_maps(instr_channel(ident), [instr_channel(x) for x, _ in ones], d)
    for f in (instr_product, instr_conditioned):
        assert_same_maps(f(ident, j), [f(x, y) for x, y in ones], d)
        assert_same_maps(f(j, ident), [f(y, x) for x, y in ones], d)


def test_a_stacked_cut_keeps_each_trials_map():
    # Each trial's outcome is cut on its own; the outcome's count is its
    # largest over the trials, and zero operators pad a trial of lower rank.
    rng = np.random.default_rng(0)
    kraus = rng.standard_normal((2, 1, 6, 2, 2)) + 1j * rng.standard_normal((2, 1, 6, 2, 2))
    kraus[1, 0, 3:] = kraus[1, 0, :3]  # trial 1: six operators of a map of Choi rank three
    cut, counts = _reduced(kraus, np.array([6]), 4)
    assert cut.shape == (2, 1, 4, 2, 2) and counts.tolist() == [4]
    assert np.all(np.abs(cut[1, 0, 3]) == 0.0)
    for t in range(2):
        assert choi_distances(cut[t], kraus[t]).max() <= 1e-12
    one = _reduced(kraus[1], np.array([6]), 4)
    assert one[1].tolist() == [3] and choi_distances(one[0], kraus[1]).max() <= 1e-12


PRODUCT_LABELS = [combine_labels(x, y) for x in "01" for y in "01"]


def stacked_instrument(ones: list) -> Instrument:
    """The trials' own instruments, of one padded shape, as one stack."""
    return Instrument._from_kraus(ones[0].labels, np.stack([one.kraus for one in ones]))


def assert_same_dilations(stacked, ones) -> None:
    """A stacked dilation holds each trial's isometry over one slot map, so one pointer, and ``dim_base`` is d."""
    assert stacked.dim_base == ones[0].dim_base and type(stacked.dim_base) is int
    for k, one in enumerate(ones):
        assert np.array_equal(stacked._owner, one._owner)
        assert np.abs(stacked._restricted[k] - one._restricted).max() <= 1e-14
    assert np.array_equal(stacked.pointer.stack, ones[0].pointer.stack) and stacked.sharp


@pytest.mark.parametrize("d, m, kraus", [(2, 2, 2), (3, 3, 2), (3, 2, 1), (4, 3, 1)])
def test_stacked_dilations_measure_the_per_trial_instruments(d, m, kraus):
    # thm-4.6 and cor-4.7: dilate_instrument of a stack, and model_instrument on it.
    stacked = dilate_instrument(random_instrument(d, m, StackedDraws(), kraus))
    ones = [dilate_instrument(one) for one in per_trial(lambda rng: random_instrument(d, m, rng, kraus))]
    assert_same_dilations(stacked, ones)
    assert_same_maps(model_instrument(stacked), [model_instrument(one) for one in ones], d)


def test_a_group_whose_trials_differ_in_choi_rank_dilates_each_trial():
    # Outcome 0 has Choi rank two in trial 0 and one in trial 1: the group's
    # slot map gives it two slots, and trial 1 dilates with a zero operator in
    # the second, so each trial measures its own instrument back.
    rng = np.random.default_rng(0)
    first = random_instrument(2, 2, rng)
    s = random_kraus_instrument(2, 2, rng).kraus[:, 0]
    theta, u = 0.3, random_unitary(2, rng)
    rank_one = np.stack([s[0], s[0]]) / np.sqrt(2.0)
    rank_two = np.stack([np.cos(theta) * s[1], np.sin(theta) * u @ s[1]])
    second = np.stack([rank_one, rank_two])
    ones = [first, Instrument._from_kraus(first.labels, second)]
    stacked = dilate_instrument(stacked_instrument(ones))
    single = [dilate_instrument(one) for one in ones]
    assert [one.dim_probe for one in single] == [4, 3] and stacked.dim_probe == 4
    slots = stacked._restricted[1, 0, :, :, 0].reshape(2, 4, 2)  # [a, slot, i]
    assert np.abs(slots[:, 1]).max() == 0.0
    assert np.abs(stacked._restricted[0] - single[0]._restricted).max() <= 1e-14
    assert_same_maps(model_instrument(stacked), [model_instrument(one) for one in single], 2)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_simultaneous_models_and_marginals_are_the_per_trial_ones(d):
    # thm-4.1 and cor-4.3: an instrument of stacked operations on product
    # labels, its marginals (instr_post_process by 0/1 matrices), the two
    # simultaneous models, and what they and their product re-pointing measure.
    def build(rng):
        return Instrument(zip(PRODUCT_LABELS, (op for _, op in random_instrument(d, 4, rng).items())))

    joint, ones = build(StackedDraws()), per_trial(build)
    assert_same_maps(joint, ones, d)
    for stacked, marginals in zip(marginal_instruments(joint), zip(*map(marginal_instruments, ones))):
        assert_same_maps(stacked, marginals, d)
    m1, m2 = simultaneous_fimms(joint)
    singles = [simultaneous_fimms(one) for one in ones]
    for k, stacked in enumerate((m1, m2, _product_pointer_model(m1, m2))):
        models = [pair[k] if k < 2 else _product_pointer_model(*pair) for pair in singles]
        assert_same_dilations(stacked, models)
        assert_same_maps(model_instrument(stacked), [model_instrument(one) for one in models], d)
    nu = random_stochastic(PRODUCT_LABELS, ["t0", "t1", "t2"], np.random.default_rng(1))
    assert_same_maps(instr_post_process(nu, joint), [instr_post_process(nu, one) for one in ones], d)


@pytest.mark.parametrize("d, m", [(2, 2), (3, 3)])
def test_stacked_normal_models_are_the_per_trial_ones(d, m):
    # thm-4.6 and cor-4.7: the extracted operators of a stack of normal
    # models, and the positivity check, true only when every trial passes.
    stacked = dilate_instrument(random_kraus_instrument(d, m, StackedDraws()))
    ones = [dilate_instrument(one) for one in per_trial(lambda rng: random_kraus_instrument(d, m, rng))]
    extracted = normal_fimm_kraus_extract(stacked)
    for k, one in enumerate(ones):
        assert all(np.abs(extracted[x][k] - s).max() <= 1e-14 for x, s in normal_fimm_kraus_extract(one).items())
    assert luders_positivity_check(stacked) is all(map(luders_positivity_check, ones)) is False
    luders = luders_instrument(random_observable(2, 2, np.random.default_rng(2)))
    skew = kraus_instrument({"0": np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0), "1": np.eye(2) / np.sqrt(2.0)})
    checks = [luders_positivity_check(dilate_instrument(one)) for one in (luders, skew)]
    assert checks == [True, False]
    assert luders_positivity_check(dilate_instrument(stacked_instrument([luders, luders])))
    assert not luders_positivity_check(dilate_instrument(stacked_instrument([luders, skew])))


@pytest.mark.parametrize("d, m", [(2, 4), (3, 2)])
def test_stacked_state_preparations_are_the_per_trial_ones(d, m):
    # lem-2.6, lem-4.2 and cor-4.3: trivial_instrument of stacked observables
    # and states, and its marginals.
    def build(rng):
        return trivial_instrument(random_observable(d, m, rng), random_state(d, rng))

    stacked, ones = build(StackedDraws()), per_trial(build)
    assert_same_maps(stacked, ones, d)
    if m == 4:
        relabelled = [Instrument._from_kraus(PRODUCT_LABELS, x.kraus, x.counts) for x in (stacked, *ones)]
        for pair in zip(marginal_instruments(relabelled[0]), zip(*map(marginal_instruments, relabelled[1:]))):
            assert_same_maps(pair[0], pair[1], d)


def test_a_stacked_state_preparation_keeps_the_columns_any_trial_keeps():
    # The trials' effects and states differ in rank: an outcome keeps each
    # root column that some trial keeps, zero in the others.
    rng = np.random.default_rng(3)
    sharp, generic = atomic_observable(random_unitary(3, rng)), random_observable(3, 3, rng)
    v = random_unitary(3, rng)[:, 0]
    states, observables = [np.outer(v, v.conj()), random_state(3, rng)], [sharp, generic]
    stack = Observable._valid(sharp.labels, np.stack([o.stack for o in observables]))
    stacked = trivial_instrument(stack, np.stack(states))
    ones = [trivial_instrument(o, s) for o, s in zip(observables, states)]
    assert_same_maps(stacked, ones, 3)
    assert [one.counts.tolist() for one in ones] == [[1] * 3, [9] * 3] and stacked.counts.tolist() == [9] * 3


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_post_processings_flags_and_identity_checks_are_the_per_trial_ones(d):
    # obs_post_process, classify_observable and is_identity_instrument of a
    # stack: each trial's post-processing, and a flag or check that holds
    # when it holds for every trial.
    nu = random_stochastic(["0", "1", "2"], ["a", "b"], np.random.default_rng(4))
    stacked = obs_post_process(nu, random_observable(d, 3, StackedDraws()))
    ones = [obs_post_process(nu, one) for one in per_trial(lambda rng: random_observable(d, 3, rng))]
    assert stacked.labels == ("a", "b")
    assert all(np.abs(stacked.stack[k] - one.stack).max() <= 1e-15 for k, one in enumerate(ones))
    rng = np.random.default_rng(5)
    sharp = atomic_observable(random_unitary(d, rng), ["0", "1", "2"][:d])
    families = [identity_observable(dict.fromkeys(sharp.labels, 1.0 / d), d), sharp, sharp]
    for group in ([families[0], families[0]], families[1:], families):
        flags = classify_observable(Observable._valid(sharp.labels, np.stack([o.stack for o in group])))
        for name in ("identity", "atomic", "indecomposable", "commutative", "sharp"):
            assert getattr(flags, name) is all(getattr(classify_observable(o), name) for o in group)
    w = random_simplex(2, StackedDraws())
    ones = [identity_instrument(dict(zip("01", x)), d) for x in w]
    assert is_identity_instrument(identity_instrument(dict(zip("01", w.T)), d))
    assert all(map(is_identity_instrument, ones))
    update = luders_instrument(random_observable(d, 2, rng))
    assert not is_identity_instrument(stacked_instrument([ones[0], update])) and not is_identity_instrument(update)
