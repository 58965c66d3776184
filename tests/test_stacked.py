"""Families, combinators and models on a stack of trials over a leading axis.

A generator whose calls return each trial's draw of the same call, stacked,
gives a stack of families; every public call on such a stack must equal its
calls on the trials one by one, and a check on a stack holds when it holds for
every trial, while a decision or a set probability comes back per trial.
The catalog runs every suite that draws trials (but conj-3.3-converse) this
way, on one draw per call for all of a shape group's trials
(``verify._Group``); these tests replace the checks that its former array
programs built what the public functions build.
"""

import numpy as np
import pytest

from qinstr.effects import CoexistenceWitness, binary_observables_from_coexistence, ensure_effects, ensure_state
from qinstr.errors import DimensionError, InvalidWitness, InvariantViolation, LabelError, NotIsometry, ShapeError
from qinstr.errors import WeightError
from qinstr.instruments import (
    Instrument,
    _reduced,
    choi_distances,
    compose_operations,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    instr_complementary,
    is_identity_instrument,
    joint_probability_instr,
    joint_probability_table_instr,
    kraus_instrument,
    luders_instrument,
    trivial_instrument,
)
from qinstr.models import FIMM, VonNeumannModel, dilate_instrument, luders_positivity_check, marginal_instruments
from qinstr.models import model_instrument, normal_fimm_kraus_extract, simultaneous_fimms, trivial_fimm, vn_measured
from qinstr.models import vn_model_for_commutative, von_neumann_unitary
from qinstr.observables import Observable, StochasticMatrix, atomic_observable, classify_observable, combine_labels
from qinstr.observables import complementarity_defects, complementarity_residual, family_distance, fourier_mub
from qinstr.observables import identity_observable, joint_probability_table, joint_probability_then, marginal_defect
from qinstr.observables import obs_commute, obs_complementary, obs_conditioned, obs_convex_combo, obs_post_process
from qinstr.observables import obs_seq_product
from qinstr.rand import random_commutative_observable, random_commuting_effect_pair, random_instrument
from qinstr.rand import random_kraus_instrument, random_observable, random_simplex, random_state, random_stochastic
from qinstr.rand import random_unitary
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


@pytest.mark.parametrize(
    "combine, build, kind",
    [
        (family_distance, random_observable, "families"),
        (family_distance, random_instrument, "families"),
        (obs_seq_product, random_observable, "families"),
        (instr_product, random_instrument, "families"),
        (obs_conditioned, random_observable, "families"),
        (instr_conditioned, random_instrument, "families"),
        (lambda a, b: marginal_defect(a, a, obs_seq_product(b, b)), random_observable, "families"),
        (lambda i, j: compose_operations(instr_channel(i), instr_channel(j)), random_instrument, "operations"),
        (complementarity_defects, random_observable, "families"),
        (obs_complementary, random_observable, "families"),
        (lambda i, j: instr_complementary(luders_instrument(i), luders_instrument(j)), random_observable, "families"),
    ],
    ids=[
        "distance-observables", "distance-instruments", "obs-seq-product", "instr-product", "obs-conditioned",
        "instr-conditioned", "marginal-defect", "compose-operations", "complementarity-defects", "obs-complementary",
        "instr-complementary",
    ],
)
def test_families_stacked_over_different_trials_are_refused(combine, build, kind):
    # Two stacks over 4 and over 3 trials have no trial-by-trial pairing: a
    # typed DimensionError, not a numpy broadcast error.
    a, b = build(2, 2, StackedDraws(SEEDS)), build(2, 2, StackedDraws(SEEDS[:3]))
    with pytest.raises(DimensionError, match=f"{kind} stacked over different trials"):
        combine(a, b)


@pytest.mark.parametrize("d, m", [(2, 2), (3, 2), (3, 3)])
def test_stacked_sequential_products_of_observables_are_the_per_trial_ones(d, m):
    # ex-4: obs_seq_product and obs_conditioned of stacked observables, and
    # the product and the conditioned instrument of their measurement-update
    # instruments, which induce them.
    def build(rng):
        return random_observable(d, m, rng), random_observable(d, 2, rng)

    (a, b), ones = build(StackedDraws()), per_trial(build)
    product, conditioned = obs_seq_product(a, b), obs_conditioned(a, b)
    assert product.labels == obs_seq_product(*ones[0]).labels and product.stack.shape == (len(SEEDS), 2 * m, d, d)
    for k, pair in enumerate(ones):
        assert np.abs(product.stack[k] - obs_seq_product(*pair).stack).max() <= 1e-15
        assert np.abs(conditioned.stack[k] - obs_conditioned(*pair).stack).max() <= 1e-15
    i, j = luders_instrument(a), luders_instrument(b)
    updates = [(luders_instrument(x), luders_instrument(y)) for x, y in ones]
    assert_same_maps(instr_product(i, j), [instr_product(*pair) for pair in updates], d)
    assert_same_maps(instr_conditioned(i, j), [instr_conditioned(*pair) for pair in updates], d)
    assert family_distance(induced_observable(instr_product(i, j)), product) <= 1e-14
    assert family_distance(induced_observable(instr_conditioned(i, j)), conditioned) <= 1e-14


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


def test_stacked_stochastic_matrices_check_every_trials_rows():
    # thm-2.3: random_stochastic of stacked draws is one matrix per trial over
    # one row and one column label set; each trial's rows are checked.
    nu = random_stochastic(["0", "1", "2"], ["a", "b"], StackedDraws())
    ones = per_trial(lambda rng: random_stochastic(["0", "1", "2"], ["a", "b"], rng))
    assert nu.matrix.shape == (len(SEEDS), 3, 2) and (nu.row_labels, nu.col_labels) == (("0", "1", "2"), ("a", "b"))
    assert all(np.array_equal(nu.matrix[k], one.matrix) for k, one in enumerate(ones))
    assert np.array_equal(nu.value("1", "b"), [one.value("1", "b") for one in ones])
    good = [[1.0, 0.0], [0.5, 0.5]]
    bad_rows = (([[0.7, 0.4], [1.0, 0.0]], "row-sums-to-one"), ([[1.5, -0.5], [1.0, 0.0]], "nonnegative-entries"))
    for bad, error in bad_rows:
        with pytest.raises(InvariantViolation, match=error):
            StochasticMatrix(["0", "1"], ["a", "b"], [good, bad])
    with pytest.raises(ShapeError, match="does not match"):
        StochasticMatrix(["0", "1"], ["a", "b"], [[good]])


@pytest.mark.parametrize("d, m", [(2, 2), (3, 3), (4, 2)])
def test_post_processings_by_stacked_matrices_are_the_per_trial_ones(d, m):
    # thm-2.3: instr_post_process and obs_post_process by a stack of matrices,
    # trial by trial, of a stack of families or of one family.
    def build(rng):
        instr = random_instrument(d, m, rng)
        return instr, random_stochastic(list(instr.labels), ["t0", "t1"], rng)

    (instr, nu), ones = build(StackedDraws()), per_trial(build)
    assert_same_maps(instr_post_process(nu, instr), [instr_post_process(n, i) for i, n in ones], d)
    stacked = obs_post_process(nu, induced_observable(instr))
    fixed = obs_post_process(nu, induced_observable(ones[0][0]))
    for k, (i, n) in enumerate(ones):
        assert np.abs(stacked.stack[k] - obs_post_process(n, induced_observable(i)).stack).max() <= 1e-15
        assert np.abs(fixed.stack[k] - obs_post_process(n, induced_observable(ones[0][0])).stack).max() <= 1e-15


@pytest.mark.parametrize("d, m", [(2, 2), (3, 3)])
def test_mixtures_by_stacked_weights_are_the_per_trial_ones(d, m):
    # thm-2.3: instr_convex_combo and obs_convex_combo of (t, k) weights mix
    # stacks trial by trial; a weight that is zero in one trial only keeps
    # the other trials' operators.
    def build(rng):
        return random_simplex(2, rng), random_instrument(d, m, rng), random_instrument(d, m, rng)

    (w, i, j), ones = build(StackedDraws()), per_trial(build)
    assert_same_maps(instr_convex_combo(w, [i, j]), [instr_convex_combo(x, [y, z]) for x, y, z in ones], d)
    mixed = obs_convex_combo(w, [induced_observable(i), induced_observable(j)])
    for k, (x, y, z) in enumerate(ones):
        one = obs_convex_combo(x, [induced_observable(y), induced_observable(z)])
        assert np.abs(mixed.stack[k] - one.stack).max() <= 1e-15
    w = np.array([[1.0, 0.0], *w[1:]])
    singles = [instr_convex_combo(w[k], [y, z]) for k, (_, y, z) in enumerate(ones)]
    assert_same_maps(instr_convex_combo(w, [i, j]), singles, d)
    with pytest.raises(WeightError, match=r"got shape \(4, 2\)"):
        obs_convex_combo(w, [induced_observable(ones[0][1])] * 2)


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_products_of_state_preparations_are_the_per_trial_ones(d):
    # ex-6: the product of two stacks of state-preparation instruments.
    def build(rng):
        a, b = random_observable(d, 2, rng), random_observable(d, 2, rng)
        return trivial_instrument(a, random_state(d, rng)), trivial_instrument(b, random_state(d, rng))

    (i, j), ones = build(StackedDraws()), per_trial(build)
    assert_same_maps(instr_product(i, j), [instr_product(*pair) for pair in ones], d)


@pytest.mark.parametrize("weights", [[1.5, -0.5], [0.7, 0.4]])
def test_stacked_identity_observables_check_every_trials_weights(weights, eig_calls):
    # cor-4.5: identity_observable of (t,) weights per label is a stack of
    # identity observables; a later trial's negative weight, or weights that
    # do not sum to one, raise, with no eigensolve.
    w = random_simplex(2, StackedDraws())
    stacked = identity_observable(dict(zip("01", w.T)), 3)
    for k, x in enumerate(w):
        assert np.array_equal(stacked.stack[k], identity_observable(dict(zip("01", x)), 3).stack)
        assert np.abs(stacked.roots[k] - np.sqrt(x[:, None, None]) * np.eye(3)).max() <= 1e-15
    assert classify_observable(stacked).identity
    eig_calls.calls.clear()
    with pytest.raises(WeightError):
        identity_observable(dict(zip("01", np.array([w[0], weights]).T)), 3)
    assert eig_calls.calls == []


@pytest.mark.parametrize("d, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_stacked_commutative_observables_and_their_models_are_the_per_trial_ones(d, m):
    # cor-4.5: random_commutative_observable of stacked draws, the model of
    # vn_model_for_commutative (one eigenbasis draw for every trial), what it
    # and a model of stacked random bases measure, and obs_commute of stacks.
    def build(rng):
        a = random_commutative_observable(d, m, rng)
        model = vn_model_for_commutative(a, rng)
        return a, model, VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))

    (a, model, generic), ones = build(StackedDraws()), per_trial(build)
    assert all(np.abs(a.stack[k] - one.stack).max() <= 1e-15 for k, (one, _, _) in enumerate(ones))
    assert obs_commute(a, a)
    for k, stacked in ((1, model), (2, generic)):
        instr, channel, obs = vn_measured(stacked)
        singles = [vn_measured(one[k]) for one in ones]
        assert_same_maps(instr, [one[0] for one in singles], d)
        assert_same_maps(model_instrument(stacked), [model_instrument(one[k]) for one in ones], d)
        assert_same_maps(channel, [one[1] for one in singles], d)
        assert all(np.abs(obs.stack[t] - one[2].stack).max() <= 1e-14 for t, one in enumerate(singles))
    assert family_distance(vn_measured(model)[2], a) <= 1e-14
    unitaries = [von_neumann_unitary(one[2].base_basis, one[2].probe_basis) for one in ones]
    assert np.abs(generic.interaction - np.stack(unitaries)).max() <= 1e-15
    assert generic.couplings.shape == (len(SEEDS), 1, d * d, d * d)
    sharp, other = (atomic_observable(random_unitary(d, np.random.default_rng(seed))) for seed in (1, 2))
    mixed, same = (Observable._valid(sharp.labels, np.stack([sharp.stack, x.stack])) for x in (other, sharp))
    assert obs_commute(same, same) and not obs_commute(mixed, same)  # trial 1's bases differ


def test_a_stacked_von_neumann_model_checks_every_trials_bases():
    # Each trial's bases must be unitary, and two stacks must have one trial axis.
    bases = np.stack([random_unitary(2, np.random.default_rng(seed)) for seed in SEEDS])
    pointer = random_observable(2, 2, np.random.default_rng(0))
    skewed = bases.copy()
    skewed[-1] *= 1.0 + 1e-7
    with pytest.raises(NotIsometry, match="bases must be unitary"):
        VonNeumannModel(skewed, np.eye(2), pointer)
    with pytest.raises(DimensionError, match="equal dimension"):
        VonNeumannModel(bases, bases[:2], pointer)


def test_a_stacked_dilation_has_no_one_interaction_unitary():
    # A stack of dilations holds one isometry per trial: its interaction (and
    # the couplings and interaction map read off it) is refused, not
    # completed from the first trial's first column; a trial's own dilation
    # completes its own isometry.
    stacked = dilate_instrument(random_instrument(2, 4, StackedDraws()))
    for read in (lambda m: m.interaction, lambda m: m.couplings, lambda m: m.apply_interaction(np.eye(16))):
        with pytest.raises(DimensionError, match="one isometry per trial"):
            read(stacked)
    one = dilate_instrument(random_instrument(2, 4, np.random.default_rng(SEEDS[0])))
    u = one.interaction
    assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-12
    assert np.abs(u[:, ::8] - one._restricted[0, :, :, 0]).max() == 0.0


@pytest.mark.parametrize("d, m", [(2, 2), (3, 2), (3, 3)])
def test_stacked_von_neumann_models_and_their_public_fimms_are_the_per_trial_ones(d, m):
    # thm-4.4: vn_measured and model_instrument of stacked von Neumann models,
    # model_instrument of the public FIMM of each trial's probe state, pairing
    # unitary and pointer, and the dephasing channels applied to stacked states.
    def build(rng):
        model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, m, rng))
        unitary = von_neumann_unitary(model.base_basis, model.probe_basis)
        return model, FIMM(d, d, model.probe_state, unitary, model.pointer), random_state(d, rng)

    (model, public, rho), ones = build(StackedDraws()), per_trial(build)
    instr, channel, obs = vn_measured(model)
    singles = [vn_measured(one) for one, _, _ in ones]
    assert_same_maps(instr, [one[0] for one in singles], d)
    assert_same_maps(channel, [one[1] for one in singles], d)
    assert all(np.abs(obs.stack[k] - one[2].stack).max() <= 1e-14 for k, one in enumerate(singles))
    assert_same_maps(model_instrument(model), [model_instrument(one) for one, _, _ in ones], d)
    assert_same_maps(model_instrument(public), [model_instrument(one) for _, one, _ in ones], d)
    once, fixed = channel.apply(rho), channel.apply(rho[0])
    for k, (_, _, r) in enumerate(ones):
        assert np.abs(once[k] - singles[k][1].apply(r)).max() <= 1e-15
        assert np.abs(fixed[k] - singles[k][1].apply(rho[0])).max() <= 1e-15
    with pytest.raises(DimensionError, match="input shape"):
        channel.apply(rho[:2])


def test_a_stacked_fimm_checks_every_trials_state_and_unitary():
    # Each trial's probe state and interaction unitary are checked as FIMM
    # checks one (the unitary within UNITARY_TOL), and stacked states,
    # unitaries and pointers must share one trial axis.
    pointer = random_observable(2, 2, np.random.default_rng(0))
    states, unitaries = random_state(2, StackedDraws()), random_unitary(4, StackedDraws())
    assert FIMM(2, 2, states, unitaries, pointer).couplings.shape == (len(SEEDS), 1, 4, 4)
    skewed, halved = unitaries.copy(), states.copy()
    skewed[-1] *= 1.0 + 1e-7
    halved[-1] *= 0.5
    with pytest.raises(NotIsometry, match="not unitary"):
        FIMM(2, 2, states, skewed, pointer)
    with pytest.raises(InvariantViolation, match="trace-one"):
        FIMM(2, 2, halved, unitaries, pointer)
    with pytest.raises(InvariantViolation, match="trace-one"):
        trivial_fimm(halved, pointer)
    with pytest.raises(DimensionError, match="interaction shape"):
        FIMM(2, 2, states, unitaries[:2], pointer)
    pointers = random_observable(2, 2, StackedDraws(SEEDS[:2]))
    for build in (lambda: FIMM(2, 2, states, unitaries, pointers), lambda: trivial_fimm(states, pointers)):
        with pytest.raises(DimensionError, match="pointer trials"):
            build()


def test_a_stacked_probe_state_keeps_the_root_columns_any_trial_keeps():
    # A pure probe state in one trial and a full-rank one in another: the
    # stack's probe root keeps each column that some trial keeps (zero in
    # the others), and each trial measures its own instrument.
    rng = np.random.default_rng(3)
    v = random_unitary(3, rng)[:, 0]
    states = np.stack([np.outer(v, v.conj()), random_state(3, rng)])
    u, pointer = random_unitary(6, rng), random_observable(3, 2, rng)
    stacked, ones = FIMM(2, 3, states, u, pointer), [FIMM(2, 3, s, u, pointer) for s in states]
    assert [one._probe_root.shape for one in ones] == [(3, 1), (3, 3)] and stacked._probe_root.shape == (2, 3, 3)
    assert_same_maps(model_instrument(stacked), [model_instrument(one) for one in ones], 2)


@pytest.mark.parametrize("d, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_stacked_swap_models_are_the_per_trial_ones(d, m):
    # thm-4.8: trivial_fimm of stacked states and pointers measures each
    # trial's state preparation, as each trial's own swap model does.
    def build(rng):
        eta, pointer = random_state(d, rng), random_observable(d, m, rng)
        return trivial_fimm(eta, pointer), trivial_instrument(pointer, eta)

    (model, prepared), ones = build(StackedDraws()), per_trial(build)
    measured = model_instrument(model)
    assert_same_maps(measured, [model_instrument(one) for one, _ in ones], d)
    assert_same_maps(measured, [one for _, one in ones], d)
    assert family_distance(measured, prepared) <= 1e-14


def test_a_von_neumann_model_of_one_basis_pair_measures_a_stacked_pointer():
    # One pair of bases and a pointer stacked over trials: model_instrument's
    # general branch measures each trial's instrument, the one vn_measured
    # gives in closed form.
    rng = np.random.default_rng(0)
    base, probe = random_unitary(2, rng), random_unitary(2, rng)
    pointer = random_observable(2, 2, StackedDraws())
    model = VonNeumannModel(base, probe, pointer)
    ones = [VonNeumannModel(base, probe, one) for one in per_trial(lambda r: random_observable(2, 2, r))]
    measured, closed = model_instrument(model), vn_measured(model)[0]
    assert_same_maps(measured, [vn_measured(one)[0] for one in ones], 2)
    assert all(choi_distances(measured.kraus[k], closed.kraus[k]).max() <= 1e-14 for k in range(len(SEEDS)))


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_atomic_observables_and_their_complementarity_are_the_per_trial_ones(d):
    # lem-2.4, cor-2.5 and the probe: atomic_observable of a stack of bases,
    # and the complementarity decisions of stacks, one per trial, on either
    # side; complementarity_residual gives the worst trial. Trial 0 of the
    # second pair turns one basis of a mutually unbiased pair, so it alone is
    # not complementary.
    b1, b2 = fourier_mub(d)
    u = random_unitary(d, StackedDraws())
    turned = np.stack([random_unitary(d, np.random.default_rng(9)) @ b2, *(u[1:] @ b2)])
    for first, second in ((u @ b1, u @ b2), (u @ b1, turned)):
        a, b = atomic_observable(first), atomic_observable(second)
        ones = [(atomic_observable(x), atomic_observable(y)) for x, y in zip(first, second)]
        assert a.labels == ones[0][0].labels and a.stack.shape == (len(SEEDS), d, d, d)
        for k, (x, y) in enumerate(ones):
            assert np.array_equal(a.stack[k], x.stack) and np.array_equal(b.stack[k], y.stack)

        def decide(x, y):
            return obs_complementary(x, y), instr_complementary(luders_instrument(x), luders_instrument(y))

        decided, singles = decide(a, b), [decide(x, y) for x, y in ones]
        assert [tuple(map(bool, pair)) for pair in zip(*decided)] == singles
        assert complementarity_residual(a, b) == max(complementarity_residual(x, y) for x, y in ones)
    assert [bool(x) for x in obs_complementary(a, b)] == [False, True, True, True]
    with pytest.raises(LabelError, match=f"expected {d} labels"):
        atomic_observable(u, ["x"])


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_commuting_pairs_and_their_joint_observables_are_the_per_trial_ones(d):
    # lem-1.1: random_commuting_effect_pair of stacked draws is two stacks of
    # effects, and binary_observables_from_coexistence of stacked effects and
    # witnesses is a stack of joint observables, each trial's checked.
    def build(rng):
        a, b = random_commuting_effect_pair(d, rng)
        ab = ensure_effects(((a @ b + (a @ b).conj().swapaxes(-1, -2)) / 2).reshape(-1, d, d)).reshape(a.shape)
        return a, b, CoexistenceWitness(a - ab, b - ab, ab)

    (a, b, w), ones = build(StackedDraws()), per_trial(build)
    assert a.shape == b.shape == (len(SEEDS), d, d)
    joint = binary_observables_from_coexistence(a, b, w)
    assert joint.stack.shape == (len(SEEDS), 4, d, d)
    for k, (x, y, v) in enumerate(ones):
        assert np.array_equal(a[k], x) and np.array_equal(b[k], y)
        assert np.array_equal(joint.stack[k], binary_observables_from_coexistence(x, y, v).stack)
    broken = CoexistenceWitness(w.a1, w.b1, np.concatenate([w.c[:-1], 2.0 * w.c[-1:]]))
    with pytest.raises(InvalidWitness):
        binary_observables_from_coexistence(a, b, broken)


@pytest.mark.parametrize("d, m, n", [(2, 2, 3), (3, 3, 2)])
def test_stacked_tables_and_set_probabilities_are_the_per_trial_ones(d, m, n):
    # ex-7, ex-8 and lem-3.1: ensure_state of a stack, the outcome tables of
    # stacked states and families, (t, m, n), and the set probabilities, (t,),
    # over one set of labels or over boolean masks, one set per trial.
    def build(rng):
        a, b, rho = random_observable(d, m, rng), random_observable(d, n, rng), random_state(d, rng)
        return a, b, rho, rng.random(size=m) < 0.5, rng.random(size=n) < 0.5

    (a, b, rho, x, y), ones = build(StackedDraws()), per_trial(build)
    assert np.array_equal(ensure_state(rho), np.stack([ensure_state(one[2]) for one in ones]))
    halved = rho.copy()
    halved[-1] *= 0.5
    with pytest.raises(InvariantViolation, match="trace-one"):
        ensure_state(halved)
    i, j = luders_instrument(a), luders_instrument(b)
    tables = joint_probability_table(rho, a, b), joint_probability_table_instr(rho, i, j)
    assert tables[0].shape == tables[1].shape == (len(SEEDS), m, n)
    labels = [a.labels[0]], list(b.labels[1:])
    for k, (p, q, r, u, v) in enumerate(ones):
        assert np.abs(tables[0][k] - joint_probability_table(r, p, q)).max() <= 1e-15
        lu, lv = luders_instrument(p), luders_instrument(q)
        assert np.abs(tables[1][k] - joint_probability_table_instr(r, lu, lv)).max() <= 1e-15
        for sets, one_sets in (((x, y), (u, v)), (labels, labels)):
            then = joint_probability_then(rho, a, sets[0], b, sets[1])
            instr = joint_probability_instr(rho, i, sets[0], j, sets[1])
            assert then.shape == instr.shape == (len(SEEDS),)
            assert abs(then[k] - joint_probability_then(r, p, one_sets[0], q, one_sets[1])) <= 1e-15
            assert abs(instr[k] - joint_probability_instr(r, lu, one_sets[0], lv, one_sets[1])) <= 1e-15
    assert isinstance(joint_probability_then(ones[0][2], ones[0][0], ones[0][3], ones[0][1], labels[1]), float)
    with pytest.raises(ShapeError, match="outcome mask"):
        joint_probability_then(rho, a, x[:, :-1], b, y)
    with pytest.raises(DimensionError, match="tables and outcome sets stacked over different trials"):
        joint_probability_then(rho, a, x[:2], b, y)
    with pytest.raises(DimensionError, match="states and families stacked over different trials"):
        joint_probability_table(rho[:2], a, b)


@pytest.mark.parametrize("d", [2, 3])
def test_a_state_preparation_of_one_observable_and_stacked_states_is_the_per_trial_ones(d):
    # lem-2.4 and cor-2.5: trivial_instrument of one observable (not a stack)
    # and a stack of states prepares each trial's state, as the observable
    # with each state does; with a stack of observables, one state goes with each.
    a = identity_observable({"0": 0.5, "1": 0.5}, d)
    states = random_state(d, StackedDraws())
    assert_same_maps(trivial_instrument(a, states), [trivial_instrument(a, s) for s in states], d)
    observables = random_observable(d, 2, StackedDraws())
    ones = per_trial(lambda rng: random_observable(d, 2, rng))
    assert_same_maps(trivial_instrument(observables, states[0]), [trivial_instrument(o, states[0]) for o in ones], d)
    with pytest.raises(DimensionError, match="states and families stacked over different trials"):
        trivial_instrument(observables, states[:2])
