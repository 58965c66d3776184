"""Families and combinators on a stack of trials over a leading axis.

A generator whose calls return each trial's draw of the same call, stacked,
gives a stack of families; every public call on such a stack must equal its
calls on the trials one by one.  The catalog runs thm-2.1, ex-3, lem-3.4, ex-5
and cor-3.3 this way (``verify._Stacked``); these tests replace the checks that
their array programs built what the public functions build.
"""

import numpy as np
import pytest

from qinstr.instruments import (
    _reduced,
    choi_distances,
    compose_operations,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_conditioned,
    instr_product,
    luders_instrument,
)
from qinstr.observables import family_distance
from qinstr.rand import random_instrument, random_kraus_instrument, random_observable, random_simplex

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
