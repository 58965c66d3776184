"""Whole-family draws against the per-block generators they replace.

Each family generator draws all of its blocks in one Generator call, which
returns the numbers the per-block calls return, in the same order.  The
loop generators below are kept as oracles: with equal seeds, the two must
give bit-identical families and leave the generator in the same state.
"""

import numpy as np
import pytest

from qinstr.linalg import hermitian_part
from qinstr.observables import Observable, StochasticMatrix
from qinstr.rand import (
    default_labels,
    ginibre,
    random_commutative_observable,
    random_commuting_effect_pair,
    random_instrument,
    random_observable,
    random_stochastic,
)
from qinstr.effects import ensure_effect

from conftest import kraus_family


def _loop_ginibre(dim, rng, cols=None):
    cols = dim if cols is None else cols
    return (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / np.sqrt(2.0)


def _loop_unitary(dim, rng):
    q, r = np.linalg.qr(_loop_ginibre(dim, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _loop_random_observable(dim, outcomes, rng):
    blocks = []
    for _ in range(outcomes):
        g = _loop_ginibre(dim, rng)
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(hermitian_part(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Observable._valid(default_labels(outcomes), np.stack([inv_root @ b @ inv_root for b in blocks]))


def _loop_random_instrument(dim, outcomes, rng, kraus_per_outcome):
    raw = [[_loop_ginibre(dim, rng) for _ in range(kraus_per_outcome)] for _ in range(outcomes)]
    total = sum(k.conj().T @ k for ops in raw for k in ops)
    w, v = np.linalg.eigh(hermitian_part(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return kraus_family((str(x), [k @ inv_root for k in raw[x]]) for x in range(outcomes))


def _loop_random_stochastic(src, tgt, rng):
    rows = np.stack([rng.dirichlet(np.ones(len(tgt))) for _ in src])
    return StochasticMatrix(src, tgt, rows)


def _loop_random_commutative_observable(dim, outcomes, rng):
    u = _loop_unitary(dim, rng)
    weights = np.stack([rng.dirichlet(np.ones(outcomes)) for _ in range(dim)])
    return Observable({str(x): u @ np.diag(weights[:, x]).astype(complex) @ u.conj().T for x in range(outcomes)})


def _loop_commuting_effect_pair(dim, rng):
    u = _loop_unitary(dim, rng)
    a = u @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ u.conj().T
    b = u @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ u.conj().T
    return ensure_effect(a), ensure_effect(b)


def _twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(r1, r2):
    return r1.bit_generator.state == r2.bit_generator.state


class TestFamilyDrawsMatchLoops:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_ginibre(self, d):
        for cols in (None, 1, 3):
            r1, r2 = _twin_generators(d)
            assert np.array_equal(ginibre(d, r1, cols), _loop_ginibre(d, r2, cols))
            assert _same_state(r1, r2)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_instrument(self, d):
        for outcomes in range(1, 5):
            for kraus in range(1, 4):
                r1, r2 = _twin_generators(100 * d + 10 * outcomes + kraus)
                batched, loop = random_instrument(d, outcomes, r1, kraus), _loop_random_instrument(d, outcomes, r2, kraus)
                assert batched.labels == loop.labels
                assert np.array_equal(batched.effects, loop.effects)
                for (_, ob), (_, ol) in zip(batched.items(), loop.items()):
                    assert np.array_equal(ob._kraus, ol._kraus)
                assert _same_state(r1, r2)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_observable(self, d):
        for outcomes in range(1, 5):
            r1, r2 = _twin_generators(10 * d + outcomes)
            batched, loop = random_observable(d, outcomes, r1), _loop_random_observable(d, outcomes, r2)
            assert batched.labels == loop.labels
            assert np.array_equal(batched.stack, loop.stack)
            assert _same_state(r1, r2)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_stochastic(self, d):
        for outcomes in range(1, 5):
            src, tgt = default_labels(d), [f"t{k}" for k in range(outcomes)]
            r1, r2 = _twin_generators(10 * d + outcomes)
            assert np.array_equal(random_stochastic(src, tgt, r1).matrix, _loop_random_stochastic(src, tgt, r2).matrix)
            assert _same_state(r1, r2)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_commutative_observable(self, d):
        for outcomes in range(1, 5):
            r1, r2 = _twin_generators(10 * d + outcomes)
            batched = random_commutative_observable(d, outcomes, r1)
            loop = _loop_random_commutative_observable(d, outcomes, r2)
            assert batched.labels == loop.labels
            assert np.array_equal(batched.stack, loop.stack)
            assert _same_state(r1, r2)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_commuting_effect_pair(self, d):
        r1, r2 = _twin_generators(d)
        for new, old in zip(random_commuting_effect_pair(d, r1), _loop_commuting_effect_pair(d, r2)):
            assert np.array_equal(new, old)
        assert _same_state(r1, r2)


class TestOneCallPerFamily:
    @pytest.mark.parametrize("kraus", [1, 3])
    def test_random_instrument_one_normal_call(self, kraus, rng_calls):
        random_instrument(3, 4, rng_calls, kraus)
        assert rng_calls.calls == ["standard_normal"]

    def test_random_observable_one_normal_call(self, rng_calls):
        random_observable(3, 4, rng_calls)
        assert rng_calls.calls == ["standard_normal"]

    def test_random_stochastic_one_dirichlet_call(self, rng_calls):
        random_stochastic(default_labels(4), default_labels(3), rng_calls)
        assert rng_calls.calls == ["dirichlet"]

    def test_random_commutative_observable_one_dirichlet_call(self, rng_calls):
        random_commutative_observable(3, 4, rng_calls)
        assert rng_calls.calls == ["standard_normal", "dirichlet"]  # the unitary, then every weight row
