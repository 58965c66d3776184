"""The one sandwich kernel ``linalg._sandwich``, ``sum_j K_j X K_j^*``.

The oracles are the expressions it replaced, kept here verbatim: the padded
outputs ``(K @ X @ K^*).sum(1)`` of ``instruments._outputs``, with the
``[None] ... [0]`` wrap of ``Operation.apply`` and ``FIMM.apply_interaction``,
the root product ``r @ b @ r`` of ``effects.seq_products``, and the
symmetrized ``s @ r @ s`` of ``effects.conditioned_partial_state``.  Each
must agree bitwise.  The dual map ``sum_j K_j^* B K_j`` is the kernel on
adjoint operators; its two identities (``B = 1`` gives the effects, and
``tr(rho I^*(B)) = tr(I(rho) B)``) are checked against the library's forms.
"""

import numpy as np
import pytest

from qinstr.effects import conditioned_partial_state, ensure_effect, ensure_effects, ensure_partial_state
from qinstr.effects import seq_products
from qinstr.instruments import Operation, _effects, instr_channel, joint_probability_table_instr
from qinstr.linalg import _sandwich, herm_sqrt, hermitian_part
from qinstr.models import FIMM
from qinstr.observables import _pair_traces
from qinstr.rand import random_effect, random_fimm, random_instrument, random_observable, random_state

from conftest import kraus_family

DIMS = [2, 3, 4, 8]


# -- oracles: the expressions the kernel replaced ------------------------------


def padded_outputs(kraus, mat):
    return (kraus @ mat @ kraus.conj().swapaxes(-1, -2)).sum(1)


def root_products(roots, b):
    r = roots[..., :, None, :, :]
    return r @ b[..., None, :, :, :] @ r


def checked_root_products(roots, b):
    products = root_products(roots, b)
    return ensure_effects(products.reshape(-1, *products.shape[-2:])).reshape(products.shape)


def adjoint(kraus):
    return kraus.conj().swapaxes(-1, -2)


def padded_instrument(d, rng):
    """An instrument whose outcomes hold 1, 2 and 3 operators, so its array is padded:
    the first outcome of a random instrument split in two."""
    raw = random_instrument(d, 2, rng, kraus_per_outcome=3).kraus
    return kraus_family([("a", raw[0, :1]), ("b", raw[0, 1:]), ("c", raw[1])])


class TestBitwiseOracles:
    @pytest.mark.parametrize("d", DIMS)
    def test_instrument_outputs_are_the_padded_sum(self, d, rng):
        for instr in (random_instrument(d, 3, rng), padded_instrument(d, rng)):
            rho = random_state(d, rng)
            assert np.array_equal(_sandwich(instr.kraus, rho), padded_outputs(instr.kraus, rho))
            j = random_instrument(d, 2, rng)
            table = _pair_traces(padded_outputs(instr.kraus, rho), j.effects)
            assert np.array_equal(joint_probability_table_instr(rho, instr, j), table)

    @pytest.mark.parametrize("d", DIMS)
    def test_seq_products_are_the_root_products(self, d, rng):
        a, b = random_observable(d, 3, rng), random_observable(d, 4, rng)
        products = _sandwich(a.roots[:, None, None], b.stack[None, :, None])
        assert np.array_equal(products, root_products(a.roots, b.stack))
        assert np.array_equal(seq_products(a.roots, b.stack), checked_root_products(a.roots, b.stack))

    @pytest.mark.parametrize("d", DIMS)
    def test_batched_seq_products_are_the_root_products(self, d, rng):
        a = np.stack([random_observable(d, 3, rng).stack for _ in range(5)])
        b = np.stack([random_observable(d, 2, rng).stack for _ in range(5)])
        roots = herm_sqrt(a.reshape(-1, d, d)).reshape(a.shape)
        assert np.array_equal(seq_products(roots, b), checked_root_products(roots, b))

    @pytest.mark.parametrize("d", DIMS)
    def test_conditioned_partial_state_is_the_root_product(self, d, rng):
        for _ in range(20):
            a, rho = random_effect(d, rng), random_state(d, rng)
            s, r = herm_sqrt(ensure_effect(a)), ensure_partial_state(rho)
            assert np.array_equal(conditioned_partial_state(a, rho), hermitian_part(s @ r @ s))

    @pytest.mark.parametrize("d", DIMS)
    def test_operation_apply_is_the_wrapped_sum(self, d, rng):
        instr = padded_instrument(d, rng)
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for op in [*(op for _, op in instr.items()), instr_channel(instr)]:
            assert np.array_equal(op.apply(mat), padded_outputs(op._kraus[None], mat)[0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_apply_interaction_is_the_wrapped_sum(self, d, rng):
        unitary = random_fimm(d, 2, 2, rng)
        channel = instr_channel(random_instrument(2 * d, 2, rng))
        stochastic = FIMM(d, 2, unitary.probe_state, channel, unitary.pointer)
        for m in (unitary, stochastic):
            mat = random_state(2 * d, rng)
            assert np.array_equal(m.apply_interaction(mat), padded_outputs(m.couplings[None], mat)[0])


class TestDualMap:
    @pytest.mark.parametrize("d", DIMS)
    def test_dual_at_the_identity_is_the_effects(self, d, rng):
        for instr in (random_instrument(d, 3, rng), padded_instrument(d, rng)):
            dual = _sandwich(adjoint(instr.kraus), np.eye(d))
            assert np.abs(dual - _effects(instr.kraus)).max() <= 1e-15

    @pytest.mark.parametrize("d", DIMS)
    def test_dual_probabilities_are_the_joint_table(self, d, rng):
        i, j, rho = padded_instrument(d, rng), random_instrument(d, 2, rng), random_state(d, rng)
        duals = _sandwich(adjoint(i.kraus)[:, None], j.effects[None, :, None])  # duals[x, y] = I_x^*(B_y)
        p = np.einsum("ab,xyba->xy", rho, duals).real
        assert np.abs(p - joint_probability_table_instr(rho, i, j)).max() <= 1e-14

    def test_operation_dual_is_its_effect(self, rng):
        op = Operation.from_choi(Operation.from_kraus(random_instrument(3, 2, rng).kraus[0]).choi)
        assert np.abs(_sandwich(adjoint(op._kraus), np.eye(3)) - op.induced_effect).max() <= 1e-15
