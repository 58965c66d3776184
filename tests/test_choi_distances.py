"""Choi-form comparisons computed in Kraus form, and Choi matrices formed on read.

The oracle is the explicit Choi form: ``C = sum_k vec(K_k^T) vec(K_k^T)^*``
for each Kraus stack, and the Frobenius norm of the difference.
"""

import numpy as np
import pytest

from qinstr.instruments import (
    Instrument,
    Operation,
    choi_distances,
    instr_channel,
    instruments_close,
    is_identity_instrument,
    kraus_instrument,
    operations_close,
)
from qinstr.linalg import CHOI_TOL, frob, hermitian_part
from qinstr.models import dilate_instrument, model_instrument
from qinstr.observables import family_distance
from qinstr.rand import random_hermitian, random_instrument, random_simplex, random_unitary
from qinstr.serialize import dumps_document


def explicit_choi(stack: np.ndarray) -> np.ndarray:
    v = stack.transpose(2, 1, 0).reshape(-1, len(stack))  # vec(K^T), one column per operator
    return v @ v.conj().T


def stacks(instr: Instrument) -> list[np.ndarray]:
    return [op._kraus for _, op in instr.items()]


def assert_matches_choi_form(ks: list, ls: list) -> np.ndarray:
    """The kernel's distances, each within 1e-14 of the explicit Choi form per
    unit of Choi norm (the rounding level of the Choi form itself)."""
    fast = choi_distances(ks, ls)
    assert fast.shape == (len(ks),)
    for got, k, l in zip(fast, ks, ls):
        ck, cl = explicit_choi(k), explicit_choi(l)
        assert abs(got - frob(ck - cl)) <= 1e-14 * max(1.0, frob(ck) + frob(cl))
    return fast


class TestKernelAgainstTheChoiForm:
    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_round_trip_pairs(self, d, rng):
        i = random_instrument(d, 3, rng, 2)
        back = model_instrument(dilate_instrument(i))
        fast = assert_matches_choi_form(stacks(i), stacks(back))
        assert np.all(fast <= 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_distinct_pairs_with_unequal_kraus_counts(self, d, rng):
        i, j = random_instrument(d, 3, rng, 2), random_instrument(d, 3, rng, 1)
        assert_matches_choi_form(stacks(i), stacks(j))
        mixed = [k[:1] for k in stacks(i)[:2]] + [np.concatenate(stacks(i))]  # 1, 1 and 6 operators against 1
        assert_matches_choi_form(mixed, stacks(j))

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_zero_operation(self, d, rng):
        k = stacks(random_instrument(d, 2, rng, 2))[0]
        zero = np.zeros((1, d, d), dtype=complex)
        fast = assert_matches_choi_form([zero, k, zero], [k, zero, np.zeros((3, d, d), dtype=complex)])
        assert fast[2] == 0.0

    @pytest.mark.parametrize("d", [2, 3, 8, 16, 32])
    def test_same_map_from_other_kraus_operators(self, d, rng):
        k = stacks(random_instrument(d, 2, rng, 2))[0]
        mixed = np.einsum("jk,kab->jab", random_unitary(2, rng), k)  # the same map
        fast = assert_matches_choi_form([k], [mixed])
        assert fast[0] <= 1e-13

    def test_bitwise_equal_stacks_are_exactly_zero(self, rng):
        for d in (2, 8):
            ks = stacks(random_instrument(d, 3, rng, 2))
            back = stacks(model_instrument(dilate_instrument(random_instrument(d, 3, rng, 2))))
            fast = choi_distances([ks[0], ks[1], back[2]], [ks[0].copy(), ks[1].copy(), ks[2]])
            assert fast[0] == 0.0 and fast[1] == 0.0 and fast[2] > 0.0

    def test_real_stacks(self):
        """Real input takes the same path as complex input: the sign of the
        ``L`` columns must not reach the conjugate factor."""
        one = np.eye(2)[None]
        fast = assert_matches_choi_form([one, one, 2.0 * one], [0.5 * one, one, np.zeros((1, 2, 2))])
        assert abs(fast[0] - 0.75 * frob(explicit_choi(one))) <= 1e-15 and fast[1] == 0.0  # C - C / 4
        tall = np.eye(5)[None]  # d = 5, a tall W: through the QR
        assert abs(choi_distances([tall], [0.5 * tall])[0] - 0.75 * frob(explicit_choi(tall))) <= 1e-14

    def test_one_batched_qr_past_d_4_and_none_below(self, rng, eig_calls):
        """The QR runs past ``d = 4`` when ``W`` has more rows (``d^2``) than
        columns (two stacks padded to ``r`` operators): for a wide ``W`` it
        would not shrink the ``d^2`` square, and up to ``d = 4`` the direct
        product costs less than the call."""
        big, small = random_instrument(8, 3, rng, 2), random_instrument(3, 3, rng, 2)
        eig_calls.qr_calls.clear()
        choi_distances(stacks(big), stacks(random_instrument(8, 3, rng, 1)))
        assert eig_calls.qr_calls == [(3, 64, 4)]  # three pairs, padded to two operators a side
        eig_calls.qr_calls.clear()
        choi_distances(stacks(small), stacks(small)[::-1])
        choi_distances([np.concatenate(stacks(random_instrument(8, 2, rng, 32)))], stacks(big)[:1])  # 64 x 128
        assert eig_calls.qr_calls == []

    def test_comparisons_go_through_the_kernel(self, rng):
        i = random_instrument(8, 3, rng, 2)
        back = model_instrument(dilate_instrument(i))
        chois = [explicit_choi(k) for k in stacks(i)]
        backs = [explicit_choi(k) for k in stacks(back)]
        dist = max(frob(c - b) for c, b in zip(chois, backs))
        assert abs(family_distance(i, back) - dist) <= 1e-14
        assert instruments_close(i, back, dist * 1.5) and not instruments_close(i, back, dist / 1.5)
        assert operations_close(i["0"], back["0"], 1e-12)
        assert not operations_close(i["0"], i["1"], 1e-3)

    @pytest.mark.parametrize("d", [2, 8])
    def test_choi_input_pairs_compare_in_choi_form(self, d, rng, eig_calls):
        """A pair with a Choi-input operation subtracts Choi matrices, with no
        QR of its canonical Kraus stack (up to ``d^2`` operators)."""
        full = [Operation.from_choi(random_instrument(d, 1, rng, d * d)["0"].choi) for _ in range(2)]
        kraus = random_instrument(d, 1, rng, 2)["0"]
        ia, ib = Instrument({"0": full[0]}), Instrument({"0": full[1]})
        eig_calls.qr_calls.clear()
        assert family_distance(ia, ib) == frob(full[0].choi - full[1].choi)
        assert family_distance(ia, ia) == 0.0
        assert operations_close(full[0], kraus, frob(full[0].choi - kraus.choi))
        assert not operations_close(kraus, full[0], 0.99 * frob(full[0].choi - kraus.choi))
        assert is_identity_instrument(ia, 10.0) == choi_identity_verdict(ia, 10.0)
        assert eig_calls.qr_calls == []

    def test_d32_round_trip_within_the_north_star_bound(self, rng):
        i = random_instrument(32, 3, rng, 2)
        back = model_instrument(dilate_instrument(i))
        assert family_distance(i, back) <= 7e-14  # the north-star round-trip bound


def choi_identity_verdict(instr: Instrument, tol: float) -> bool:
    """``is_identity_instrument`` in the explicit Choi form."""
    chois = np.stack([explicit_choi(k) for k in stacks(instr)])
    weights = np.trace(chois, axis1=1, axis2=2).real / instr.dim
    ident = explicit_choi(np.eye(instr.dim, dtype=complex)[None])
    defects = np.linalg.norm(chois - weights[:, None, None] * ident, axis=(1, 2))
    return bool(np.all(weights >= -tol) and np.all(defects <= tol))


class TestIdentityInstrumentVerdicts:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_eps_sweep_around_the_tolerance(self, d, rng):
        """Outcome ``x`` is ``w_x U_eps . U_eps^*`` with ``U_eps = exp(i eps H)``:
        its Choi defect from ``w_x id`` is linear in ``eps``, so ``eps`` is
        placed to put the largest defect at ``f * CHOI_TOL``."""
        w, (h, v) = random_simplex(3, rng), np.linalg.eigh(random_hermitian(d, rng))

        def instrument(eps: float) -> Instrument:
            u = (v * np.exp(1j * eps * h)) @ v.conj().T
            return kraus_instrument({str(x): np.sqrt(wx) * u for x, wx in enumerate(w)})

        probe = 1e-6
        chois = [explicit_choi(k) for k in stacks(instrument(probe))]
        ident = explicit_choi(np.eye(d, dtype=complex)[None])
        largest = max(frob(c - wx * ident) for c, wx in zip(chois, w))
        verdicts = []
        for f in (0.5, 0.9, 0.999, 1.001, 1.1, 2.0):
            instr = instrument(probe * f * CHOI_TOL / largest)
            verdict = is_identity_instrument(instr)
            assert verdict == choi_identity_verdict(instr, CHOI_TOL)
            verdicts.append(verdict)
        assert verdicts == [True, True, True, False, False, False]

    def test_other_tolerances_and_instruments(self, rng):
        d = 3
        cases = [
            Instrument({"a": Operation.identity(d)}),
            kraus_instrument({"a": np.sqrt(0.3) * np.eye(d), "b": np.sqrt(0.7) * np.eye(d)}),
            kraus_instrument({"a": np.sqrt(0.3) * np.eye(d), "b": np.sqrt(0.7) * random_unitary(d, rng)}),
            random_instrument(d, 2, rng),
        ]
        for instr in cases:
            for tol in (0.0, 1e-12, CHOI_TOL, 1e-2, 10.0):
                assert is_identity_instrument(instr, tol) == choi_identity_verdict(instr, tol)


def choi_sized(op: Operation) -> list[str]:
    """Names of the arrays of ``d^2 x d^2`` shape that ``op`` holds."""
    n = op.dim * op.dim
    return [k for k, a in vars(op).items() if isinstance(a, np.ndarray) and a.shape == (n, n)]


class TestChoiFormedOnRead:
    def test_reading_choi_attaches_nothing(self, rng):
        instr = random_instrument(4, 2, rng, 2)
        ops = [instr["0"], instr_channel(instr), Operation.from_kraus(instr["1"].kraus_ops())]
        for op in ops:
            c = op.choi
            assert c.shape == (16, 16) and not c.flags.writeable
            assert frob(c - explicit_choi(op._kraus)) == 0.0
            assert op.choi is not c  # formed again on each read
            assert choi_sized(op) == []
        family_distance(instr, instr)
        dumps_document(instr)
        assert all(choi_sized(op) == [] for _, op in instr.items())

    @pytest.mark.parametrize("d", [3, 5])
    def test_kraus_built_choi_is_exactly_hermitian(self, d, rng):
        for _, op in random_instrument(d, 2, rng, 2).items():
            c = op.choi
            assert np.array_equal(c, c.conj().T) and np.array_equal(c, hermitian_part(c))
            assert frob(c - explicit_choi(op._kraus)) <= 1e-15

    def test_choi_input_keeps_the_callers_matrix(self, rng):
        c = hermitian_part(random_instrument(3, 2, rng)["0"].choi)
        op = Operation.from_choi(c)
        assert op.choi is op.choi
        assert np.array_equal(op.choi, c)
        assert choi_sized(op) == ["_choi"]
