import numpy as np
import pytest

import qinstr.models as models
from qinstr.errors import DimensionError, NotCommutative, NotIsometry, NotNormal
from qinstr.instruments import (
    Instrument,
    Operation,
    choi_distances,
    induced_observable,
    instr_channel,
    instr_coexist_verify,
    instr_conditioned,
    instruments_close,
    luders_instrument,
    kraus_instrument,
    operations_close,
    kraus_from_vectors,
    minimal_kraus,
    trivial_instrument,
)
from qinstr.linalg import CHOI_TOL, _phase_fix, complete_to_unitary, frob, herm_eig, herm_sqrt, hermitian_part
from qinstr.linalg import inverse_root, is_unitary
from qinstr.linalg import partial_trace_second, root_factors, tensor_product
from qinstr.models import (
    FIMM,
    MODEL_TOL,
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
from qinstr.observables import (
    Observable,
    atomic_observable,
    classify_observable,
    combine_labels,
    family_distance,
    identity_observable,
    obs_post_process,
    observables_close,
)
from qinstr.rand import (
    random_fimm,
    random_instrument,
    random_kraus_instrument,
    random_observable,
    random_pure_state_vector,
    random_state,
    random_unitary,
)
from qinstr.serialize import dumps_document

from conftest import P0, P1, PAULI_X, bounded_kraus, kraus_family, proj


class TestSwapUnitary:
    def test_dim_one(self):
        np.testing.assert_allclose(swap_unitary(1), np.eye(1))

    def test_dim_two_permutation(self):
        u = swap_unitary(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_allclose(u, expected)

    def test_conjugation_swaps_factors(self, rng):
        u = swap_unitary(3)
        rho, eta = random_state(3, rng), random_state(3, rng)
        lhs = u @ tensor_product(rho, eta) @ u.conj().T
        np.testing.assert_allclose(lhs, tensor_product(eta, rho), atol=1e-10)


class TestModelInstrument:
    def test_identity_interaction(self, rng):
        # with no interaction the pointer just reads the probe state
        d = 2
        eta = random_state(d, rng)
        pointer = random_observable(d, 2, rng)
        m = FIMM(d, d, eta, np.eye(d * d, dtype=complex), pointer)
        instr = model_instrument(m)
        for x in pointer.labels:
            w = float(np.trace(eta @ pointer[x]).real)
            assert operations_close(instr[x], Operation.from_choi(w * Operation.identity(d).choi), 1e-9)

    def test_factorized_interaction_scales_a_channel(self, rng):
        # a product interaction makes every outcome a multiple of the base
        # channel, with an identity measured observable
        d = 2
        u1, u2 = random_unitary(d, rng), random_unitary(d, rng)
        m = FIMM(
            d,
            d,
            random_state(d, rng),
            tensor_product(u1, u2),
            random_observable(d, 2, rng),
        )
        instr = model_instrument(m)
        base_channel = Operation.from_unitary(u1)
        eta_out = u2 @ m.probe_state @ u2.conj().T
        for x in m.pointer.labels:
            w = float(np.trace(eta_out @ m.pointer[x]).real)
            assert operations_close(instr[x], Operation.from_choi(w * base_channel.choi), 1e-9)
        assert classify_observable(induced_observable(instr)).identity

    def test_random_models_give_valid_instruments(self, rng):
        for t in range(5):
            m = random_fimm(2, 2 + t % 2, 2 + t % 2, rng)
            instr = model_instrument(m)
            total = sum(op.induced_effect for _, op in instr.items())
            assert frob(total - np.eye(2)) < 1e-7

    def test_probability_reproduction(self, rng):
        m = random_fimm(2, 3, 2, rng)
        instr = model_instrument(m)
        for _ in range(5):
            rho = random_state(2, rng)
            evolved = m.apply_interaction(tensor_product(rho, m.probe_state))
            for x in m.pointer.labels:
                lhs = np.trace(instr[x].apply(rho)).real
                rhs = np.trace(evolved @ tensor_product(np.eye(2), m.pointer[x])).real
                assert abs(lhs - rhs) < 1e-9

    def test_rank_deficient_pointer(self, rng):
        # A zero effect keeps one (zero) root column, a rank-2 effect two:
        # each outcome has kept columns times probe rank operators.
        d, dk = 2, 3
        v = random_unitary(dk, rng)
        b = (v * [1.0, 0.5, 0.0]) @ v.conj().T
        pointer = Observable({"zero": np.zeros((dk, dk)), "b": b, "c": np.eye(dk) - b})
        psi = random_unitary(dk, rng)[:, :2]
        m = FIMM(d, dk, (psi * [0.7, 0.3]) @ psi.conj().T, random_unitary(d * dk, rng), pointer)
        measured = model_instrument(m)
        _, keep = pointer._root_columns
        np.testing.assert_array_equal(keep.sum(1), [1, 2, 2])
        assert m._probe_root.shape == (dk, 2)
        np.testing.assert_array_equal(measured.counts, keep.sum(1) * 2)
        assert not measured.kraus[0].any()
        assert family_distance(measured, _loop_model_instrument(m)) <= 1e-12


def _matrix_unit_choi(m: FIMM) -> dict:
    """Reference Choi matrices: the model formula evaluated on every matrix
    unit of the base space, one interaction application per unit."""
    d, dk = m.dim_base, m.dim_probe
    images = {x: np.zeros((d, d, d, d), dtype=complex) for x in m.pointer.labels}
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            evolved = m.apply_interaction(tensor_product(unit, m.probe_state))
            for x in m.pointer.labels:
                weighted = evolved @ tensor_product(np.eye(d), m.pointer[x])
                images[x][i, :, j, :] = partial_trace_second(weighted, d, dk)
    return {x: c4.reshape(d * d, d * d) for x, c4 in images.items()}


class TestClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("dk", [2, 3, 4, 5])
    def test_matches_matrix_unit_formula(self, d, dk):
        rng = np.random.default_rng([d, dk])
        unitary_model = random_fimm(d, dk, 3, rng)
        channel = instr_channel(random_instrument(d * dk, 2, rng, kraus_per_outcome=1))
        choi_model = FIMM(
            d, dk, random_state(dk, rng), Operation.from_choi(channel.choi), random_observable(dk, 3, rng)
        )
        for m in (unitary_model, choi_model):
            expected = _matrix_unit_choi(m)
            instr = model_instrument(m)
            for x in m.pointer.labels:
                assert frob(instr[x].choi - expected[x]) < 1e-13

    def test_tiny_pointer_effect(self, rng):
        # 9 Kraus columns per outcome exceed d^2 = 4, and every Choi
        # eigenvalue of outcome "a" is ~1e-12
        d, dk = 2, 3
        m = FIMM(
            d,
            dk,
            np.eye(dk) / dk,
            random_unitary(d * dk, rng),
            Observable({"a": 1e-12 * np.eye(dk), "b": (1 - 1e-12) * np.eye(dk)}),
        )
        expected = _matrix_unit_choi(m)
        instr = model_instrument(m)
        for x in m.pointer.labels:
            assert frob(instr[x].choi - expected[x]) < 1e-10 * frob(expected[x])

    def test_mixed_probe_dilation_stays_atomic(self, rng):
        # a product interaction with a mixed probe gives rank-one outcomes
        # from two Kraus columns each, one of them zero
        d = 2
        m = FIMM(
            d,
            d,
            np.diag([0.7, 0.3]).astype(complex),
            tensor_product(random_unitary(d, rng), np.eye(d)),
            Observable({"a": proj([1, 0]), "b": proj([0, 1])}),
        )
        instr = model_instrument(m)
        assert [len(op.kraus_ops()) for _, op in instr.items()] == [2, 2]
        dilated = dilate_instrument(instr)
        assert dilated.dim_probe == 2
        assert classify_observable(dilated.pointer).atomic
        extracted = normal_fimm_kraus_extract(dilated)
        assert instruments_close(kraus_instrument(extracted), instr, 1e-10)
        assert instruments_close(model_instrument(dilated), instr, 1e-10)

    def test_dilation_round_trip_has_no_choi_sized_eigensolve(self, rng, eig_calls):
        d = 12
        instr = random_instrument(d, 3, rng, kraus_per_outcome=2)
        eig_calls.calls.clear()
        eig_calls.svd_calls.clear()
        out = model_instrument(dilate_instrument(instr))
        assert max(eig_calls.orders) < d * d
        assert eig_calls.calls == [(2, 3)]  # the rank test's 2 x 2 Gram matrices, one per outcome
        assert eig_calls.svd_calls == []
        assert instruments_close(out, instr, 1e-10)

    def test_one_kraus_dilation_makes_no_factorization(self, rng, eig_calls):
        instr = random_instrument(12, 3, rng, kraus_per_outcome=1)
        eig_calls.calls.clear()
        eig_calls.svd_calls.clear()
        eig_calls.qr_calls.clear()
        m = dilate_instrument(instr)
        assert eig_calls.calls == [] and eig_calls.svd_calls == [] and eig_calls.qr_calls == []
        model_instrument(m)
        assert eig_calls.calls == [] and eig_calls.svd_calls == [] and eig_calls.qr_calls == []

    def test_conditioning_extracts_each_operation_once(self, rng, eig_calls):
        d = 4
        chois = [[op.choi for _, op in random_instrument(d, m, rng).items()] for m in (2, 3)]
        eig_calls.calls.clear()
        i, j = (Instrument({str(x): Operation.from_choi(c) for x, c in enumerate(cs)}) for cs in chois)
        # one canonical extraction per input outcome, in its constructor
        assert sum(n >= d * d for n in eig_calls.orders) == len(i) + len(j)
        eig_calls.calls.clear()
        first = instr_conditioned(i, j)
        # none for the channel of ``i`` or the composed outcomes
        assert not any(n >= d * d for n in eig_calls.orders)
        again = instr_conditioned(i, j)
        assert not any(n >= d * d for n in eig_calls.orders)
        assert instruments_close(first, again, 0.0)
        channel = sum(op.choi for _, op in i.items())
        for y, jy in j.items():
            expected = np.einsum("iajc,abcd->ibjd", channel.reshape(d, d, d, d), jy.choi.reshape(d, d, d, d))
            assert frob(first[y].choi - expected.reshape(d * d, d * d)) < 1e-12


class TestTrivialFimm:
    def test_single_outcome_constant_channel(self, rng):
        eta = random_state(2, rng)
        m = trivial_fimm(eta, Observable({"0": np.eye(2)}))
        instr = model_instrument(m)
        rho = random_state(2, rng)
        np.testing.assert_allclose(instr["0"].apply(rho), eta, atol=1e-9)

    def test_qubit_pointer_z(self, rng, sharp_z):
        m = trivial_fimm(P0, sharp_z)
        instr = model_instrument(m)
        rho = random_state(2, rng)
        for x in ("0", "1"):
            expected = np.trace(rho @ sharp_z[x]) * P0
            assert frob(instr[x].apply(rho) - expected) < 1e-9

    def test_round_trip_with_trivial_instrument(self, rng):
        a = random_observable(2, 3, rng)
        alpha = random_state(2, rng)
        instr = trivial_instrument(a, alpha)
        measured = model_instrument(trivial_fimm(alpha, a))
        assert instruments_close(measured, instr, 1e-8)


class TestVonNeumannUnitary:
    def test_dim_one(self):
        np.testing.assert_allclose(von_neumann_unitary(np.eye(1), np.eye(1)), np.eye(1))

    def test_dim_two_standard_basis(self):
        u = von_neumann_unitary(np.eye(2), np.eye(2))
        e = np.eye(4)
        # basis images: |0,0> -> |0,0>, |1,0> -> |1,1>, |1,1> -> |1,0>, |0,1> -> |0,1>
        np.testing.assert_allclose(u @ e[:, 0], e[:, 0], atol=1e-12)
        np.testing.assert_allclose(u @ e[:, 2], e[:, 3], atol=1e-12)
        np.testing.assert_allclose(u @ e[:, 3], e[:, 2], atol=1e-12)
        np.testing.assert_allclose(u @ e[:, 1], e[:, 1], atol=1e-12)

    def test_involution(self, rng):
        base, probe = random_unitary(3, rng), random_unitary(3, rng)
        u = von_neumann_unitary(base, probe)
        np.testing.assert_allclose(u @ u, np.eye(9), atol=1e-9)

    def test_pairing_property(self, rng):
        base, probe = random_unitary(3, rng), random_unitary(3, rng)
        u = von_neumann_unitary(base, probe)
        for i in range(3):
            got = u @ np.kron(base[:, i], probe[:, 0])
            np.testing.assert_allclose(got, np.kron(base[:, i], probe[:, i]), atol=1e-9)


class TestVnMeasured:
    def test_atomic_pointer_measures_sharp_base(self, rng):
        base, probe = random_unitary(2, rng), random_unitary(2, rng)
        pointer = atomic_observable(probe, labels=["0", "1"])
        model = VonNeumannModel(base, probe, pointer)
        _, _, obs = vn_measured(model)
        for j, x in enumerate(pointer.labels):
            np.testing.assert_allclose(obs[x], proj(base[:, j]), atol=1e-9)
        assert classify_observable(obs).sharp

    def test_identity_pointer_measures_identity(self, rng):
        base, probe = random_unitary(2, rng), random_unitary(2, rng)
        pointer = identity_observable({"0": 0.5, "1": 0.5}, 2)
        model = VonNeumannModel(base, probe, pointer)
        _, _, obs = vn_measured(model)
        assert classify_observable(obs).identity

    def test_biased_pointer_weights(self):
        pointer = Observable({"0": np.diag([0.75, 0.25]), "1": np.diag([0.25, 0.75])})
        model = VonNeumannModel(np.eye(2, dtype=complex), np.eye(2, dtype=complex), pointer)
        _, _, obs = vn_measured(model)
        np.testing.assert_allclose(obs["0"], 0.75 * P0 + 0.25 * P1, atol=1e-10)

    def test_matches_model_instrument(self, rng):
        for _ in range(5):
            d = 2
            model = VonNeumannModel(
                random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng)
            )
            instr, channel, obs = vn_measured(model)
            direct = model_instrument(model.to_fimm())
            assert instruments_close(instr, direct, 1e-8)
            assert operations_close(instr_channel(direct), channel, 1e-8)
            assert observables_close(induced_observable(direct), obs, 1e-8)

    def test_channel_idempotent(self, rng):
        model = VonNeumannModel(random_unitary(3, rng), random_unitary(3, rng), random_observable(3, 2, rng))
        _, channel, _ = vn_measured(model)
        rho = random_state(3, rng)
        once = channel.apply(rho)
        np.testing.assert_allclose(channel.apply(once), once, atol=1e-9)


class TestVnModelForCommutative:
    def test_sharp_z_round_trip(self, sharp_z):
        model = vn_model_for_commutative(sharp_z)
        _, _, measured = vn_measured(model)
        assert observables_close(measured, sharp_z, 1e-8)
        assert classify_observable(model.pointer).sharp

    def test_identity_observable_round_trip(self):
        a = identity_observable({"0": 0.25, "1": 0.75}, 2)
        model = vn_model_for_commutative(a)
        _, _, measured = vn_measured(model)
        assert observables_close(measured, a, 1e-8)

    def test_commuting_diagonal_pair(self):
        a = Observable({"0": np.diag([0.7, 0.2]), "1": np.diag([0.3, 0.8])})
        model = vn_model_for_commutative(a)
        _, _, measured = vn_measured(model)
        assert observables_close(measured, a, 1e-8)

    def test_random_commutative_round_trip(self, rng):
        from qinstr.rand import random_commutative_observable

        for t in range(10):
            d = 2 + t % 2
            a = random_commutative_observable(d, 2 + t % 2, rng)
            model = vn_model_for_commutative(a, rng)
            _, _, measured = vn_measured(model)
            assert observables_close(measured, a, 1e-8)

    def test_noncommutative_rejected(self, rng):
        # two outcomes always commute (complements); three generally do not
        a = random_observable(2, 3, rng)
        assert not classify_observable(a).commutative
        with pytest.raises(NotCommutative):
            vn_model_for_commutative(a)


class TestDilation:
    def test_identity_channel_single_outcome(self):
        instr = kraus_instrument({"only": np.eye(2, dtype=complex)})
        m = dilate_instrument(instr)
        assert m.dim_probe == 1
        assert classify_observable(m.pointer).atomic
        assert instruments_close(model_instrument(m), instr, 1e-8)

    def test_luders_sharp_z(self, sharp_z):
        m = dilate_instrument(luders_instrument(sharp_z))
        assert m.dim_probe == 2
        assert classify_observable(m.pointer).atomic
        assert instruments_close(model_instrument(m), luders_instrument(sharp_z), 1e-8)

    def test_trivial_instrument_sharp_but_not_atomic(self):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        trivial = trivial_instrument(a, 0.5 * np.eye(2))
        for _, op in trivial.items():
            w = np.linalg.eigvalsh(op.choi)
            assert int(np.sum(w > 1e-8 * w[-1])) >= 2
        m = dilate_instrument(trivial)
        flags = classify_observable(m.pointer)
        assert flags.sharp and not flags.atomic
        assert instruments_close(model_instrument(m), trivial, 1e-7)

    def test_round_trip_random_instruments(self, rng):
        for t in range(6):
            d = 2 + t % 2
            instr = random_instrument(d, 2 + t % 3, rng)
            m = dilate_instrument(instr)
            assert instruments_close(model_instrument(m), instr, 1e-7)

    def test_round_trip_kraus_instruments(self, rng):
        for t in range(5):
            d = 2 + t % 2
            instr = random_kraus_instrument(d, 2 + t % 3, rng)
            m = dilate_instrument(instr)
            assert classify_observable(m.pointer).atomic
            assert instruments_close(model_instrument(m), instr, 1e-7)


class TestNormalExtract:
    def test_dilated_kraus_round_trip(self, rng):
        instr = random_kraus_instrument(2, 3, rng)
        m = dilate_instrument(instr)
        extracted = normal_fimm_kraus_extract(m)
        rho = random_state(2, rng)
        for x in instr.labels:
            s_orig = instr[x].kraus_ops()[0]
            s_new = extracted[x]
            assert frob(s_new.conj().T @ s_new - s_orig.conj().T @ s_orig) < 1e-8
            assert frob(s_new @ rho @ s_new.conj().T - instr[x].apply(rho)) < 1e-8

    def test_von_neumann_atomic_pointer_gives_base_projections(self, rng):
        base, probe = random_unitary(2, rng), random_unitary(2, rng)
        pointer = atomic_observable(probe, labels=["0", "1"])
        model = VonNeumannModel(base, probe, pointer)
        ops = normal_fimm_kraus_extract(model.to_fimm())
        for j, x in enumerate(pointer.labels):
            s = ops[x]
            target = proj(base[:, j])
            assert frob(s.conj().T @ s - target) < 1e-9

    def test_swap_model_rank_one_operators(self, rng):
        h = random_pure_state_vector(2, rng)
        pointer = atomic_observable(np.eye(2, dtype=complex), labels=["0", "1"])
        m = trivial_fimm(proj(h), pointer)
        ops = normal_fimm_kraus_extract(m)
        for j, x in enumerate(pointer.labels):
            expected = np.outer(h, np.eye(2)[:, j].conj())
            # phase-invariant comparison
            assert frob(ops[x].conj().T @ ops[x] - expected.conj().T @ expected) < 1e-9
            assert np.linalg.matrix_rank(ops[x], tol=1e-9) == 1

    def test_non_atomic_pointer_rejected(self):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        trivial = trivial_instrument(a, 0.5 * np.eye(2))
        m = dilate_instrument(trivial)
        with pytest.raises(NotNormal):
            normal_fimm_kraus_extract(m)

    def test_mixed_probe_rejected(self, rng, sharp_z):
        m = dilate_instrument(luders_instrument(sharp_z))
        mixed = FIMM(2, 2, 0.5 * np.eye(2), m.interaction, m.pointer)
        with pytest.raises(NotNormal):
            normal_fimm_kraus_extract(mixed)

    def test_unitary_given_as_an_operation(self, rng, sharp_z):
        # one unitary Kraus operator is a normal interaction; two are not
        m = dilate_instrument(luders_instrument(sharp_z))
        as_op = FIMM(2, 2, m.probe_state, Operation.from_unitary(m.interaction), m.pointer)
        direct, via_op = normal_fimm_kraus_extract(m), normal_fimm_kraus_extract(as_op)
        assert all(frob(direct[x] - via_op[x]) <= 1e-15 for x in direct)
        mixed = _mixed_unitary_channel(4, rng)
        with pytest.raises(NotNormal, match="interaction channel is not unitary"):
            normal_fimm_kraus_extract(FIMM(2, 2, m.probe_state, mixed, m.pointer))


class TestLudersPositivity:
    def test_dilated_luders_passes(self, rng):
        a = random_observable(2, 2, rng)
        luders = luders_instrument(a)
        m = dilate_instrument(luders)
        assert luders_positivity_check(m)
        assert instruments_close(model_instrument(m), luders, 1e-8)

    def test_scaled_pauli_fails(self):
        instr = kraus_instrument(
            {"0": PAULI_X / np.sqrt(2.0), "1": np.eye(2, dtype=complex) / np.sqrt(2.0)}
        )
        m = dilate_instrument(instr)
        assert not luders_positivity_check(m)

    def test_identity_channel_passes(self):
        instr = kraus_instrument({"only": np.eye(2, dtype=complex)})
        assert luders_positivity_check(dilate_instrument(instr))


class TestSimultaneousFimms:
    def test_marginals_and_commuting_pointers(self, rng):
        base = random_instrument(2, 4, rng)
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        from qinstr.instruments import Instrument

        joint = Instrument(dict(zip(labels, (op for _, op in base.items()))))
        i, j = marginal_instruments(joint)
        m1, m2 = simultaneous_fimms(joint)
        assert m1.sharp and m2.sharp
        for x in m1.pointer.labels:
            for y in m2.pointer.labels:
                assert frob(m1.pointer[x] @ m2.pointer[y] - m2.pointer[y] @ m1.pointer[x]) < 1e-10
        assert instruments_close(model_instrument(m1), i, 1e-7)
        assert instruments_close(model_instrument(m2), j, 1e-7)

    def test_trivial_joint_measures_trivial_instruments(self, rng):
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        c = random_observable(2, 4, rng, labels=labels)
        alpha = random_state(2, rng)
        joint = trivial_instrument(c, alpha)
        i, j = marginal_instruments(joint)
        m1, m2 = simultaneous_fimms(joint)
        assert instruments_close(model_instrument(m1), i, 1e-7)
        assert instruments_close(model_instrument(m2), j, 1e-7)
        assert instr_coexist_verify(i, j, joint)

    def test_identity_joint(self):
        from qinstr.instruments import identity_instrument

        joint = identity_instrument(
            {("0", "0"): 0.06, ("0", "1"): 0.14, ("1", "0"): 0.24, ("1", "1"): 0.56}, 2
        )
        m1, m2 = simultaneous_fimms(joint)
        meas1 = model_instrument(m1)
        meas2 = model_instrument(m2)
        from qinstr.instruments import is_identity_instrument

        assert is_identity_instrument(meas1, 1e-7)
        assert is_identity_instrument(meas2, 1e-7)


class TestSimultaneousModelsShareTheIsometry:
    """The two marginal models, and the catalog's product-pointer model, are
    dilations of the joint dilation's isometry.  The oracle is the route
    they replaced: a model on the joint dilation's completed unitary."""

    @staticmethod
    def _joints(rng):
        labels = [combine_labels(x, y) for x in "01" for y in "01"]
        for d in (2, 3):
            base = random_instrument(d, 4, rng)
            yield Instrument(zip(labels, (op for _, op in base.items())))
        yield trivial_instrument(random_observable(6, 4, rng, labels=labels), random_state(6, rng))  # full rank

    def test_no_unitary_is_completed(self, rng, eig_calls):
        for joint in self._joints(rng):
            eig_calls.qr_calls.clear()
            models_ = simultaneous_fimms(joint)
            assert eig_calls.qr_calls == []
            assert all("interaction" not in vars(m) for m in models_)

    def test_repointed_models_share_the_isometry(self, rng, eig_calls):
        from qinstr.verify import _product_pointer_model

        for joint in self._joints(rng):
            m = dilate_instrument(joint)
            eig_calls.qr_calls.clear()
            maps = models._marginal_maps(joint.labels)
            first, second = (m._repointed(nu.col_labels, nu.matrix.argmax(axis=1)[m._owner]) for nu in maps)
            repointed = [first, second, _product_pointer_model(first, second)]
            assert eig_calls.qr_calls == []
            for r in repointed:
                assert np.shares_memory(r._restricted, m._restricted)
                assert "interaction" not in vars(r) and "couplings" not in vars(r)
                assert r.dim_base == m.dim_base and np.array_equal(r.probe_state, m.probe_state)
            assert "interaction" not in vars(m)

    def test_measured_instruments_match_the_unitary_route(self, rng):
        # Not bitwise: the oracle's eigh orders the roots of a non-contiguous
        # 0/1 diagonal its own way, not by slot, and the full-rank joint's
        # outcomes are then reduced by an SVD of permuted columns.
        from qinstr.verify import _product_pointer_model

        for joint in self._joints(rng):
            m = dilate_instrument(joint)
            old = [
                FIMM._unitary(m.dim_base, m.dim_probe, m.probe_state, m.interaction, obs_post_process(nu, m.pointer))
                for nu in models._marginal_maps(joint.labels)
            ]
            new = list(simultaneous_fimms(joint))
            p1, p2 = old[0].pointer, old[1].pointer
            product = Observable({combine_labels(x, y): p1[x] @ p2[y] for x in p1.labels for y in p2.labels})
            new.append(_product_pointer_model(*new))
            old.append(FIMM._unitary(m.dim_base, m.dim_probe, m.probe_state, m.interaction, product))
            for a, b in zip(new, old):
                assert a.pointer.labels == b.pointer.labels
                np.testing.assert_array_equal(a.pointer.stack, b.pointer.stack)
                assert family_distance(model_instrument(a), model_instrument(b)) <= 1e-14


class TestFimmValidation:
    def test_dims_checked(self, rng):
        with pytest.raises(DimensionError):
            FIMM(2, 3, random_state(2, rng), np.eye(6), random_observable(3, 2, rng))

    def test_sharp_flag(self, rng, sharp_z):
        m = trivial_fimm(random_state(2, rng), sharp_z)
        assert m.sharp
        m2 = trivial_fimm(random_state(2, rng), random_observable(2, 2, rng))
        assert not m2.sharp


# Loop implementations kept as oracles for the batched model kernels.


def _loop_von_neumann_unitary(base, probe):
    d = base.shape[0]
    u = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        p_base = np.outer(base[:, i], base[:, i].conj())
        perm = np.zeros((d, d), dtype=complex)
        for j in range(d):
            tgt = i if j == 0 else (0 if j == i else j)
            perm += np.outer(probe[:, tgt], probe[:, j].conj())
        u += np.kron(p_base, perm)
    return u


def _einsum_pairing_unitary(base, probe):
    """The basis-pairing unitary from two einsum contractions: the probe
    permutations, then ``sum_i |psi_i><psi_i| (x) V_i``."""
    d = base.shape[0]
    target = np.tile(np.arange(d), (d, 1))
    target[:, 0] = np.arange(d)
    target[np.arange(1, d), np.arange(1, d)] = 0
    perms = np.einsum("aij,bj->iab", probe[:, target], probe.conj())
    return np.einsum("ai,bi,ikl->akbl", base, base.conj(), perms).reshape(d * d, d * d)


def _loop_model_instrument(m):
    return kraus_family(_loop_model_kraus(m))


def _loop_model_kraus(m):
    """``(label, Kraus operators)`` pairs, unchecked: one root factor per
    pointer effect and one Kronecker factor per outcome, with the model's own
    probe root: a von Neumann model's is ``phi_0``, whose phase an eigensolve
    of the probe state would not keep."""
    d, dk = m.dim_base, m.dim_probe
    couplings = m.interaction.kraus_ops() if isinstance(m.interaction, Operation) else [m.interaction]
    ps = [u.reshape(d, dk, d, dk).transpose(2, 0, 1, 3).reshape(d * d, dk * dk) for u in couplings]
    root_eta = m._probe_root
    ops = []
    for x in m.pointer.labels:
        factor = np.kron(root_factors(m.pointer[x].T[None])[0], root_eta)
        ops.append((x, bounded_kraus(kraus_from_vectors(np.hstack([p @ factor for p in ps]), d), d)))
    return ops


def _batched_eta_model_instrument(m):
    """``model_instrument`` forming ``W`` itself on a model's first call, with
    the probe state's root from the pointer effects' batched
    eigendecomposition; a dilation's ``W`` is its isometry.  Call it on a
    model before anything reads ``W``."""
    d, dk = m.dim_base, m.dim_probe
    transposed = m.pointer.stack.swapaxes(1, 2)
    if "_restricted" in vars(m):
        roots, w = root_factors(transposed), m._restricted
    else:
        *roots, root_eta = root_factors(np.concatenate([transposed, m.probe_state[None]]))
        w = m.couplings.reshape(-1, d * dk, d, dk) @ root_eta
    q = w.reshape(len(w), d, dk, d, -1).transpose(0, 4, 3, 1, 2).reshape(len(w), -1, d * d, dk)  # [c, s, (i, a), k]
    ops = [
        (x, bounded_kraus((q @ r).reshape(len(w), -1, d, d, r.shape[1]).transpose(0, 4, 1, 3, 2).reshape(-1, d, d), d))
        for x, r in zip(m.pointer.labels, roots)
    ]
    return kraus_family(ops)


def _loop_unit_vector(m, tol=1e-8):
    w, v = herm_eig(m)
    if w[-1] <= tol or (w.size > 1 and w[-2] > tol * max(1.0, w[-1])):
        raise NotNormal("matrix is not rank one within tolerance")
    return _phase_fix(v[:, -1:])[:, 0]


def _loop_normal_extract(m):
    """One eigensolve per pointer atom and one ``np.kron`` per base index."""
    u = m.interaction.kraus_ops()[0] if isinstance(m.interaction, Operation) else m.interaction
    try:
        phi = _loop_unit_vector(m.probe_state)
        pointer_vectors = {x: _loop_unit_vector(m.pointer[x]) for x in m.pointer.labels}
    except NotNormal as exc:
        raise NotNormal(f"model is not normal: {exc}") from exc
    d, dk = m.dim_base, m.dim_probe
    evolved = np.zeros((d, d, dk), dtype=complex)
    for i in range(d):
        unit = np.zeros(d, dtype=complex)
        unit[i] = 1.0
        evolved[i] = (u @ np.kron(unit, phi)).reshape(d, dk)
    extracted = {}
    for x, vec in pointer_vectors.items():
        s = np.zeros((d, d), dtype=complex)
        for i in range(d):
            s[:, i] = evolved[i] @ vec.conj()
        extracted[x] = s
    return extracted


def _eager_dilate_instrument(instr):
    """``dilate_instrument`` with its unitary completed at construction and
    built through the public constructors."""
    d = instr.dim
    slots = [minimal_kraus(op._kraus, d) for _, op in instr.items()]
    counts = [len(ks) for ks in slots]
    n = sum(counts)
    iso = np.concatenate(slots).transpose(1, 0, 2).reshape(d * n, d)
    iso = iso - iso @ ((iso.conj().T @ iso - np.eye(d)) / 2.0)  # one Newton-Schulz step, as dilate_instrument
    first_slot = np.arange(d * n) % n == 0
    sources = np.concatenate([np.flatnonzero(first_slot), np.flatnonzero(~first_slot)])
    interaction = np.empty((d * n, d * n), dtype=complex)
    interaction[:, sources] = complete_to_unitary(iso.T, d * n)
    eta = np.zeros((n, n), dtype=complex)
    eta[0, 0] = 1.0
    slot = np.arange(n)
    pointer = np.zeros((len(counts), n, n), dtype=complex)
    pointer[np.repeat(np.arange(len(counts)), counts), slot, slot] = 1.0
    return FIMM(d, n, eta, interaction, Observable(zip(instr.labels, pointer)))


def _mixed_unitary_channel(n, rng):
    p = float(rng.uniform(0.2, 0.8))
    return Operation.from_kraus([np.sqrt(p) * random_unitary(n, rng), np.sqrt(1 - p) * random_unitary(n, rng)])


def _oracle_models(rng):
    """Unitary, Kraus-form, Choi-only, dilated, swap and von Neumann models."""
    models = [random_fimm(d, dk, m, rng) for d, dk, m in [(1, 2, 2), (2, 2, 2), (2, 3, 3), (3, 2, 4), (2, 4, 5)]]
    for d, dk in [(2, 2), (2, 3)]:
        channel = _mixed_unitary_channel(d * dk, rng)
        pointer = random_observable(dk, 3, rng)
        models.append(FIMM(d, dk, random_state(dk, rng), channel, pointer))
        models.append(FIMM(d, dk, random_state(dk, rng), Operation.from_choi(channel.choi), pointer))
    models += [dilate_instrument(random_instrument(d, m, rng, k)) for d, m, k in [(2, 2, 1), (3, 3, 2), (4, 2, 2)]]
    models.append(trivial_fimm(random_state(3, rng), random_observable(3, 3, rng)))
    models.append(VonNeumannModel(random_unitary(3, rng), random_unitary(3, rng), random_observable(3, 3, rng)).to_fimm())
    return models


class TestBatchedKernelsAgainstLoops:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_von_neumann_unitary(self, d, rng):
        base, probe = random_unitary(d, rng), random_unitary(d, rng)
        assert frob(von_neumann_unitary(base, probe) - _loop_von_neumann_unitary(base, probe)) <= 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_pairing_unitary_matches_the_einsum_formula(self, d, rng):
        base, probe = random_unitary(d, rng), random_unitary(d, rng)
        assert frob(models._pairing_unitary(base, probe) - _einsum_pairing_unitary(base, probe)) <= 1e-14

    def test_model_instrument(self, rng):
        for m in _oracle_models(rng):
            batched, loop = model_instrument(m), _loop_model_instrument(m)
            assert batched.labels == loop.labels
            assert family_distance(batched, loop) <= 1e-12
            for x in loop.labels:
                kb, kl = np.asarray(batched[x].kraus_ops()), np.asarray(loop[x].kraus_ops())
                assert kb.shape == kl.shape and frob(kb - kl) <= 1e-12

    def test_model_instrument_matches_the_batched_eta_route(self, rng):
        for m in _oracle_models(rng):
            expected = _batched_eta_model_instrument(m)
            for _ in range(2):  # the call that forms W and one that reads it
                got = model_instrument(m)
                assert got.labels == expected.labels
                for x in expected.labels:
                    np.testing.assert_array_equal(got[x]._kraus, expected[x]._kraus)

    def test_normal_extract(self, rng):
        models = [dilate_instrument(random_kraus_instrument(d, m, rng)) for d, m in [(1, 2), (2, 2), (2, 3), (3, 4)]]
        base, probe = random_unitary(3, rng), random_unitary(3, rng)
        models.append(VonNeumannModel(base, probe, atomic_observable(probe, labels=["a", "b", "c"])).to_fimm())
        h = random_pure_state_vector(3, rng)
        models.append(trivial_fimm(proj(h), atomic_observable(random_unitary(3, rng), labels=["0", "1", "2"])))
        for m in models:
            batched, loop = normal_fimm_kraus_extract(m), _loop_normal_extract(m)
            assert list(batched) == list(loop)
            for x in loop:
                assert frob(batched[x] - loop[x]) <= 1e-12

    def test_couplings_are_the_interaction_as_one_kraus_stack(self, rng):
        for m in _oracle_models(rng):
            given = m.interaction.kraus_ops() if isinstance(m.interaction, Operation) else [m.interaction]
            np.testing.assert_array_equal(m.couplings, np.stack(given))
            assert not m.couplings.flags.writeable
            rho = random_state(m.dim_base * m.dim_probe, rng)
            assert frob(m.apply_interaction(rho) - sum(k @ rho @ k.conj().T for k in given)) <= 1e-13

    def test_normal_extract_rejections_match(self, rng, sharp_z):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        non_atomic = dilate_instrument(trivial_instrument(a, 0.5 * np.eye(2)))
        m = dilate_instrument(luders_instrument(sharp_z))
        mixed_probe = FIMM(2, 2, 0.5 * np.eye(2), m.interaction, m.pointer)
        for model in (non_atomic, mixed_probe):
            with pytest.raises(NotNormal) as batched:
                normal_fimm_kraus_extract(model)
            with pytest.raises(NotNormal) as loop:
                _loop_normal_extract(model)
            assert str(batched.value) == str(loop.value)


class TestDilationCompletedOnRead:
    @pytest.mark.parametrize("kraus", [1, 2])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_same_model_as_eager_completion(self, d, kraus, rng):
        instr = random_instrument(d, 3, rng, kraus)
        lazy, eager = dilate_instrument(instr), _eager_dilate_instrument(instr)
        assert dumps_document(lazy) == dumps_document(eager)
        np.testing.assert_array_equal(lazy.couplings, eager.couplings)
        for (x, a), (y, b) in zip(model_instrument(lazy).items(), model_instrument(eager).items()):
            assert x == y
            np.testing.assert_array_equal(a._kraus, b._kraus)

    @pytest.mark.parametrize("kraus", [1, 2])
    def test_round_trip_forms_no_pointer(self, kraus, rng):
        # A dilation is its isometry and its slot map: the round trip, the
        # repr and sharp form no (m, n, n) pointer, probe state or roots.
        instr = random_instrument(4, 3, rng, kraus)
        m = dilate_instrument(instr)
        back = model_instrument(m)
        assert family_distance(back, instr) <= 1e-13
        assert m.sharp and "FIMM(dim_base=4" in repr(m)
        for name in ("pointer", "probe_state", "interaction", "couplings"):
            assert name not in vars(m)
        labels = [combine_labels(x, y) for x in "01" for y in "01"]
        joint = random_instrument(3, 4, rng, kraus)
        for r in simultaneous_fimms(Instrument._from_kraus(labels, joint.kraus, joint.counts)):
            model_instrument(r)
            repr(r)
            assert r.sharp and not {"pointer", "probe_state"} & set(vars(r))

    def test_formed_parts_match_the_eager_model(self, rng):
        instr = random_instrument(3, 3, rng, 2)
        lazy, eager = dilate_instrument(instr), _eager_dilate_instrument(instr)
        np.testing.assert_array_equal(lazy.pointer.stack, eager.pointer.stack)
        np.testing.assert_array_equal(lazy.probe_state, eager.probe_state)
        assert lazy.pointer.labels == eager.pointer.labels and lazy.sharp == eager.sharp

    @pytest.mark.parametrize("kraus", [1, 2])
    def test_round_trip_reads_the_isometry(self, kraus, rng, eig_calls):
        instr = random_instrument(4, 3, rng, kraus)
        m = dilate_instrument(instr)
        eig_calls.calls.clear()
        eig_calls.qr_calls.clear()
        model_instrument(m)
        assert eig_calls.calls == []  # outcomes gather their slots of the isometry; the probe state's root is e_0
        assert eig_calls.qr_calls == []
        assert "interaction" not in vars(m) and "couplings" not in vars(m)

    def test_isometry_checks_run_at_dilation(self, rng, monkeypatch):
        instr = random_instrument(3, 2, rng)
        monkeypatch.setattr(models, "GRAM_FLOOR", 2.0)
        with pytest.raises(NotIsometry, match="rank deficient"):
            dilate_instrument(instr)
        monkeypatch.undo()
        monkeypatch.setattr(models, "ORTHO_TOL", -1.0)
        with pytest.raises(NotIsometry, match="not orthonormal"):
            dilate_instrument(instr)

    def test_restriction_is_formed_once_and_kept(self, rng, eig_calls):
        m = random_fimm(2, 3, 4, rng)
        assert "_restricted" not in vars(m)
        eig_calls.calls.clear()
        first = model_instrument(m)
        assert eig_calls.calls == [(3, 4), (3, 1)]  # every pointer effect, then the probe state as the model forms W
        eig_calls.calls.clear()
        again = model_instrument(m)
        assert eig_calls.calls == []  # the pointer's roots and W are kept
        assert m._restricted.shape == (1, 6, 2, 3) and not m._restricted.flags.writeable
        assert family_distance(first, again) == 0.0

    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_round_trip_gap(self, d, rng):
        for kraus in (2, 1):
            instr = random_instrument(d, 3, rng, kraus)
            m = dilate_instrument(instr)
            assert family_distance(model_instrument(m), instr) <= 7e-14  # the north-star bound
            w = m._restricted[0, :, :, 0]
            assert frob(w.conj().T @ w - np.eye(d)) <= 4e-15  # 1.8e-15 at d = 32; the eigh polish left 1.3e-14

    def test_normal_extract_reads_the_isometry(self, rng, eig_calls):
        for d, n in [(2, 2), (3, 4), (4, 3)]:
            m = dilate_instrument(random_kraus_instrument(d, n, rng))
            eig_calls.qr_calls.clear()
            extracted = normal_fimm_kraus_extract(m)
            assert eig_calls.qr_calls == []
            assert "interaction" not in vars(m) and "couplings" not in vars(m)
            for x, s in _loop_normal_extract(m).items():  # the oracle completes the unitary
                assert frob(extracted[x] - s) <= 1e-12


def _polar_factor(instr):
    """The exact polar factor ``W (W^* W)^(-1/2)`` of a dilation's stacked
    Kraus columns, from one eigensolve: the polish before the Newton-Schulz
    step."""
    d = instr.dim
    iso = np.concatenate([minimal_kraus(op._kraus, d) for _, op in instr.items()]).transpose(1, 0, 2).reshape(-1, d)
    return iso @ inverse_root(iso.conj().T @ iso)[1]


class TestIsometryPolish:
    """One Newton-Schulz step ``W (3 - G) / 2`` against the exact polar
    factor, for Gram matrices ``G`` at rounding distance from ``1`` and near
    the sum tolerances an instrument can reach a dilation with."""

    @staticmethod
    def _assert_polished(instr):
        d = instr.dim
        w = dilate_instrument(instr)._restricted[0, :, :, 0]
        assert frob(w.conj().T @ w - np.eye(d)) <= 4e-15, d
        assert frob(w - _polar_factor(instr)) <= 1e-15 * d, d

    @pytest.mark.parametrize("kraus", [1, 2])
    def test_matches_the_polar_factor(self, kraus, rng):
        for d in range(2, 33):
            self._assert_polished(random_instrument(d, 3, rng, kraus))

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_effects_missing_the_identity_by_nine_tenths_of_the_tolerance(self, d, rng):
        instr = random_instrument(d, 3, rng)
        e = hermitian_part(random_unitary(d, rng))
        e *= 0.9 * CHOI_TOL / frob(e)
        bent = Instrument._from_kraus(instr.labels, instr.kraus @ herm_sqrt(np.eye(d) + e))
        assert 0.85 * CHOI_TOL <= frob(bent.effects.sum(0) - np.eye(d)) <= CHOI_TOL
        self._assert_polished(bent)

    def test_measured_instrument_near_the_model_tolerance(self, rng):
        # A unitary off by half MODEL_TOL, given to the unchecked constructor,
        # measures a map whose effects miss the identity by about that much;
        # model_instrument completes it.
        d, dk = 3, 2
        u = random_unitary(d * dk, rng)
        e = hermitian_part(random_unitary(d * dk, rng))
        u = u @ herm_sqrt(np.eye(d * dk) + 0.5 * MODEL_TOL * e / frob(e))
        m = FIMM._unitary(d, dk, random_state(dk, rng), u, random_observable(dk, 3, rng))
        uncompleted = _loop_model_kraus(m)
        total = sum(k.conj().T @ k for _, ks in uncompleted for k in ks)
        assert 1e-8 <= frob(total - np.eye(d)) <= MODEL_TOL
        measured = model_instrument(m)
        assert frob(measured.effects.sum(0) - np.eye(d)) <= 1e-15 * d
        assert choi_distances(measured.kraus, [ks for _, ks in uncompleted]).max() <= MODEL_TOL
        self._assert_polished(measured)


class TestKnownPointerRoots:
    """A dilation, and every model re-pointed from it, knows its pointer by
    construction: the 0/1 projections onto each outcome's probe slots, whose
    roots are the identity columns of those slots."""

    @staticmethod
    def _dilations(rng):
        from qinstr.verify import _product_pointer_model

        yield dilate_instrument(random_instrument(3, 3, rng, 2))
        yield dilate_instrument(trivial_instrument(random_observable(2, 3, rng), random_state(2, rng)))  # d^2 slots per outcome
        labels = [combine_labels(x, y) for x in "01" for y in "012"]
        for joint in (
            Instrument(zip(labels, (op for _, op in random_instrument(2, 6, rng, 2).items()))),
            trivial_instrument(random_observable(3, 6, rng, labels=labels), random_state(3, rng)),
        ):
            first, second = simultaneous_fimms(joint)
            yield from (first, second, _product_pointer_model(first, second))

    def test_roots_square_to_the_pointer(self, rng):
        for m in self._dilations(rng):
            slots = m._owner == np.arange(len(m._labels))[:, None]
            np.testing.assert_array_equal(m.pointer.stack, [np.diag(s).astype(complex) for s in slots])
            f, keep = m.pointer._root_columns
            np.testing.assert_array_equal(keep.sum(1), np.maximum(slots.sum(1), 1))
            np.testing.assert_allclose(f @ f.conj().swapaxes(1, 2), m.pointer.stack, rtol=0, atol=1e-15)

    def test_model_instrument_makes_no_eigensolve(self, rng, eig_calls):
        for m in self._dilations(rng):
            eig_calls.calls.clear()
            measured = model_instrument(m)
            assert eig_calls.calls == []
            expected = _loop_model_instrument(m)  # roots from one eigensolve per pointer effect
            assert family_distance(measured, expected) <= 1e-13


class TestModelEigensolveCounts:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_model_instrument_one_batched_root_call(self, m, rng, eig_calls):
        model = random_fimm(2, 3, m, rng)
        eig_calls.calls.clear()
        model_instrument(model)
        assert eig_calls.calls == [(3, m), (3, 1)]  # every pointer effect, then the probe state as the model forms W
        eig_calls.calls.clear()
        model_instrument(model)
        assert eig_calls.calls == []  # the pointer's roots and W are kept
        dilation = dilate_instrument(random_kraus_instrument(2, m, rng))
        for _ in range(2):
            eig_calls.calls.clear()
            model_instrument(dilation)
            assert eig_calls.calls == []  # W is the isometry, gathered by the slot map

    @pytest.mark.parametrize("kraus", [1, 2])
    def test_dilate_one_qr_call(self, kraus, rng, eig_calls):
        instr = random_instrument(3, 3, rng, kraus)
        eig_calls.qr_calls.clear()
        m = dilate_instrument(instr)
        assert eig_calls.qr_calls == []  # the unitary is completed on first read
        u = m.interaction
        assert len(eig_calls.qr_calls) == 1
        assert m.interaction is u and np.shares_memory(m.couplings, u)
        assert len(eig_calls.qr_calls) == 1

    def test_fimm_construction_only_checks_the_state(self, rng, eig_calls):
        eta, u, pointer = random_state(3, rng), random_unitary(6, rng), random_observable(3, 4, rng)
        eig_calls.calls.clear()
        FIMM(2, 3, eta, u, pointer)
        assert eig_calls.calls == [(3, 1)]

    @pytest.mark.parametrize("m", [2, 4])
    def test_normal_extract_one_batched_call(self, m, rng, eig_calls):
        model = dilate_instrument(random_kraus_instrument(2, m, rng))
        eig_calls.calls.clear()
        normal_fimm_kraus_extract(model)
        assert eig_calls.calls == [(m, m + 1)]  # the probe state and every pointer effect

    @pytest.mark.parametrize("m", [2, 5])
    def test_vn_measured_roots_in_one_call(self, m, rng, eig_calls):
        model = VonNeumannModel(random_unitary(3, rng), random_unitary(3, rng), random_observable(3, m, rng))
        eig_calls.calls.clear()
        vn_measured(model)
        assert eig_calls.calls == [(3, m)]  # every pointer root; the dephasing channel is a channel by construction


class TestUnitaryByConstruction:
    @staticmethod
    def _unitary_checks(monkeypatch) -> list:
        """Shapes of the matrices ``models.is_unitary`` is asked about from now on."""
        calls = []
        original = models.is_unitary

        def counting(u, *args, **kwargs):
            calls.append(np.shape(u))
            return original(u, *args, **kwargs)

        monkeypatch.setattr(models, "is_unitary", counting)
        return calls

    def test_built_interactions_are_not_rechecked(self, rng, monkeypatch):
        instr, eta, pointer = random_instrument(2, 2, rng), random_state(3, rng), random_observable(3, 2, rng)
        vn = VonNeumannModel(random_unitary(3, rng), random_unitary(3, rng), pointer)
        calls = self._unitary_checks(monkeypatch)
        dilate_instrument(instr)
        trivial_fimm(eta, pointer)
        vn.to_fimm()  # its bases were checked when the model was built
        assert calls == []

    def test_marginal_models_are_not_rechecked(self, rng, monkeypatch):
        from qinstr.verify import _product_pointer_model

        base = random_instrument(2, 4, rng)
        joint = Instrument(zip([combine_labels(x, y) for x in "01" for y in "01"], (op for _, op in base.items())))
        calls = self._unitary_checks(monkeypatch)
        m1, m2 = simultaneous_fimms(joint)
        _product_pointer_model(m1, m2)
        assert calls == []  # the interaction is the dilation's, unitary by construction

    def test_public_constructor_still_checks(self, rng, monkeypatch):
        m = dilate_instrument(random_instrument(2, 2, rng))
        n = m.dim_base * m.dim_probe
        calls = self._unitary_checks(monkeypatch)
        FIMM(m.dim_base, m.dim_probe, m.probe_state, m.interaction, m.pointer)
        assert calls == [(n, n)]
        bad = np.array(m.interaction)
        bad[0, 0] += 1e-6
        with pytest.raises(NotIsometry):
            FIMM(m.dim_base, m.dim_probe, m.probe_state, bad, m.pointer)

    def test_bases_still_checked(self, rng):
        pointer = random_observable(2, 2, rng)
        for base, probe in ((2 * np.eye(2), np.eye(2)), (np.eye(2), np.ones((2, 2)))):
            with pytest.raises(NotIsometry):
                VonNeumannModel(base, probe, pointer)
            with pytest.raises(NotIsometry):
                von_neumann_unitary(base, probe)

    def test_same_model_as_the_public_constructor(self, rng):
        pointer = random_observable(2, 3, rng)
        built = [
            dilate_instrument(random_instrument(2, 3, rng)),
            trivial_fimm(random_state(2, rng), pointer),
            VonNeumannModel(random_unitary(2, rng), random_unitary(2, rng), pointer).to_fimm(),
        ]
        # A von Neumann model's W is its closed form, not the unitary times an
        # eigensolved probe root: 3.6e-16 apart here.
        for m, gap in zip(built, [0.0, 0.0, 1e-15]):
            public = FIMM(m.dim_base, m.dim_probe, m.probe_state, m.interaction, m.pointer)
            assert is_unitary(m.interaction) and not m.interaction.flags.writeable
            assert (m.sharp, m.dim_base, m.dim_probe) == (public.sharp, public.dim_base, public.dim_probe)
            assert np.array_equal(m.probe_state, public.probe_state) and not m.probe_state.flags.writeable
            assert family_distance(model_instrument(m), model_instrument(public)) <= gap


class TestFimmSharpFlag:
    def test_matches_classification(self, rng, sharp_z):
        pointers = [sharp_z, random_observable(2, 2, rng), random_observable(3, 4, rng)]
        pointers.append(dilate_instrument(random_instrument(2, 3, rng, 2)).pointer)
        for eps in (1e-10, 3e-9, 6e-9, 8e-9, 1e-8, 2e-8, 1e-6):
            # ||F^2 - F|| = eps (1 - eps) sqrt(2) for both effects: around SUM_TOL
            pointers.append(Observable({"0": np.diag([1.0 - eps, eps]), "1": np.diag([eps, 1.0 - eps])}))
        flags = []
        for pointer in pointers:
            m = FIMM(1, pointer.dim, np.eye(pointer.dim) / pointer.dim, np.eye(pointer.dim), pointer)
            assert m.sharp == classify_observable(pointer).sharp
            flags.append(m.sharp)
        assert any(flags[-7:]) and not all(flags[-7:])

    def test_formed_on_first_read(self, rng):
        pointer = random_observable(2, 3, rng)
        base = random_instrument(2, 4, rng)
        joint = Instrument(zip([combine_labels(x, y) for x in "01" for y in "01"], (op for _, op in base.items())))
        built = [
            FIMM(2, 2, random_state(2, rng), random_unitary(4, rng), pointer),
            trivial_fimm(random_state(2, rng), pointer),
            VonNeumannModel(random_unitary(2, rng), random_unitary(2, rng), pointer).to_fimm(),
            dilate_instrument(random_instrument(2, 3, rng)),
            *simultaneous_fimms(joint),
        ]
        for m in built:
            assert "sharp" not in vars(m)
            assert m.sharp == classify_observable(m.pointer).sharp
            assert "sharp" in vars(m)


class TestVonNeumannClosedForm:
    """A von Neumann model holds ``W`` and its probe root ``phi_0`` in closed
    form and forms its unitary on read; it shares the pointer's one
    eigendecomposition with ``vn_measured``."""

    @staticmethod
    def _model(d, rng, outcomes=3):
        return VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, outcomes, rng))

    @pytest.mark.parametrize("d, outcomes", [(2, 2), (3, 4), (5, 3)])
    def test_closed_forms_share_one_pointer_eigensolve(self, d, outcomes, rng, eig_calls):
        vn = self._model(d, rng, outcomes)
        eig_calls.calls.clear()
        vn_measured(vn)
        model_instrument(vn.to_fimm())
        assert eig_calls.calls == [(d, outcomes)]
        eig_calls.calls.clear()
        vn_measured(vn)
        model_instrument(vn.to_fimm())
        assert eig_calls.calls == []

    def test_to_fimm_makes_no_factorization_and_forms_the_unitary_on_read(self, rng, eig_calls):
        vn = self._model(4, rng)
        eig_calls.calls.clear()
        eig_calls.qr_calls.clear()
        m = vn.to_fimm()
        assert eig_calls.calls == [] and eig_calls.qr_calls == [] and eig_calls.svd_calls == []
        model_instrument(m)
        assert "interaction" not in vars(m) and "couplings" not in vars(m)
        assert np.array_equal(m.interaction, von_neumann_unitary(vn.base_basis, vn.probe_basis))
        assert m.interaction is m.interaction and not m.interaction.flags.writeable

    @pytest.mark.parametrize("d", range(1, 33))
    def test_restriction_matches_the_unitary(self, d, rng):
        vn = self._model(d, rng, 2)
        m = vn.to_fimm()
        phi0 = vn.probe_basis[:, 0]
        u = von_neumann_unitary(vn.base_basis, vn.probe_basis)
        expected = u.reshape(d * d, d, d) @ phi0  # U (1 (x) phi_0)
        np.testing.assert_array_equal(m._probe_root, phi0[:, None])
        assert frob(m._restricted[0, :, :, 0] - expected) <= 1e-15 * d  # measured at most 3.6e-15 at d = 32

    def test_documents_match_the_unitary_route(self, rng):
        for d in (1, 2, 3):
            vn = self._model(d, rng)
            phi0 = vn.probe_basis[:, 0]
            eta = hermitian_part(np.outer(phi0, phi0.conj()))
            u = von_neumann_unitary(vn.base_basis, vn.probe_basis)
            assert dumps_document(vn.to_fimm()) == dumps_document(FIMM._unitary(d, d, eta, u, vn.pointer))


class TestVonNeumannModelInput:
    def test_list_bases(self):
        pointer = Observable({"0": np.diag([0.75, 0.25]), "1": np.diag([0.25, 0.75])})
        model = VonNeumannModel([[1, 0], [0, 1]], [[1, 0], [0, 1]], pointer)
        assert model.dim == 2
        for basis in (model.base_basis, model.probe_basis):
            assert basis.dtype == complex and not basis.flags.writeable
        fimm = model.to_fimm()
        np.testing.assert_allclose(fimm.interaction, von_neumann_unitary(np.eye(2), np.eye(2)), atol=1e-15)
        np.testing.assert_allclose(fimm.probe_state, P0, atol=1e-15)
        instr, _, obs = vn_measured(model)
        np.testing.assert_allclose(obs["0"], 0.75 * P0 + 0.25 * P1, atol=1e-12)
        assert instruments_close(instr, model_instrument(fimm), 1e-10)

    def test_caller_arrays_stay_writeable_and_unshared(self, rng):
        base, probe = random_unitary(2, rng), random_unitary(2, rng)
        model = VonNeumannModel(base, probe, random_observable(2, 2, rng))
        assert base.flags.writeable and probe.flags.writeable
        kept = model.base_basis.copy()
        base[0, 0] += 1.0
        assert np.array_equal(model.base_basis, kept)

    def test_pointer_dimension_checked(self, rng):
        with pytest.raises(DimensionError):
            VonNeumannModel(np.eye(2), np.eye(2), random_observable(3, 2, rng))
