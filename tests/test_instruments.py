import numpy as np
import pytest

from qinstr.effects import conditioned_partial_state
from qinstr.errors import (
    DimensionError,
    InvariantViolation,
    LabelError,
    NotComplete,
    NotHermitian,
    QinstrError,
    WeightError,
)
from qinstr.instruments import (
    Instrument,
    Operation,
    compose_operations,
    ensure_channel,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_coexist_verify,
    instr_complementary,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    instruments_close,
    is_identity_instrument,
    is_single_kraus,
    joint_probability_instr,
    kraus_instrument,
    kraus_instrument_from_channel,
    luders_instrument,
    op_apply,
    operations_close,
    trivial_instrument,
    _kept,
    _kraus_vectors,
    _padded,
    _reduced,
    _then,
    choi_distances,
    minimal_kraus,
)
from qinstr.linalg import frob, herm_sqrt, hermitian_part
from qinstr.observables import (
    Observable,
    StochasticMatrix,
    combine_labels,
    fourier_mub,
    atomic_observable,
    identity_observable,
    joint_probability_then,
    obs_commute,
    obs_complementary,
    obs_conditioned,
    obs_post_process,
    obs_seq_product,
    observables_close,
)
from qinstr.rand import (
    random_instrument,
    random_kraus_instrument,
    random_observable,
    random_simplex,
    random_state,
    random_stochastic,
    random_unitary,
)

from conftest import P0, P1, P_PLUS, bounded_kraus, kraus_family, proj


class TestOperation:
    def test_apply_choi_equals_apply_kraus(self, rng):
        # fixed slot convention round trip
        for _ in range(10):
            i = random_instrument(3, 2, rng)
            rho = random_state(3, rng)
            for _, op in i.items():
                via_kraus = op.apply(rho)
                via_choi = Operation.from_choi(op.choi).apply(rho)
                assert frob(via_kraus - via_choi) < 1e-10

    def test_kraus_choi_consistency_enforced(self, rng):
        # a Choi matrix and Kraus operators that disagree are rejected: an
        # operation takes one input form, so there is no mismatch to accept
        i = random_instrument(3, 2, rng)
        for choi, kraus in ((np.eye(4), [np.eye(2)]), (i["0"].choi, i["1"].kraus_ops())):
            with pytest.raises(DimensionError, match="either a Choi matrix or Kraus operators"):
                Operation(choi, kraus=kraus)

    def test_exactly_one_input_form(self, rng):
        # a Choi matrix and Kraus operators together are rejected even when
        # they describe the same map, and so is neither
        op = random_instrument(3, 2, rng)["0"]
        for choi, kraus in ((op.choi, op.kraus_ops()), (None, None)):
            with pytest.raises(DimensionError, match="either a Choi matrix or Kraus operators"):
                Operation(choi, kraus=kraus)

    def test_choi_psd_enforced(self):
        bad = np.diag([1.0, -0.5, 0.0, 0.0])
        with pytest.raises(InvariantViolation):
            Operation.from_choi(bad)

    def test_trace_non_increasing_enforced(self):
        # Kraus input skips the Choi checks but not this one.
        for total in (2.25, 1.01):
            with pytest.raises(InvariantViolation) as exc:
                Operation.from_kraus([np.sqrt(total) * np.eye(2)])
            assert exc.value.invariant == "trace-non-increasing"
            assert exc.value.residual == pytest.approx(total - 1.0)

    def test_compose_bounds_kraus_count(self, rng):
        first = random_instrument(2, 1, rng, kraus_per_outcome=3)["0"]
        second = random_instrument(2, 1, rng, kraus_per_outcome=3)["0"]
        composed = compose_operations(second, first)
        assert len(composed.kraus_ops()) <= 4
        rho = random_state(2, rng)
        expected = second.apply(first.apply(rho))
        assert frob(composed.apply(rho) - expected) < 1e-12
        products = [t @ s for s in first.kraus_ops() for t in second.kraus_ops()]
        assert frob(composed.choi - Operation.from_kraus(products).choi) < 1e-12

    def test_compose_keeps_tiny_operations(self, rng):
        # 9 products of weight ~1e-16 exceed the bound d^2 = 4; the
        # reduction's cutoff is relative, so it keeps the whole map
        first, second = (
            Operation.from_kraus([1e-4 * k for k in op.kraus_ops()])
            for op in (random_instrument(2, 1, rng, kraus_per_outcome=3)["0"] for _ in range(2))
        )
        composed = compose_operations(second, first)
        products = [t @ s for s in first.kraus_ops() for t in second.kraus_ops()]
        expected = sum(np.outer(p.T.reshape(-1), p.T.reshape(-1).conj()) for p in products)
        assert 0 < len(composed.kraus_ops()) <= 4
        assert frob(composed.choi - expected) < 1e-10 * frob(expected)

    def test_compose_with_zero_operation(self, rng):
        zero = Operation.from_choi(np.zeros((4, 4)))
        (k,) = zero.kraus_ops()  # one zero operator, never an empty stack
        assert k.shape == (2, 2) and not np.any(k)
        assert is_single_kraus(zero) is False
        for composed in (
            compose_operations(Operation.identity(2), zero),
            compose_operations(zero, random_instrument(2, 1, rng, kraus_per_outcome=3)["0"]),
        ):
            assert composed.dim == 2
            assert frob(composed.choi) == 0.0

    def test_kraus_extraction_round_trip(self, rng):
        i = random_instrument(2, 2, rng)
        op = i["0"]
        rebuilt = Operation.from_kraus(Operation.from_choi(op.choi).kraus_ops())
        assert operations_close(op, rebuilt, 1e-10)


# Choi matrix of the identity channel on C^2: vec(1) vec(1)^*
_IDENTITY_CHOI = np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])

# (choi, kraus, error type, invariant name or None): inputs the constructor
# rejects, and the error each raises
_MALFORMED_CHOI = {
    "not-psd": (np.diag([1.0, -0.5, 0.0, 0.0]), None, InvariantViolation, "choi-positive-semidefinite"),
    "not-psd-at-scale": (np.diag([4.0, -5e-8, 0.0, 0.0]), None, InvariantViolation, "choi-positive-semidefinite"),
    "trace-increasing": (1.01 * _IDENTITY_CHOI, None, InvariantViolation, "trace-non-increasing"),
    "kraus-mismatch": (np.eye(4), [np.eye(2)], DimensionError, None),
    "kraus-wrong-dim": (_IDENTITY_CHOI, [np.eye(3)], DimensionError, None),
    "not-square-of-square": (np.eye(3), None, DimensionError, None),
    "not-square": (np.ones((4, 2)), None, DimensionError, None),
    "not-hermitian": (np.triu(np.ones((4, 4))), None, NotHermitian, None),
    "non-finite": (np.full((4, 4), np.nan), None, QinstrError, None),
}


class TestKrausFromConstruction:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_choi_input_keeps_its_matrix_and_holds_kraus_operators(self, d, rng):
        c = hermitian_part(random_instrument(d, 2, rng)["0"].choi)
        op = Operation.from_choi(c)
        assert np.array_equal(op.choi, c)
        k = op._kraus  # set by the constructor, not on first use
        assert k.shape[1:] == (d, d) and not k.flags.writeable
        v = k.transpose(2, 1, 0).reshape(d * d, -1)  # vec(K^T), one column per operator
        assert frob(v @ v.conj().T - c) <= 1e-12

    def test_observable_of_choi_loaded_operations_takes_no_eigensolve(self, rng, eig_calls):
        chois = [op.choi for _, op in random_instrument(3, 3, rng).items()]
        eig_calls.calls.clear()
        instr = Instrument({str(x): Operation.from_choi(c) for x, c in enumerate(chois)})
        # the constructors' own: one Choi eigendecomposition and one trace check each
        assert eig_calls.calls == [(9, 1), (3, 1)] * 3
        obs = induced_observable(instr)
        assert eig_calls.calls == [(9, 1), (3, 1)] * 3
        assert np.array_equal(obs.stack, instr.effects)

    @pytest.mark.parametrize("case", sorted(_MALFORMED_CHOI))
    def test_malformed_choi_is_rejected_as_before(self, case):
        choi, kraus, error, invariant = _MALFORMED_CHOI[case]
        with pytest.raises(error) as exc:
            Operation(choi, kraus=kraus)
        if invariant is not None:
            assert exc.value.invariant == invariant

    def test_tolerated_negative_eigenvalue_is_dropped_from_the_kraus_form(self):
        # -5e-9 is within the PSD tolerance atol * scale = 1e-8, so it passes
        # the check and is dropped from the Kraus form, as the zeros are
        c = np.diag([1.0, -5e-9, 0.0, 0.0])
        op = Operation.from_choi(c)
        assert np.array_equal(op.choi, c)
        (k,) = op.kraus_ops()
        assert frob(np.abs(k) - np.diag([1.0, 0.0])) == 0.0


class TestOpApply:
    def test_identity(self, rng):
        rho = random_state(2, rng)
        np.testing.assert_allclose(op_apply(Operation.identity(2), rho), rho, atol=1e-12)

    def test_luders_outcome(self, rng, sharp_z):
        rho = random_state(2, rng)
        got = op_apply(luders_instrument(sharp_z)["0"], rho)
        np.testing.assert_allclose(got, conditioned_partial_state(P0, rho), atol=1e-10)

    def test_trivial_outcome(self, rng):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        t = trivial_instrument(a, P0)
        rho = random_state(2, rng)
        np.testing.assert_allclose(op_apply(t["0"], rho), 0.5 * P0, atol=1e-10)

    def test_output_trace_matches_induced_effect(self, rng):
        i = random_instrument(3, 3, rng)
        rho = random_state(3, rng)
        for _, op in i.items():
            out = op_apply(op, rho)
            assert abs(np.trace(out).real - np.trace(rho @ op.induced_effect).real) < 1e-9


class TestInducedObservable:
    def test_luders_returns_observable(self, rng):
        a = random_observable(3, 3, rng)
        assert observables_close(induced_observable(luders_instrument(a)), a, 1e-9)

    def test_kraus_operators(self, rng):
        i = random_kraus_instrument(2, 2, rng)
        a = induced_observable(i)
        for x in i.labels:
            s = i[x].kraus_ops()[0]
            assert frob(a[x] - s.conj().T @ s) < 1e-10

    def test_identity_instrument(self):
        ident = identity_instrument({"0": 0.25, "1": 0.75}, 2)
        a = induced_observable(ident)
        np.testing.assert_allclose(a["0"], 0.25 * np.eye(2), atol=1e-10)

    def test_probability_reproducing(self, rng):
        i = random_instrument(2, 3, rng)
        a = induced_observable(i)
        for _ in range(5):
            rho = random_state(2, rng)
            for x in i.labels:
                lhs = np.trace(i[x].apply(rho)).real
                rhs = np.trace(rho @ a[x]).real
                assert abs(lhs - rhs) < 1e-9


class TestInstrumentFamilies:
    def test_luders_identity_observable_is_identity_instrument(self):
        a = identity_observable({"0": 0.25, "1": 0.75}, 2)
        assert is_identity_instrument(luders_instrument(a))

    def test_luders_sharp_z(self, rng, sharp_z):
        i = luders_instrument(sharp_z)
        rho = random_state(2, rng)
        np.testing.assert_allclose(i["0"].apply(rho), P0 @ rho @ P0, atol=1e-12)

    def test_luders_scalar_effects(self, rng):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        i = luders_instrument(a)
        rho = random_state(2, rng)
        np.testing.assert_allclose(i["0"].apply(rho), 0.5 * rho, atol=1e-12)

    def test_trivial_single_outcome_is_constant_channel(self, rng):
        alpha = random_state(2, rng)
        t = trivial_instrument(Observable({"0": np.eye(2)}), alpha)
        for _ in range(3):
            rho = random_state(2, rng)
            np.testing.assert_allclose(t["0"].apply(rho), alpha, atol=1e-10)

    def test_trivial_output_independent_of_input(self, rng):
        a = random_observable(2, 2, rng)
        alpha = random_state(2, rng)
        t = trivial_instrument(a, alpha)
        rho1, rho2 = random_state(2, rng), random_state(2, rng)
        for x in a.labels:
            out1, out2 = t[x].apply(rho1), t[x].apply(rho2)
            # outputs are proportional to alpha
            assert frob(out1 / np.trace(out1) - alpha) < 1e-9
            assert frob(out2 / np.trace(out2) - alpha) < 1e-9

    def test_trivial_induces_its_observable(self, rng):
        a = random_observable(3, 2, rng)
        t = trivial_instrument(a, random_state(3, rng))
        assert observables_close(induced_observable(t), a, 1e-9)

    def test_identity_instrument_scales(self, rng):
        ident = identity_instrument({"0": 0.5, "1": 0.5}, 2)
        rho = random_state(2, rng)
        np.testing.assert_allclose(ident["0"].apply(rho), 0.5 * rho, atol=1e-12)
        singleton = identity_instrument({"only": 1.0}, 3)
        assert ensure_channel(singleton["only"]) is singleton["only"]

    def test_identity_instrument_bad_weights(self):
        with pytest.raises(WeightError):
            identity_instrument({"0": 0.5, "1": 0.6}, 2)

    def test_kraus_instrument_luders_equivalence(self, rng):
        a = random_observable(2, 2, rng)
        i = kraus_instrument({x: herm_sqrt(a[x]) for x in a.labels})
        assert instruments_close(i, luders_instrument(a), 1e-9)

    def test_kraus_instrument_unitary_scaled(self, rng):
        u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
        i = kraus_instrument({"0": u1 / np.sqrt(2), "1": u2 / np.sqrt(2)})
        a = induced_observable(i)
        for x in i.labels:
            np.testing.assert_allclose(a[x], 0.5 * np.eye(2), atol=1e-10)

    def test_kraus_completeness_enforced(self):
        with pytest.raises(NotComplete):
            kraus_instrument({"0": np.eye(2), "1": np.eye(2)})

    def test_update_map_injective_via_mixed_state_probe(self, rng):
        # applying an outcome map to the maximally mixed state recovers the
        # observable's effect divided by the dimension, so distinct
        # observables give distinct update instruments
        d = 3
        a = random_observable(d, 3, rng)
        b = random_observable(d, 3, rng, labels=list(a.labels))
        mixed = np.eye(d, dtype=complex) / d
        for x in a.labels:
            probe = luders_instrument(a)[x].apply(mixed)
            assert frob(probe - a[x] / d) < 1e-10
        assert any(frob(a[x] - b[x]) > 1e-3 for x in a.labels)
        gap = max(
            frob(luders_instrument(a)[x].apply(mixed) - luders_instrument(b)[x].apply(mixed))
            for x in a.labels
        )
        assert gap > 1e-4


class TestSingleKraus:
    def test_luders_outcomes(self, rng):
        a = random_observable(2, 2, rng)
        assert all(is_single_kraus(op) for _, op in luders_instrument(a).items())

    def test_trivial_not_single(self):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        t = trivial_instrument(a, 0.5 * np.eye(2))
        w = np.linalg.eigvalsh(t["0"].choi)
        # four equal eigenvalues: no single Kraus operator can reproduce this
        np.testing.assert_allclose(w, np.full(4, w[0]), atol=1e-12)
        assert not is_single_kraus(t["0"])

    def test_identity_single(self):
        assert is_single_kraus(Operation.identity(3))

    def test_kraus_input_agrees_with_choi_input(self, rng, monkeypatch):
        k = random_kraus_instrument(3, 2, rng)["0"].kraus_ops()[0]
        ops = [
            [k],
            [k / 2, k / 2],  # parallel operators: still rank one
            [k, np.zeros((3, 3))],
            [k, 1e-6 * np.eye(3)],  # second Choi eigenvalue below 1e-8 of the first
            [k, 1e-3 * np.eye(3)],  # and above it
            [k / 2, np.eye(3) / 2],
            [np.zeros((3, 3))],
        ]
        kraus_form = [Operation.from_kraus(o) for o in ops]
        choi_form = [Operation.from_choi(op.choi) for op in kraus_form]
        expected = [is_single_kraus(op) for op in choi_form]
        assert expected == [True, True, True, True, False, False, False]

        def forbidden(*args, **kwargs):
            raise AssertionError("Choi eigensolve on Kraus input")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert [is_single_kraus(op) for op in kraus_form] == expected


class TestProductAndConditioned:
    def test_identity_product_scales(self, rng):
        ident = identity_instrument({"0": 0.3, "1": 0.7}, 2)
        j = random_instrument(2, 2, rng)
        prod = instr_product(ident, j)
        for x, w in (("0", 0.3), ("1", 0.7)):
            for y in j.labels:
                assert frob(prod[combine_labels(x, y)].choi - w * j[y].choi) < 1e-9

    def test_luders_product_commuting_sharp(self, sharp_z):
        prod = instr_product(luders_instrument(sharp_z), luders_instrument(sharp_z))
        for x in ("0", "1"):
            expected = Operation.from_kraus([sharp_z[x]])
            assert operations_close(prod[(x, x)], expected, 1e-10)

    def test_trivial_product_factorizes(self, rng):
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        alpha, beta = random_state(2, rng), random_state(2, rng)
        prod = instr_product(trivial_instrument(a, alpha), trivial_instrument(b, beta))
        rho = random_state(2, rng)
        for x in a.labels:
            for y in b.labels:
                got = prod[combine_labels(x, y)].apply(rho)
                expected = np.trace(rho @ a[x]) * np.trace(alpha @ b[y]) * beta
                assert frob(got - expected) < 1e-10

    def test_conditioned_on_identity(self, rng):
        ident = identity_instrument({"0": 0.3, "1": 0.7}, 2)
        j = random_instrument(2, 2, rng)
        assert instruments_close(instr_conditioned(ident, j), j, 1e-9)

    def test_identity_conditioned_on_generic(self, rng):
        ident = identity_instrument({"0": 0.3, "1": 0.7}, 2)
        j = random_instrument(2, 2, rng)
        cond = instr_conditioned(j, ident)
        jhat = instr_channel(j)
        for x, w in (("0", 0.3), ("1", 0.7)):
            assert frob(cond[x].choi - w * jhat.choi) < 1e-9

    def test_luders_conditioned_observable(self, rng):
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        cond = instr_conditioned(luders_instrument(a), luders_instrument(b))
        assert observables_close(induced_observable(cond), obs_conditioned(a, b), 1e-9)


class TestChannel:
    def test_identity_instrument_channel(self):
        ident = identity_instrument({"0": 0.5, "1": 0.5}, 2)
        assert operations_close(instr_channel(ident), Operation.identity(2), 1e-10)

    def test_trivial_channel_is_constant(self, rng):
        a = random_observable(2, 2, rng)
        alpha = random_state(2, rng)
        hat = instr_channel(trivial_instrument(a, alpha))
        rho = random_state(2, rng)
        np.testing.assert_allclose(hat.apply(rho), alpha, atol=1e-9)

    def test_luders_sharp_z_is_dephasing(self, rng, sharp_z):
        hat = instr_channel(luders_instrument(sharp_z))
        rho = random_state(2, rng)
        np.testing.assert_allclose(hat.apply(rho), P0 @ rho @ P0 + P1 @ rho @ P1, atol=1e-10)


class TestMixturesAndPostProcessing:
    def test_single_weight(self, rng):
        i = random_instrument(2, 2, rng)
        assert instruments_close(instr_convex_combo([1.0], [i]), i, 1e-12)

    def test_observable_map_is_affine(self, rng):
        parts = [random_instrument(2, 2, rng) for _ in range(3)]
        weights = random_simplex(3, rng)
        mixed = instr_convex_combo(weights, parts)
        a = induced_observable(mixed)
        for x in a.labels:
            expected = sum(w * induced_observable(p)[x] for w, p in zip(weights, parts))
            assert frob(a[x] - expected) < 1e-9

    def test_observable_map_postprocess_covariant(self, rng):
        i = random_instrument(2, 3, rng)
        nu = random_stochastic(list(i.labels), ["p", "q"], rng)
        lhs = induced_observable(instr_post_process(nu, i))
        rhs = obs_post_process(nu, induced_observable(i))
        assert observables_close(lhs, rhs, 1e-9)

    def test_postprocess_keeps_instrument_valid(self, rng):
        i = random_instrument(2, 3, rng)
        nu = random_stochastic(list(i.labels), ["p"], rng)
        out = instr_post_process(nu, i)
        assert operations_close(instr_channel(out), instr_channel(i), 1e-9)


class TestComplementarity:
    def test_mub_luders_pair(self):
        basis1, basis2 = fourier_mub(2)
        i = luders_instrument(atomic_observable(basis1))
        j = luders_instrument(atomic_observable(basis2))
        assert instr_complementary(i, j)

    def test_self_pair_not_complementary(self, sharp_z):
        i = luders_instrument(sharp_z)
        assert not instr_complementary(i, i)

    def test_trivial_over_complementary_observables(self, rng):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        b = identity_observable({"0": 1 / 3, "1": 1 / 3, "2": 1 / 3}, 2)
        alpha = random_state(2, rng)
        assert instr_complementary(trivial_instrument(a, alpha), trivial_instrument(b, alpha))

    def test_agrees_with_observable_level(self, rng):
        for _ in range(5):
            i = random_instrument(2, 2, rng)
            j = random_instrument(2, 2, rng)
            assert instr_complementary(i, j) == obs_complementary(
                induced_observable(i), induced_observable(j)
            )


class TestCoexistence:
    def test_trivial_joint_from_joint_observable(self, rng):
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        c = random_observable(2, 4, rng, labels=labels)
        alpha = random_state(2, rng)
        joint = trivial_instrument(c, alpha)
        from qinstr.models import marginal_instruments

        i, j = marginal_instruments(joint)
        assert instr_coexist_verify(i, j, joint)

    def test_identity_product_weights(self):
        joint = identity_instrument(
            {("0", "0"): 0.06, ("0", "1"): 0.14, ("1", "0"): 0.24, ("1", "1"): 0.56}, 2
        )
        i = identity_instrument({"0": 0.2, "1": 0.8}, 2)
        j = identity_instrument({"0": 0.3, "1": 0.7}, 2)
        assert instr_coexist_verify(i, j, joint)

    def test_mismatched_channels_fail(self, rng):
        a = random_observable(2, 2, rng)
        alpha, beta = random_state(2, rng), random_state(2, rng)
        i = trivial_instrument(a, alpha)
        j = trivial_instrument(a, beta)
        labels = [combine_labels(x, y) for x in i.labels for y in j.labels]
        quarter = {lab: Operation.from_choi(0.25 * instr_channel(i).choi) for lab in labels}
        joint = Instrument(quarter)
        assert not instr_coexist_verify(i, j, joint)

    def test_label_space_checked(self, rng):
        i = random_instrument(2, 2, rng)
        j = random_instrument(2, 2, rng)
        with pytest.raises(LabelError):
            instr_coexist_verify(i, j, i)

    def test_mixed_dimensions_raise(self, rng):
        i2, i3 = random_instrument(2, 2, rng), random_instrument(3, 2, rng)
        labels = [combine_labels(x, y) for x in i2.labels for y in i3.labels]
        joint = Instrument(zip(labels, (op for _, op in random_instrument(2, 4, rng).items())))
        with pytest.raises(DimensionError):
            instr_coexist_verify(i2, i3, joint)


class TestJointProbability:
    def test_full_sets(self, rng):
        i = random_instrument(2, 2, rng)
        j = random_instrument(2, 2, rng)
        rho = random_state(2, rng)
        p = joint_probability_instr(rho, i, list(i.labels), j, list(j.labels))
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_trivial_pair_factorizes(self, rng):
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        alpha, beta = random_state(2, rng), random_state(2, rng)
        i, j = trivial_instrument(a, alpha), trivial_instrument(b, beta)
        rho = random_state(2, rng)
        p = joint_probability_instr(rho, i, ["0"], j, ["1"])
        expected = np.trace(rho @ a["0"]).real * np.trace(alpha @ b["1"]).real
        assert p == pytest.approx(expected, abs=1e-10)

    def test_luders_matches_observable_joint(self, rng):
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        rho = random_state(2, rng)
        p_instr = joint_probability_instr(rho, luders_instrument(a), ["0"], luders_instrument(b), ["1"])
        p_obs = joint_probability_then(rho, a, ["0"], b, ["1"])
        assert p_instr == pytest.approx(p_obs, abs=1e-10)

    def test_repeated_label_raises(self, sharp_z):
        # counted twice, X = {"0", "0"} gave 1.0 for rho = 1/2; the value is 1/2
        i = luders_instrument(sharp_z)
        rho = 0.5 * np.eye(2)
        assert joint_probability_instr(rho, i, ["0"], i, ["0"]) == pytest.approx(0.5, abs=1e-15)
        for x_set, y_set in ((["0", "0"], ["0"]), (["0"], ["1", "1"]), (["1", "0", "1"], ["0"])):
            with pytest.raises(LabelError, match="duplicate label"):
                joint_probability_instr(rho, i, x_set, i, y_set)

    def test_unknown_label_raises(self, sharp_z):
        i = luders_instrument(sharp_z)
        for x_set, y_set in ((["2"], ["0"]), (["0"], ["bogus"]), ([], ["bogus"])):
            with pytest.raises(LabelError):
                joint_probability_instr(0.5 * np.eye(2), i, x_set, i, y_set)

    def test_sum_missing_identity_within_tolerance(self):
        # B misses the identity by 5e-9, inside the 1e-8 sum tolerance
        half = 0.5 * (1 + 5e-9) * np.eye(2)
        j = Instrument({"u": Operation.from_kraus([np.sqrt(half)]), "v": Operation.from_kraus([np.sqrt(half)])})
        assert joint_probability_instr(P0, luders_instrument(Observable({"0": P0, "1": P1})), ["0"], j, ["u", "v"]) == 1.0


def _loop_composed_kraus(second, first, dim):
    """The pairwise ``t @ s`` products, one matmul each."""
    return bounded_kraus(np.array([t @ s for s in first for t in second]), dim)


class TestComposedKraus:
    @pytest.mark.parametrize("d", range(1, 5))
    def test_matches_the_pairwise_loop(self, d, rng):
        # Ginibre stacks are not trace-non-increasing, so they go through the
        # kernel on one-outcome arrays and the cut, not compose_operations.
        from qinstr.rand import ginibre

        for r1 in range(1, 4):
            for r2 in range(1, 4):
                second = np.array([ginibre(d, rng) for _ in range(r1)]).reshape(r1, d, d)
                first = np.array([ginibre(d, rng) for _ in range(r2)]).reshape(r2, d, d)
                ops, counts = _then(first[None], np.array([r2]), second[None], np.array([r1]))
                got, expected = _reduced(ops[None], counts, d * d)[0][0], _loop_composed_kraus(second, first, d)
                assert got.shape == expected.shape and len(got) >= 1
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("r1, r2", [(1, 1), (2, 3), (3, 4), (5, 5)])
    def test_composition_is_the_one_outcome_product(self, d, r1, r2, rng):
        # Channels of r1 and r2 operators; a product above d^2 operators is cut.
        f, s = (Operation.from_kraus(random_instrument(d, 1, rng, r)["0"]._kraus) for r in (r1, r2))
        assert (len(f._kraus), len(s._kraus)) == (r1, r2) and f.is_channel() and s.is_channel()
        product = instr_product(Instrument({"a": f}), Instrument({"b": s}))
        assert np.array_equal(compose_operations(s, f)._kraus, product[combine_labels("a", "b")]._kraus)

    def test_instrument_builders_match_pairwise_products(self, rng):
        i, j = random_instrument(2, 2, rng, 3), random_instrument(2, 3, rng, 1)
        prod, cond = instr_product(i, j), instr_conditioned(i, j)
        hat = np.concatenate([op._kraus for _, op in i.items()])
        for x, ix in i.items():
            for y, jy in j.items():
                expected = _loop_composed_kraus(jy._kraus, ix._kraus, 2)
                assert np.array_equal(prod[combine_labels(x, y)]._kraus, expected)
        for y, jy in j.items():
            expected = _loop_composed_kraus(jy._kraus, bounded_kraus(hat, 2), 2)  # the channel's cut stack
            assert np.array_equal(cond[y]._kraus, expected)

    def test_from_kraus_takes_stacks_per_outcome(self, rng):
        # One zero-padded array and the counts; each outcome's operation is
        # formed on read, on a view of its operators in the array.
        ops = random_instrument(3, 3, rng, 2)
        stacks = [op._kraus for _, op in ops.items()]
        padded = np.zeros((3, 3, 3, 3), dtype=complex)
        padded[:, :2] = stacks
        by_array = Instrument._from_kraus(ops.labels, padded, [2, 2, 2])
        assert np.abs(by_array.effects - ops.effects).max() <= 1e-15
        for (_, a), k in zip(by_array.items(), stacks):
            assert np.array_equal(a._kraus, k) and np.shares_memory(a._kraus, by_array.kraus)
            assert not np.shares_memory(a._kraus, k) and not a._kraus.flags.writeable


class TestBatchedEffects:
    """``Instrument._from_kraus`` forms every outcome's effect from one batched
    Gram product of zero-padded rows; ``Operation.induced_effect`` is the
    reference, one outcome at a time."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unequal_counts_and_a_full_rank_outcome(self, d, rng):
        from qinstr.linalg import inverse_root
        from qinstr.rand import ginibre

        counts = [1, 3, 2, d * d]
        ks = np.array([ginibre(d, rng) for _ in range(sum(counts))])
        ks = ks @ inverse_root(sum(k.conj().T @ k for k in ks))[1]  # the operators of one instrument
        stacks = np.split(ks, np.cumsum(counts)[:-1])
        instr = kraus_family(zip("abcd", stacks))
        for (_, op), k, effect in zip(instr.items(), stacks, instr.effects):
            assert np.array_equal(op._kraus, k)
            assert frob(effect - Operation(kraus=k).induced_effect) <= 1e-14 * d

    @pytest.mark.parametrize("d", [1, 2, 4, 7])
    def test_one_operator_per_outcome_is_bitwise(self, d, rng):
        instr = random_kraus_instrument(d, 4, rng)
        for (_, op), effect in zip(instr.items(), instr.effects):
            np.testing.assert_array_equal(effect, Operation(kraus=op._kraus).induced_effect)


def _uneven_stacks(d, rng, counts):
    """Kraus stacks of one instrument with the given counts; a stack of
    three has a dependent third operator, so its Choi rank is two and a cut
    replaces it."""
    from qinstr.linalg import inverse_root
    from qinstr.rand import ginibre

    ks = np.array([ginibre(d, rng) for _ in range(sum(counts))])
    stacks = np.split(ks, np.cumsum(counts)[:-1])
    stacks = [np.concatenate([k[:2], (k[0] - 2j * k[1])[None]]) if len(k) == 3 else k for k in stacks]
    root = inverse_root(sum(k.conj().T @ k for s in stacks for k in s))[1]
    return [s @ root for s in stacks]


def _loop_mixture(terms, dim):
    """One outcome of a mixture, one concatenation per outcome: the
    ``sqrt(w) K`` of the ``(w, stack)`` terms of nonzero weight, cut as in
    ``bounded_kraus``."""
    kept = [np.sqrt(w) * k for w, k in terms if w > 0]
    return bounded_kraus(np.concatenate(kept) if kept else np.zeros((0, dim, dim), dtype=complex), dim)


def _assert_same_stack(got, expected, dim):
    """Bitwise equal where the oracle keeps its stack, the same map (Choi
    distance <= 1e-15) where it cuts one."""
    assert got.shape == expected.shape
    if not np.array_equal(got, expected):
        assert choi_distances([got], [expected])[0] <= 1e-15


class TestPaddedArrays:
    """An instrument is one zero-padded Kraus array and its counts; the
    combinators and the batched cut against per-outcome loops."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("limit", ["minimal", "bounded"])
    def test_batched_cut_matches_minimal_kraus(self, d, limit, rng):
        stacks = _uneven_stacks(d, rng, (2, 2, 2, 2) if d == 1 else (1, 3, 2, d * d, d * d + 2))  # above d^2 too
        instr = kraus_family(zip("abcde", stacks))
        bound = 1 if limit == "minimal" else d * d
        kraus, counts = _reduced(instr.kraus, instr.counts, bound)
        assert np.all(counts <= max(bound, d * d)) and np.all(counts >= 1)
        cuts = 0
        for x, stack in enumerate(stacks):
            expected = minimal_kraus(stack, d) if len(stack) > bound else stack
            cuts += expected is not stack
            got = kraus[x, : counts[x]]
            assert not kraus[x, counts[x] :].any()
            if expected is stack:
                np.testing.assert_array_equal(got, stack)
            else:
                assert len(expected) < len(stack) and got.shape == expected.shape
                assert choi_distances([got], [expected])[0] <= 1e-15
        assert cuts == (2 if limit == "minimal" and d > 1 else 1 if d > 1 else 4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gram_rank_test_matches_the_svd(self, d, rng):
        # An outcome of 2...d^2 operators is kept as it is exactly when the
        # SVD of its d^2 x r vector block keeps every operator (_kept).
        def draw(n):
            return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))

        k, l, e = draw(3)
        stacks = [
            draw(2),
            draw(3),
            draw(d * d),
            np.stack([k, l, k]),  # a duplicate
            np.stack([k, 2.5j * k]),  # a scaled copy
            np.stack([k, l, k + 1e-4 * e]),  # a third direction of relative weight ~1e-8: kept
            np.stack([k, l, k + 1e-6 * e]),  # ~1e-12, below KRAUS_EIG_TOL: cut
            np.zeros((3, d, d), dtype=complex),  # an all-zero outcome
            np.concatenate([draw(d * d - 3), np.stack([k, l, k - 3j * l])]),  # d^2 operators, the last dependent
            draw(1),  # one operator, padded
        ]
        counts = np.array([len(s) for s in stacks])
        kraus, reduced = _reduced(_padded(stacks), counts, 1)
        decisions = []
        for x, stack in enumerate(stacks[:-1]):
            s = np.linalg.svd(_kraus_vectors(stack), compute_uv=False)
            full = bool(_kept(s * s).sum() == len(stack))
            kept = reduced[x] == len(stack) and np.array_equal(kraus[x, : len(stack)], stack)
            assert kept == full, x
            assert reduced[x] == _kept(s * s).sum(), x
            decisions.append(full)
        assert decisions == [True, True, True, False, False, True, False, False, False]
        np.testing.assert_array_equal(kraus[-1, :1], stacks[-1])

    def test_combinators_match_the_loops(self, rng):
        d = 2
        i = kraus_family(zip("abc", _uneven_stacks(d, rng, (1, 3, 2))))
        j = kraus_family(zip("uv", _uneven_stacks(d, rng, (2, 1))))
        prod, cond = instr_product(i, j), instr_conditioned(i, j)
        hat = bounded_kraus(np.concatenate([op._kraus for _, op in i.items()]), d)
        for x, ix in i.items():
            for y, jy in j.items():
                _assert_same_stack(prod[combine_labels(x, y)]._kraus, _loop_composed_kraus(jy._kraus, ix._kraus, d), d)
        for y, jy in j.items():
            _assert_same_stack(cond[y]._kraus, _loop_composed_kraus(jy._kraus, hat, d), d)
        k = kraus_family(zip("abc", _uneven_stacks(d, rng, (2, 2, 1))))
        for w in ([0.3, 0.7], [1.0, 0.0]):
            mixed = instr_convex_combo(w, [i, k])
            for x in i.labels:
                _assert_same_stack(mixed[x]._kraus, _loop_mixture(zip(w, [i[x]._kraus, k[x]._kraus]), d), d)
        nu = StochasticMatrix(["c", "a", "b"], ["p", "q"], [[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]])
        processed = instr_post_process(nu, i)
        for col, y in enumerate(nu.col_labels):
            terms = [(nu.matrix[row, col], i[x]._kraus) for row, x in enumerate(nu.row_labels)]
            _assert_same_stack(processed[y]._kraus, _loop_mixture(terms, d), d)

    def test_luders_outcomes_are_the_roots(self, rng):
        a = random_observable(3, 4, rng)
        instr = luders_instrument(a)
        for (_, op), root in zip(instr.items(), a.roots):
            np.testing.assert_array_equal(op._kraus, root[None])

    def test_labels_length_and_effects_form_no_operation(self, rng):
        instr = random_instrument(3, 3, rng)
        assert instr.labels == ("0", "1", "2") and len(instr) == 3 and "1" in instr and "9" not in instr
        assert instr.effects.shape == (3, 3, 3) and instr.kraus.shape == (3, 2, 3, 3)
        assert instr.counts.tolist() == [2, 2, 2]
        assert "_members" not in vars(instr)
        op = instr["1"]
        assert "_members" in vars(instr) and np.shares_memory(op._kraus, instr.kraus)

    def test_array_is_read_only(self, rng):
        instr = instr_product(random_instrument(2, 2, rng), random_instrument(2, 2, rng, 1))
        assert not instr.kraus.flags.writeable and not instr.counts.flags.writeable


class TestMinimalKraus:
    def test_one_operator_stack_comes_back_without_an_svd(self, rng, eig_calls):
        for ops in (random_instrument(3, 1, rng, 1)["0"]._kraus, np.zeros((1, 3, 3), dtype=complex), np.zeros((0, 3, 3))):
            eig_calls.svd_calls.clear()
            assert minimal_kraus(ops, 3) is ops
            assert eig_calls.svd_calls == []

    def test_longer_stacks_take_one_svd(self, rng, eig_calls):
        ops = random_instrument(3, 1, rng, 2)["0"]._kraus
        eig_calls.svd_calls.clear()
        assert minimal_kraus(ops, 3) is ops  # independent operators
        doubled = np.concatenate([ops, ops]) / np.sqrt(2.0)
        cut = minimal_kraus(doubled, 3)
        assert len(cut) == 2 and frob(Operation.from_kraus(cut).choi - Operation.from_kraus(ops).choi) <= 1e-14
        assert eig_calls.svd_calls == [(9, 2), (9, 4)]


class TestKrausFromChannel:
    def test_identity_channel(self):
        split = kraus_instrument_from_channel(Operation.identity(2))
        assert len(split) == 1 and is_identity_instrument(split)

    def test_dephasing_channel(self, sharp_z):
        split = kraus_instrument_from_channel(instr_channel(luders_instrument(sharp_z)))
        assert len(split) == 2
        ops = [op.kraus_ops()[0] for _, op in split.items()]
        # operators are the basis projections up to phase
        for s in ops:
            assert frob(s @ s - s) < 1e-9 or frob(s @ s + s) < 1e-9

    def test_unitary_channel(self, rng):
        u = random_unitary(3, rng)
        split = kraus_instrument_from_channel(Operation.from_unitary(u))
        assert len(split) == 1
        s = split["k0"].kraus_ops()[0]
        # proportional to u with unimodular factor
        ratio = (s @ u.conj().T)[0, 0]
        np.testing.assert_allclose(s, ratio * u, atol=1e-9)
        assert abs(abs(ratio) - 1.0) < 1e-9

    def test_total_channel_recovered(self, rng):
        i = random_instrument(2, 2, rng)
        hat = instr_channel(i)
        split = kraus_instrument_from_channel(hat)
        assert operations_close(instr_channel(split), hat, 1e-9)


class TestIdentityObservableCompatibility:
    def test_scaled_channels_induce_identity_observable(self, rng):
        # instruments compatible with an identity observable are exactly the
        # weight-scaled families of channels
        weights = random_simplex(3, rng)
        channels = [instr_channel(random_instrument(2, 2, rng)) for _ in range(3)]
        i = Instrument(
            {str(k): Operation.from_choi(w * c.choi) for k, (w, c) in enumerate(zip(weights, channels))}
        )
        a = induced_observable(i)
        for k, w in enumerate(weights):
            assert frob(a[str(k)] - w * np.eye(2)) < 1e-9

    def test_identity_compatible_decomposes_into_channels(self, rng):
        weights = random_simplex(3, rng)
        channels = [instr_channel(random_instrument(2, 2, rng)) for _ in range(3)]
        i = Instrument(
            {str(k): Operation.from_choi(w * c.choi) for k, (w, c) in enumerate(zip(weights, channels))}
        )
        for k, w in enumerate(weights):
            rescaled = Operation.from_choi(i[str(k)].choi / w)
            assert rescaled.is_channel()


class TestCounterexamples:
    def test_update_map_not_affine(self, sharp_z, sharp_x):
        # mixing observables before taking update maps leaves cross terms
        x_relabeled = Observable({"0": P_PLUS, "1": proj([1.0, -1.0])})
        from qinstr.observables import obs_convex_combo

        mixed = obs_convex_combo([0.5, 0.5], [sharp_z, x_relabeled])
        rho = P0
        gap = 0.0
        for x in ("0", "1"):
            lhs = luders_instrument(mixed)[x].apply(rho)
            rhs = 0.5 * luders_instrument(sharp_z)[x].apply(rho) + 0.5 * luders_instrument(x_relabeled)[x].apply(rho)
            gap = max(gap, frob(lhs - rhs))
        assert gap >= 1e-2

    def test_update_map_not_postprocess_covariant(self, sharp_z):
        nu = StochasticMatrix(["0", "1"], ["0", "1"], np.full((2, 2), 0.5))
        rho = P_PLUS
        mixed = obs_post_process(nu, sharp_z)
        gap = 0.0
        for y in ("0", "1"):
            lhs = luders_instrument(mixed)[y].apply(rho)
            rhs = sum(nu.value(x, y) * luders_instrument(sharp_z)[x].apply(rho) for x in ("0", "1"))
            gap = max(gap, frob(lhs - rhs))
        assert gap >= 1e-3

    def test_product_observable_law_kraus_vs_luders(self, rng, sharp_z, sharp_x):
        # update-map instruments satisfy the product law; the unitary-scaled
        # single-operator instrument does not
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        lhs = induced_observable(instr_product(luders_instrument(a), luders_instrument(b)))
        rhs = obs_seq_product(a, b)
        assert observables_close(lhs, rhs, 1e-9)
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        i = kraus_instrument({"0": np.eye(2) / np.sqrt(2), "1": hadamard / np.sqrt(2)})
        j = luders_instrument(sharp_z)
        lhs2 = induced_observable(instr_product(i, j))
        rhs2 = obs_seq_product(induced_observable(i), induced_observable(j))
        gap = max(frob(lhs2[lab] - rhs2[lab]) for lab in lhs2.labels)
        assert gap >= 1e-3

    def test_update_multiplicative_iff_commuting(self, rng, sharp_z, sharp_x):
        u = random_unitary(2, rng)
        diag_a = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        diag_b = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        a_com = Observable({str(x): u @ np.diag(diag_a[:, x]).astype(complex) @ u.conj().T for x in range(2)})
        b_com = Observable({str(y): u @ np.diag(diag_b[:, y]).astype(complex) @ u.conj().T for y in range(2)})
        assert obs_commute(a_com, b_com)
        assert instruments_close(
            luders_instrument(obs_seq_product(a_com, b_com)),
            instr_product(luders_instrument(a_com), luders_instrument(b_com)),
            1e-9,
        )
        assert not obs_commute(sharp_z, sharp_x)
        k_joint = luders_instrument(obs_seq_product(sharp_z, sharp_x))
        k_split = instr_product(luders_instrument(sharp_z), luders_instrument(sharp_x))
        gap = max(frob(k_joint[lab].choi - k_split[lab].choi) for lab in k_joint.labels)
        assert gap >= 1e-3


class TestLemma34:
    def test_three_way_channel_agreement(self, rng):
        for _ in range(10):
            i = random_instrument(2, 2, rng)
            j = random_instrument(2, 2, rng)
            prod_hat = instr_channel(instr_product(i, j))
            cond_hat = instr_channel(instr_conditioned(i, j))
            composed = compose_operations(instr_channel(j), instr_channel(i))
            assert operations_close(prod_hat, cond_hat, 1e-9)
            assert operations_close(prod_hat, composed, 1e-9)


class TestErrors:
    def test_dimension_mismatch_product(self, rng):
        with pytest.raises(DimensionError):
            instr_product(random_instrument(2, 2, rng), random_instrument(3, 2, rng))

    def test_sum_to_channel_enforced(self):
        half = Operation.from_kraus([np.eye(2) / np.sqrt(2.0)])
        with pytest.raises(InvariantViolation):
            Instrument({"0": half})
