import numpy as np
import pytest

from qinstr.errors import (
    DimensionError,
    InvariantViolation,
    LabelError,
    ShapeError,
    WeightError,
)
from qinstr.linalg import frob
from qinstr.observables import (
    Observable,
    StochasticMatrix,
    atomic_observable,
    classify_observable,
    combine_labels,
    complementarity_residual,
    find_joint_observable,
    fourier_mub,
    identity_observable,
    joint_probability_then,
    label_text,
    obs_coexist_verify,
    obs_commute,
    obs_complementary,
    obs_conditioned,
    obs_convex_combo,
    obs_effect_of_subset,
    obs_post_process,
    obs_seq_product,
    obs_triple_joint,
    observables_close,
    parse_label,
)
from qinstr.rand import (
    random_observable,
    random_state,
    random_stochastic,
    random_unitary,
)

from conftest import P0, P1, P_MINUS, P_PLUS, proj


class TestObservableType:
    def test_sum_to_identity_enforced(self):
        with pytest.raises(InvariantViolation) as exc:
            Observable({"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 0.9])})
        assert exc.value.invariant == "sum-to-identity"
        assert exc.value.residual == pytest.approx(0.1, abs=1e-12)

    def test_unknown_label(self, sharp_z):
        with pytest.raises(LabelError):
            sharp_z["2"]

    def test_duplicate_label(self):
        with pytest.raises(LabelError):
            Observable([("0", 0.5 * np.eye(2)), ("0", 0.5 * np.eye(2))])

    def test_label_round_trip(self):
        assert parse_label(label_text(("a", "b"))) == ("a", "b")
        assert parse_label(label_text("a")) == "a"
        assert combine_labels("x", ("y", "z")) == ("x", "y", "z")


class TestEffectOfSubset:
    def test_empty(self, sharp_z):
        np.testing.assert_allclose(obs_effect_of_subset(sharp_z, []), np.zeros((2, 2)))

    def test_full_space(self, sharp_z):
        np.testing.assert_allclose(obs_effect_of_subset(sharp_z, ["0", "1"]), np.eye(2), atol=1e-12)

    def test_single(self, sharp_z):
        np.testing.assert_allclose(obs_effect_of_subset(sharp_z, ["0"]), P0)

    def test_unknown_label(self, sharp_z):
        with pytest.raises(LabelError):
            obs_effect_of_subset(sharp_z, ["bogus"])

    def test_repeated_label(self, sharp_z):
        with pytest.raises(LabelError, match="duplicate label"):
            obs_effect_of_subset(sharp_z, ["0", "0"])


class TestSeqProductObservable:
    def test_identity_second_factor(self, rng):
        a = random_observable(2, 2, rng)
        ident = identity_observable({"u": 0.25, "v": 0.75}, 2)
        prod = obs_seq_product(a, ident)
        for x in a.labels:
            np.testing.assert_allclose(prod[combine_labels(x, "u")], 0.25 * a[x], atol=1e-10)
            np.testing.assert_allclose(prod[combine_labels(x, "v")], 0.75 * a[x], atol=1e-10)

    def test_atomic_first_factor_is_indecomposable(self, rng):
        u = random_unitary(3, rng)
        a = atomic_observable(u)
        b = random_observable(3, 2, rng)
        prod = obs_seq_product(a, b)
        flags = classify_observable(prod)
        assert flags.indecomposable and not flags.atomic
        for j in range(3):
            for y in b.labels:
                weight = float((u[:, j].conj() @ b[y] @ u[:, j]).real)
                np.testing.assert_allclose(
                    prod[combine_labels(str(j), y)], weight * proj(u[:, j]), atol=1e-10
                )

    def test_sharp_z_with_itself(self, sharp_z):
        prod = obs_seq_product(sharp_z, sharp_z)
        np.testing.assert_allclose(prod[("0", "0")], P0, atol=1e-12)
        np.testing.assert_allclose(prod[("0", "1")], np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(prod[("1", "1")], P1, atol=1e-12)

    def test_marginals(self, rng):
        # second-factor marginal is the first observable; first-factor
        # marginal is the conditioned observable
        for t in range(100):
            d = 2 + t % 3
            a = random_observable(d, 2, rng)
            b = random_observable(d, 2, rng)
            prod = obs_seq_product(a, b)
            cond = obs_conditioned(a, b)
            for x in a.labels:
                row = sum(prod[combine_labels(x, y)] for y in b.labels)
                assert frob(row - a[x]) < 1e-8
            for y in b.labels:
                col = sum(prod[combine_labels(x, y)] for x in a.labels)
                assert frob(col - cond[y]) < 1e-8


class TestConditioned:
    def test_identity_second_is_fixed_point(self, rng):
        a = random_observable(2, 2, rng)
        ident = identity_observable({"u": 0.3, "v": 0.7}, 2)
        cond = obs_conditioned(a, ident)
        assert observables_close(cond, ident, 1e-10)

    def test_complementary_pair_randomizes(self):
        basis1, basis2 = fourier_mub(3)
        cond = obs_conditioned(atomic_observable(basis1), atomic_observable(basis2))
        for y in cond.labels:
            np.testing.assert_allclose(cond[y], np.eye(3) / 3.0, atol=1e-10)

    def test_sharp_self_conditioning(self, sharp_z):
        assert observables_close(obs_conditioned(sharp_z, sharp_z), sharp_z, 1e-10)


class TestConvexCombo:
    def test_single_weight(self, rng):
        a = random_observable(3, 2, rng)
        assert observables_close(obs_convex_combo([1.0], [a]), a, 1e-12)

    def test_identity_mixture(self):
        a = identity_observable({"0": 0.2, "1": 0.8}, 2)
        b = identity_observable({"0": 0.6, "1": 0.4}, 2)
        mix = obs_convex_combo([0.5, 0.5], [a, b])
        assert classify_observable(mix).identity

    def test_z_x_average(self, sharp_z, sharp_x):
        x_relabeled = Observable({"0": P_PLUS, "1": P_MINUS})
        mix = obs_convex_combo([0.5, 0.5], [sharp_z, x_relabeled])
        np.testing.assert_allclose(mix["0"], (P0 + P_PLUS) / 2, atol=1e-12)
        np.testing.assert_allclose(mix["1"], (P1 + P_MINUS) / 2, atol=1e-12)

    def test_bad_weights(self, rng):
        a = random_observable(2, 2, rng)
        with pytest.raises(WeightError):
            obs_convex_combo([0.4, 0.4], [a, a])


class TestPostProcess:
    def test_permutation_relabels(self, sharp_z):
        nu = StochasticMatrix(["0", "1"], ["b", "a"], [[0.0, 1.0], [1.0, 0.0]])
        out = obs_post_process(nu, sharp_z)
        np.testing.assert_allclose(out["a"], P0, atol=1e-12)
        np.testing.assert_allclose(out["b"], P1, atol=1e-12)

    def test_total_mixing(self, rng):
        b = random_observable(2, 3, rng)
        nu = StochasticMatrix(list(b.labels), ["0", "1"], np.full((3, 2), 0.5))
        out = obs_post_process(nu, b)
        for z in out.labels:
            np.testing.assert_allclose(out[z], 0.5 * np.eye(2), atol=1e-10)

    def test_identity_observable_stays_identity(self, rng):
        b = identity_observable({"0": 0.25, "1": 0.75}, 2)
        nu = random_stochastic(["0", "1"], ["p", "q", "r"], rng)
        assert classify_observable(obs_post_process(nu, b)).identity

    def test_label_mismatch(self, sharp_z):
        nu = StochasticMatrix(["a", "b"], ["0", "1"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            obs_post_process(nu, sharp_z)

    def test_row_sum_enforced(self):
        with pytest.raises(InvariantViolation):
            StochasticMatrix(["0"], ["a", "b"], [[0.5, 0.4]])


class TestClassify:
    def test_identity_observable(self):
        flags = classify_observable(identity_observable({"0": 0.5, "1": 0.5}, 2))
        assert flags.identity and not flags.atomic

    @pytest.mark.parametrize("weights", [{"0": 0.5, "1": 0.5}, {"a": 0.25, "b": 0.0, "c": 0.75}, {"only": 1.0}])
    def test_identity_observable_decides_its_range_from_its_weights(self, weights, eig_calls):
        # The effects w_x 1 have a closed-form spectrum, so building one solves
        # nothing; it is the observable the constructor builds from the same
        # effects, with the same roots and flags.
        ident = identity_observable(weights, 3)
        assert eig_calls.calls == []
        built = Observable({x: w * np.eye(3) for x, w in weights.items()})
        assert ident.labels == built.labels and np.array_equal(ident.stack, built.stack)
        assert np.abs(ident.roots - built.roots).max() <= 1e-15
        assert classify_observable(ident) == classify_observable(built)

    def test_sharp_z(self, sharp_z):
        flags = classify_observable(sharp_z)
        assert flags.atomic and flags.indecomposable and flags.commutative and flags.sharp

    def test_rank_one_not_idempotent(self):
        a = Observable({"0": 0.75 * P0, "1": 0.25 * P0 + P1})
        flags = classify_observable(a)
        assert not flags.atomic
        assert not flags.indecomposable  # second effect has rank 2
        first_only = classify_observable(Observable({"0": 0.75 * P0, "1": 0.25 * P0, "2": P1}))
        assert first_only.indecomposable and not first_only.atomic


class TestCommuteAndComplementary:
    def test_self_commutes(self, sharp_z):
        assert obs_commute(sharp_z, sharp_z)

    def test_z_x_do_not_commute(self, sharp_z, sharp_x):
        assert not obs_commute(sharp_z, sharp_x)

    def test_identity_commutes_with_anything(self, rng, sharp_z):
        assert obs_commute(sharp_z, identity_observable({"0": 0.5, "1": 0.5}, 2))

    def test_trivial_complementary(self):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        b = identity_observable({"0": 1 / 3, "1": 1 / 3, "2": 1 / 3}, 2)
        assert obs_complementary(a, b)

    def test_z_x_complementary(self, sharp_z, sharp_x):
        assert obs_complementary(sharp_z, sharp_x)

    def test_z_not_self_complementary(self, sharp_z):
        assert not obs_complementary(sharp_z, sharp_z)


class TestFourierMub:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unbiased(self, d):
        basis1, basis2 = fourier_mub(d)
        overlaps = np.abs(basis1.conj().T @ basis2) ** 2
        np.testing.assert_allclose(overlaps, np.full((d, d), 1.0 / d), atol=1e-10)
        assert frob(basis2.conj().T @ basis2 - np.eye(d)) < 1e-10

    def test_qubit_hadamard_columns(self):
        _, basis2 = fourier_mub(2)
        np.testing.assert_allclose(np.abs(basis2), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            fourier_mub(1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_atomic_pairs_complementary(self, d):
        basis1, basis2 = fourier_mub(d)
        assert complementarity_residual(atomic_observable(basis1), atomic_observable(basis2)) <= 1e-9

    def test_random_bases_not_complementary(self, rng):
        u, v = random_unitary(2, rng), random_unitary(3, rng)
        res = complementarity_residual(atomic_observable(u), atomic_observable(random_unitary(2, rng)))
        assert res >= 1e-3


class TestCoexistVerify:
    def test_commuting_product_joint(self, rng):
        u = random_unitary(3, rng)
        diag_a = np.stack([rng.dirichlet(np.ones(2)) for _ in range(3)])
        diag_b = np.stack([rng.dirichlet(np.ones(2)) for _ in range(3)])
        a = Observable({str(x): u @ np.diag(diag_a[:, x]).astype(complex) @ u.conj().T for x in range(2)})
        b = Observable({str(y): u @ np.diag(diag_b[:, y]).astype(complex) @ u.conj().T for y in range(2)})
        joint = Observable(
            {combine_labels(x, y): a[x] @ b[y] for x in a.labels for y in b.labels}
        )
        assert obs_coexist_verify(a, b, joint)

    def test_seq_product_is_joint_for_conditioned(self, rng):
        a = random_observable(2, 2, rng)
        b = random_observable(2, 2, rng)
        joint = obs_seq_product(a, b)
        assert obs_coexist_verify(a, obs_conditioned(a, b), joint)

    def test_permuted_rows_fail(self, sharp_z, sharp_x):
        joint = Observable(
            {
                ("0", "+"): 0.5 * P1,
                ("0", "-"): 0.5 * P1,
                ("1", "+"): 0.5 * P0,
                ("1", "-"): 0.5 * P0,
            }
        )
        assert not obs_coexist_verify(sharp_z, sharp_x, joint)

    def test_label_mismatch(self, sharp_z, sharp_x):
        bad = Observable({("0", "w"): np.eye(2) * 0.5, ("1", "w"): np.eye(2) * 0.5})
        with pytest.raises(LabelError):
            obs_coexist_verify(sharp_z, sharp_x, bad)


class TestTripleJoint:
    def test_identity_factors_scale(self, rng):
        a = random_observable(2, 2, rng)
        b = identity_observable({"0": 0.3, "1": 0.7}, 2)
        c = identity_observable({"0": 0.9, "1": 0.1}, 2)
        d = obs_triple_joint(a, b, c)
        for x in a.labels:
            np.testing.assert_allclose(d[(x, "0", "0")], 0.3 * 0.9 * a[x], atol=1e-10)

    def test_sharp_z_diagonal_support(self, sharp_z):
        d = obs_triple_joint(sharp_z, sharp_z, sharp_z)
        for x in ("0", "1"):
            np.testing.assert_allclose(d[(x, x, x)], sharp_z[x], atol=1e-10)
        np.testing.assert_allclose(d[("0", "1", "0")], np.zeros((2, 2)), atol=1e-10)

    def test_uniform_identity_triple_is_constant(self):
        a = identity_observable({"0": 0.5, "1": 0.5}, 2)
        b = identity_observable({"0": 1 / 3, "1": 1 / 3, "2": 1 / 3}, 2)
        c = identity_observable({"0": 0.5, "1": 0.5}, 2)
        d = obs_triple_joint(a, b, c)
        for lab in d.labels:
            np.testing.assert_allclose(d[lab], np.eye(2) / 12.0, atol=1e-10)

    def test_triple_marginals(self, rng):
        a = random_observable(2, 2, rng)
        b = random_observable(2, 2, rng)
        c = random_observable(2, 2, rng)
        d = obs_triple_joint(a, b, c)
        cond_b = obs_conditioned(a, b)
        cond_cb = obs_conditioned(a, obs_conditioned(b, c))
        for x in a.labels:
            total = sum(d[(x, y, z)] for y in b.labels for z in c.labels)
            assert frob(total - a[x]) < 1e-8
        for y in b.labels:
            total = sum(d[(x, y, z)] for x in a.labels for z in c.labels)
            assert frob(total - cond_b[y]) < 1e-8
        for z in c.labels:
            total = sum(d[(x, y, z)] for x in a.labels for y in b.labels)
            assert frob(total - cond_cb[z]) < 1e-8


class TestJointProbability:
    def test_full_sets(self, rng):
        a = random_observable(2, 2, rng)
        b = random_observable(2, 2, rng)
        rho = random_state(2, rng)
        p = joint_probability_then(rho, a, list(a.labels), b, list(b.labels))
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_complementary_scaling(self, rng):
        basis1, basis2 = fourier_mub(3)
        a, b = atomic_observable(basis1), atomic_observable(basis2)
        rho = random_state(3, rng)
        x_set, y_set = ["0", "2"], ["1"]
        p = joint_probability_then(rho, a, x_set, b, y_set)
        ax = obs_effect_of_subset(a, x_set)
        expected = (len(y_set) / 3.0) * float(np.trace(rho @ ax).real)
        assert p == pytest.approx(expected, abs=1e-10)

    def test_repeated_sharp_measurement(self, sharp_z):
        rho = P0
        assert joint_probability_then(rho, sharp_z, ["0"], sharp_z, ["0"]) == pytest.approx(1.0)

    def test_repeated_label_raises(self, sharp_z):
        # counted twice, X = {"0", "0"} gave 1.0 for rho = 1/2; the value is 1/2
        rho = 0.5 * np.eye(2)
        assert joint_probability_then(rho, sharp_z, ["0"], sharp_z, ["0"]) == pytest.approx(0.5, abs=1e-15)
        for x_set, y_set in ((["0", "0"], ["0"]), (["0"], ["1", "1"]), (["1", "0", "1"], ["0"])):
            with pytest.raises(LabelError, match="duplicate label"):
                joint_probability_then(rho, sharp_z, x_set, sharp_z, y_set)

    def test_unknown_label_raises(self, sharp_z):
        for x_set, y_set in ((["2"], ["0"]), (["0"], ["bogus"]), ([], ["bogus"])):
            with pytest.raises(LabelError):
                joint_probability_then(0.5 * np.eye(2), sharp_z, x_set, sharp_z, y_set)

    def test_sum_missing_identity_within_tolerance(self, sharp_z):
        # B misses the identity by 5e-9: a valid observable (SUM_TOL = 1e-8)
        # whose subset sum B_Y is no effect at EFFECT_EIG_TOL = 1e-9; the
        # products are, and are all that is checked
        half = 0.5 * (1 + 5e-9) * np.eye(2)
        b = Observable({"u": half, "v": half})
        assert joint_probability_then(P0, sharp_z, ["0"], b, ["u", "v"]) == 1.0
        assert joint_probability_then(P0, sharp_z, ["0"], b, ["u"]) == pytest.approx(0.5, abs=1e-8)

    def test_alternative_form(self, rng):
        from qinstr.effects import conditioned_partial_state

        a = random_observable(3, 2, rng)
        b = random_observable(3, 3, rng)
        rho = random_state(3, rng)
        x_set, y_set = [a.labels[0]], list(b.labels[:2])
        p = joint_probability_then(rho, a, x_set, b, y_set)
        by = obs_effect_of_subset(b, y_set)
        alt = sum(
            float(np.trace(conditioned_partial_state(a[x], rho) @ by).real) for x in x_set
        )
        assert p == pytest.approx(alt, abs=1e-10)


class TestAlgebraicLaws:
    def test_right_mixture_law(self, rng):
        a = random_observable(2, 2, rng)
        b1 = random_observable(2, 2, rng)
        b2 = random_observable(2, 2, rng)
        lam = 0.3
        mixed = obs_seq_product(a, obs_convex_combo([lam, 1 - lam], [b1, b2]))
        for x in a.labels:
            for y in b1.labels:
                expected = lam * obs_seq_product(a, b1)[(x, y)] + (1 - lam) * obs_seq_product(a, b2)[(x, y)]
                assert frob(mixed[(x, y)] - expected) < 1e-10

    def test_left_mixture_law_fails(self, sharp_z, sharp_x):
        x_relabeled = Observable({"0": P_PLUS, "1": P_MINUS})
        mixed = obs_convex_combo([0.5, 0.5], [sharp_z, x_relabeled])
        lhs = obs_seq_product(mixed, sharp_z)
        gap = 0.0
        for x in mixed.labels:
            for y in sharp_z.labels:
                rhs = 0.5 * obs_seq_product(sharp_z, sharp_z)[(x, y)] + 0.5 * obs_seq_product(x_relabeled, sharp_z)[(x, y)]
                gap = max(gap, frob(lhs[(x, y)] - rhs))
        assert gap >= 1e-3

    def test_postprocess_conditioning_covariance(self, rng):
        a = random_observable(2, 2, rng)
        b = random_observable(2, 3, rng)
        nu = random_stochastic(list(b.labels), ["p", "q"], rng)
        lhs = obs_conditioned(a, obs_post_process(nu, b))
        rhs = obs_post_process(nu, obs_conditioned(a, b))
        assert observables_close(lhs, rhs, 1e-10)

    def test_postprocess_first_factor_not_covariant(self, sharp_z, sharp_x):
        # post-processing the conditioning observable is not the same as
        # post-processing the conditioned observable
        nu = StochasticMatrix(["0", "1"], ["0", "1"], np.full((2, 2), 0.5))
        lhs = obs_conditioned(obs_post_process(nu, sharp_z), sharp_x)
        cond = obs_conditioned(sharp_z, sharp_x)
        nu_b = StochasticMatrix(["+", "-"], ["+", "-"], np.full((2, 2), 0.5))
        rhs = obs_post_process(nu_b, cond)
        gap = max(frob(lhs[y] - rhs[y]) for y in ("+", "-"))
        assert gap >= 1e-3

    def test_postprocess_product_reindexing(self, rng):
        # A o (nu . B) relabels the product by nu on the second factor
        a = random_observable(2, 2, rng)
        b = random_observable(2, 2, rng)
        nu = random_stochastic(list(b.labels), ["p", "q", "r"], rng)
        lhs = obs_seq_product(a, obs_post_process(nu, b))
        prod = obs_seq_product(a, b)
        for x in a.labels:
            for j, z in enumerate(nu.col_labels):
                expected = sum(nu.matrix[i, j] * prod[combine_labels(x, y)] for i, y in enumerate(nu.row_labels))
                assert frob(lhs[combine_labels(x, z)] - expected) < 1e-10

    def test_atomic_conditionings_commute(self, rng):
        u = random_unitary(3, rng)
        a = atomic_observable(u)
        b = random_observable(3, 2, rng)
        c = random_observable(3, 3, rng)
        assert obs_commute(obs_conditioned(a, b), obs_conditioned(a, c))


class TestJointSearch:
    def test_commuting_pair_found(self, rng):
        u = random_unitary(2, rng)
        diag_a = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        diag_b = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        a = Observable({str(x): u @ np.diag(diag_a[:, x]).astype(complex) @ u.conj().T for x in range(2)})
        b = Observable({str(y): u @ np.diag(diag_b[:, y]).astype(complex) @ u.conj().T for y in range(2)})
        joint = find_joint_observable(a, b)
        assert joint is not None
        assert obs_coexist_verify(a, b, joint, tol=1e-6)

    def test_commuting_pair_with_three_and_four_outcomes_found(self, rng):
        u = random_unitary(3, rng)
        diag_a, diag_b = rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(4), size=3)
        a = Observable({str(x): u @ np.diag(diag_a[:, x]).astype(complex) @ u.conj().T for x in range(3)})
        b = Observable({str(y): u @ np.diag(diag_b[:, y]).astype(complex) @ u.conj().T for y in range(4)})
        joint = find_joint_observable(a, b)
        assert joint is not None and len(joint) == 12
        assert obs_coexist_verify(a, b, joint, tol=1e-6)

    def test_sharp_incompatible_unknown(self, sharp_z, sharp_x):
        assert find_joint_observable(sharp_z, sharp_x) is None
