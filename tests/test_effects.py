import numpy as np
import pytest

from qinstr.effects import (
    CoexistenceWitness,
    _effects_spectrum,
    _marginal_projection,
    atom,
    binary_observables_from_coexistence,
    check_coexistence_witness,
    complement,
    conditioned_partial_state,
    ensure_effect,
    ensure_effects,
    ensure_partial_state,
    find_coexistence_witness,
    occurrence_probability,
    seq_product,
    seq_products,
)
from qinstr.errors import (
    DimensionError,
    InvalidWitness,
    InvariantViolation,
    ZeroVector,
)
from qinstr.linalg import EFFECT_EIG_TOL, EFFECT_ROUND_TOL, JOINT_TOL, _sandwich, ensure_hermitian, frob, herm_sqrt
from qinstr.linalg import hermitian_part, require, spectral_norm
from qinstr.observables import Observable, find_joint_observable, obs_coexist_verify
from qinstr.rand import random_commuting_effect_pair, random_effect, random_observable, random_state, random_unitary

from conftest import E1, P0, P_PLUS, PLUS


def pinv_marginal_projection(blocks, rows, cols):
    """Reference projection onto the blocks with row sums ``rows`` and column
    sums ``cols``: the least-squares correction through the pseudo-inverse
    of the bipartite incidence matrix, entry by entry."""
    m, n, d = len(rows), len(cols), rows.shape[-1]
    mat = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    proj = mat.T @ np.linalg.pinv(mat @ mat.T)
    flat = blocks.reshape(m * n, d, d)
    residual = np.einsum("ck,kij->cij", mat, flat) - np.concatenate([rows, cols])
    return (flat - np.einsum("kc,cij->kij", proj, residual)).reshape(m, n, d, d)


def busch_pair(lam):
    """Unbiased qubit effects along z and x with sharpness ``lam``, and their
    binary observables; they coexist exactly when ``lam <= 1/sqrt(2)``
    (Busch 1986)."""
    half = np.eye(2) / 2
    a, b = lam * P0 + (1 - lam) * half, lam * P_PLUS + (1 - lam) * half
    return a, b, Observable({"0": a, "1": complement(a)}), Observable({"0": b, "1": complement(b)})


def qubit_effect(t, r):
    """The qubit effect ``(t 1 + r.sigma) / 2`` of a trace ``t`` and a Bloch vector ``r``."""
    x, y, z = r
    return np.array([[t + z, x - 1j * y], [x + 1j * y, t - z]]) / 2


class TestValidation:
    def test_clamps_tiny_overshoot(self):
        e = ensure_effect(np.diag([1.0 + 5e-10, -5e-10]))
        w = np.linalg.eigvalsh(e)
        assert w[0] >= 0.0 and w[-1] <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvariantViolation) as exc:
            ensure_effect(np.diag([1.5, 0.0]))
        assert exc.value.invariant == "effect-range"


def full_eigh_ensure_effects(m):
    """Oracle of ``ensure_effects`` from one full eigendecomposition of the stack: the
    range within ``EFFECT_EIG_TOL``, then each matrix with an eigenvalue more than
    ``EFFECT_ROUND_TOL`` outside ``[0, 1]`` rebuilt from its clipped spectrum."""
    a = ensure_hermitian(m, stack=True)
    w, v = np.linalg.eigh(a)
    low, high = w[:, 0], w[:, -1]
    require("effect-range", np.maximum(-low, high - 1.0), EFFECT_EIG_TOL)
    out = (low < -EFFECT_ROUND_TOL) | (high > 1.0 + EFFECT_ROUND_TOL)
    if out.any():
        x = np.clip(w[out], 0.0, 1.0)
        a[out] = hermitian_part((v[out] * x[..., None, :]) @ v[out].conj().swapaxes(-1, -2))
    return a


def effect_with_spectrum(w, rng):
    """A random effect with the eigenvalues ``w``."""
    u = random_unitary(len(w), rng)
    return (u * np.asarray(w)) @ u.conj().T


class TestEigenvalueOnlyRangeCheck:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_stacks_match_the_full_decomposition(self, d, rng, eig_calls, monkeypatch):
        stack = np.stack([random_effect(d, rng) for _ in range(6)] + list(random_observable(d, 3, rng).stack))
        expected = full_eigh_ensure_effects(stack)
        eig_calls.calls.clear()
        # no matrix is clamped, so no eigenvector is needed
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh without a clamp"))
        assert np.array_equal(ensure_effects(stack), expected)
        assert eig_calls.calls == [(d, 9)]  # eigenvalues only, none clamped
        assert all(np.array_equal(ensure_effect(m), e) for m, e in zip(stack, expected))
        assert np.array_equal(complement(stack), np.eye(d) - expected)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_only_the_matrices_in_the_clamp_band_are_rebuilt(self, d, rng, eig_calls):
        inside = [effect_with_spectrum(np.linspace(0.1, 0.9, d), rng) for _ in range(3)]
        above = effect_with_spectrum(np.linspace(0.3, 1.0 + 1e-11, d), rng)
        below = effect_with_spectrum(np.linspace(-1e-11, 0.7, d), rng)
        stack = np.stack([inside[0], above, inside[1], below, inside[2]])
        expected = full_eigh_ensure_effects(stack)
        eig_calls.calls.clear()
        out = ensure_effects(stack)
        assert np.array_equal(out, expected)
        assert eig_calls.calls == [(d, 5), (d, 2)]  # eigenvalues of all, then the two to clamp
        assert [np.array_equal(out[k], hermitian_part(stack[k])) for k in range(5)] == [True, False, True, False, True]
        w = np.linalg.eigvalsh(out)
        assert w.min() >= -1e-15 and w.max() <= 1.0 + 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_a_miss_of_2e_9_raises_the_full_decompositions_residual(self, d, rng):
        stack = np.stack(
            [
                effect_with_spectrum(np.linspace(0.1, 0.9, d), rng),
                effect_with_spectrum(np.linspace(0.2, 1.0 + 2e-9, d), rng),
                effect_with_spectrum(np.linspace(-1e-11, 0.5, d), rng),
                effect_with_spectrum(np.linspace(0.0, 1.0 + 1e-3, d), rng),
            ]
        )
        with pytest.raises(InvariantViolation) as oracle:
            full_eigh_ensure_effects(stack)
        with pytest.raises(InvariantViolation) as exc:
            ensure_effects(stack)
        assert exc.value.invariant == oracle.value.invariant == "effect-range"
        assert exc.value.residual == oracle.value.residual
        assert abs(exc.value.residual - 2e-9) < 1e-14

    @pytest.mark.parametrize("top", [0.9, 1.0 + 1e-11])
    def test_a_kept_spectrum_is_the_full_decomposition(self, top, rng):
        stack = np.stack([effect_with_spectrum(np.linspace(0.1, top, 3), rng), random_effect(3, rng)])
        a, spectrum = _effects_spectrum(stack)
        assert np.array_equal(a, full_eigh_ensure_effects(stack))
        if top < 1.0:
            w, v = np.linalg.eigh(hermitian_part(stack))
            assert np.array_equal(spectrum[0], w) and np.array_equal(spectrum[1], v)
        else:
            assert spectrum is None  # a clamped matrix keeps no spectrum

    @pytest.mark.parametrize("top", [0.9, 1.0 + 1e-11])
    def test_the_first_effects_root_is_read_off_its_range_check(self, top, rng, eig_calls):
        a = effect_with_spectrum(np.linspace(0.1, top, 3), rng)
        b, rho = random_effect(3, rng), random_state(3, rng)
        product = seq_products(herm_sqrt(ensure_effect(a))[None], ensure_effect(b)[None])[0, 0]
        conditioned = hermitian_part(_sandwich(herm_sqrt(ensure_effect(a))[None], ensure_partial_state(rho)))
        eig_calls.calls.clear()
        assert np.array_equal(seq_product(a, b), product)
        # a's range check (kept), b's and the product's (eigenvalues only), and a
        # clamped a's root solved again
        assert len(eig_calls.calls) == (3 if top < 1.0 else 4)
        eig_calls.calls.clear()
        assert np.array_equal(conditioned_partial_state(a, rho), conditioned)
        assert len(eig_calls.calls) == (2 if top < 1.0 else 3)


class TestAtom:
    def test_basis_vector(self):
        np.testing.assert_allclose(atom(E1), np.diag([1.0, 0.0]))

    def test_superposition(self):
        np.testing.assert_allclose(atom(PLUS), np.full((2, 2), 0.5), atol=1e-12)

    def test_complex_phase(self):
        got = atom(np.array([1.0, 1j]) / np.sqrt(2.0))
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            atom(np.zeros(2))


class TestSeqProduct:
    def test_scalar_first_factor(self, rng):
        b = random_effect(3, rng)
        np.testing.assert_allclose(seq_product(0.5 * np.eye(3), b), 0.5 * b, atol=1e-12)

    def test_projection_idempotent(self):
        np.testing.assert_allclose(seq_product(P0, P0), P0, atol=1e-12)

    def test_atoms_closed_form(self, rng):
        # a o b = |<alpha, beta>|^2 |alpha><alpha| for atoms
        for _ in range(10):
            alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            beta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            alpha, beta = alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta)
            got = seq_product(atom(alpha), atom(beta))
            expected = abs(np.vdot(alpha, beta)) ** 2 * atom(alpha)
            assert frob(got - expected) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            seq_product(np.eye(2), np.eye(3))

    def test_output_is_valid_effect(self, rng):
        # 200 random pairs, dims 2-4
        for t in range(200):
            d = 2 + t % 3
            out = seq_product(random_effect(d, rng), random_effect(d, rng))
            w = np.linalg.eigvalsh(out)
            assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9

    def test_non_associativity_closed_form(self):
        # a = P_e1, b = P_plus, c = P_e1: the two parenthesizations differ by 1/4
        a, b, c = atom(E1), atom(PLUS), atom(E1)
        left = seq_product(a, seq_product(b, c))
        right = seq_product(seq_product(a, b), c)
        np.testing.assert_allclose(left, 0.25 * P0, atol=1e-12)
        np.testing.assert_allclose(right, 0.5 * P0, atol=1e-12)
        assert abs(frob(right - left) - 0.25) < 1e-12
        assert abs(spectral_norm(right - left) - 0.25) < 1e-12

    def test_affine_in_second_argument(self, rng):
        for _ in range(20):
            a = random_effect(3, rng)
            b1, b2 = random_effect(3, rng), random_effect(3, rng)
            lam = rng.uniform()
            lhs = seq_product(a, lam * b1 + (1 - lam) * b2)
            rhs = lam * seq_product(a, b1) + (1 - lam) * seq_product(a, b2)
            assert frob(lhs - rhs) < 1e-10


class TestComplement:
    def test_zero(self):
        np.testing.assert_allclose(complement(np.zeros((2, 2))), np.eye(2))

    def test_half_identity(self):
        np.testing.assert_allclose(complement(0.5 * np.eye(2)), 0.5 * np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(complement(np.diag([0.3, 0.9])), np.diag([0.7, 0.1]), atol=1e-12)

    def test_sums_to_identity(self, rng):
        a = random_effect(4, rng)
        np.testing.assert_allclose(a + complement(a), np.eye(4), rtol=0.0, atol=1e-15)


class TestOccurrenceProbability:
    def test_identity_effect(self, rng):
        assert occurrence_probability(random_state(3, rng), np.eye(3)) == pytest.approx(1.0)

    def test_diagonal_pickoff(self):
        assert occurrence_probability(P0, np.diag([0.3, 0.9])) == pytest.approx(0.3)

    def test_maximally_mixed(self):
        assert occurrence_probability(0.5 * np.eye(2), P_PLUS) == pytest.approx(0.5)

    def test_matches_conditioned_trace(self, rng):
        for _ in range(20):
            rho, a = random_state(3, rng), random_effect(3, rng)
            cond = conditioned_partial_state(a, rho)
            assert abs(np.trace(cond).real - occurrence_probability(rho, a)) < 1e-10


class TestConditionedPartialState:
    def test_identity_effect(self, rng):
        rho = random_state(2, rng)
        np.testing.assert_allclose(conditioned_partial_state(np.eye(2), rho), rho, atol=1e-12)

    def test_projection_on_mixed(self):
        got = conditioned_partial_state(P0, 0.5 * np.eye(2))
        np.testing.assert_allclose(got, 0.5 * np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_effect(self, rng):
        rho = random_state(2, rng)
        np.testing.assert_allclose(conditioned_partial_state(0.5 * np.eye(2), rho), 0.5 * rho, atol=1e-12)


class TestCoexistenceWitness:
    def test_commuting_pair_witness(self, rng):
        for _ in range(10):
            a, b = random_commuting_effect_pair(3, rng)
            ab = ensure_effect(hermitian_part(a @ b))
            w = CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab)
            assert check_coexistence_witness(a, b, w)

    def test_half_identity(self):
        half = 0.5 * np.eye(2)
        w = CoexistenceWitness(a1=np.zeros((2, 2)), b1=np.zeros((2, 2)), c=half)
        assert check_coexistence_witness(half, half, w)

    def test_wrong_sums_rejected(self):
        eye = np.eye(2)
        w = CoexistenceWitness(a1=np.zeros((2, 2)), b1=np.zeros((2, 2)), c=np.zeros((2, 2)))
        assert not check_coexistence_witness(eye, eye, w)


class TestBinaryJointObservable:
    def test_half_identity(self):
        half = 0.5 * np.eye(2)
        zero = np.zeros((2, 2))
        joint = binary_observables_from_coexistence(half, half, CoexistenceWitness(zero, zero, half))
        np.testing.assert_allclose(joint[("1", "1")], half, atol=1e-12)
        np.testing.assert_allclose(joint[("1", "2")], zero, atol=1e-12)
        np.testing.assert_allclose(joint[("2", "2")], half, atol=1e-12)

    def test_identity_effects(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        joint = binary_observables_from_coexistence(eye, eye, CoexistenceWitness(zero, zero, eye))
        np.testing.assert_allclose(joint[("1", "1")], eye, atol=1e-12)
        np.testing.assert_allclose(joint[("2", "2")], zero, atol=1e-12)

    def test_marginals_commuting_diagonals(self):
        a, b = np.diag([0.5, 0.2]).astype(complex), np.diag([0.4, 0.8]).astype(complex)
        ab = a @ b
        joint = binary_observables_from_coexistence(a, b, CoexistenceWitness(a - ab, b - ab, ab))
        np.testing.assert_allclose(joint[("1", "1")] + joint[("1", "2")], a, atol=1e-8)
        np.testing.assert_allclose(joint[("1", "1")] + joint[("2", "1")], b, atol=1e-8)

    def test_invalid_witness_rejected(self):
        eye, zero = np.eye(2), np.zeros((2, 2))
        with pytest.raises(InvalidWitness):
            binary_observables_from_coexistence(eye, eye, CoexistenceWitness(zero, zero, zero))


class TestCoexistenceSearch:
    def test_finds_witness_for_commuting_pair(self, rng):
        a, b = random_commuting_effect_pair(2, rng)
        w = find_coexistence_witness(a, b)
        assert w is not None
        assert check_coexistence_witness(a, b, w)

    def test_unknown_for_incompatible_projections(self):
        # Distinct rank-one projections cannot coexist; search must not claim
        # a witness, and "None" only ever means unknown.
        assert find_coexistence_witness(P0, P_PLUS) is None

    def test_marginal_projection_matches_the_pinv_oracle(self, rng):
        def herm(*shape):
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return g + g.conj().swapaxes(-1, -2)

        for m in range(1, 5):
            for n in range(1, 5):
                for d in range(1, 5):
                    blocks, rows, cols = herm(m, n, d, d), herm(m, d, d), herm(n, d, d)
                    cols[-1] += rows.sum(0) - cols.sum(0)  # equal totals
                    defects = np.concatenate([blocks.sum(1) - rows, blocks.sum(0) - cols])
                    got = _marginal_projection(blocks, defects)
                    oracle = pinv_marginal_projection(blocks, rows, cols)
                    scale = np.abs(oracle).max()
                    assert np.abs(got - oracle).max() <= 1e-13 * scale
                    assert np.abs(got.sum(1) - rows).max() <= 1e-13 * scale
                    assert np.abs(got.sum(0) - cols).max() <= 1e-13 * scale

    @pytest.mark.parametrize("lam", [0.5, 0.55, 0.6, 0.65, 0.7, 0.7071])
    def test_busch_pair_below_the_bound_found(self, lam):
        a, b, oa, ob = busch_pair(lam)
        w = find_coexistence_witness(a, b)
        assert w is not None and check_coexistence_witness(a, b, w)
        joint = find_joint_observable(oa, ob)
        assert joint is not None and obs_coexist_verify(oa, ob, joint, tol=JOINT_TOL)

    @pytest.mark.parametrize("lam", [0.708, 0.72, 0.75, 0.8, 0.85, 0.9])
    def test_busch_pair_above_the_bound_unknown(self, lam):
        # No joint exists above 1/sqrt(2), so any answer but None is a bug.
        a, b, oa, ob = busch_pair(lam)
        assert find_coexistence_witness(a, b) is None
        assert find_joint_observable(oa, ob) is None

    # Biased qubit pairs (t, r, s, q): a = (t 1 + r.sigma) / 2, b = (s 1 + q.sigma) / 2,
    # and whether they coexist.  The first six lie well away from the boundary of
    # the qubit criterion (Yu, Liu, Li and Oh, PRA 81, 062116, 2010): with both
    # Bloch vectors scaled by 1.15 the first four still coexist, and with both
    # scaled by 1 / 1.15 the fifth and sixth still do not.  The last coexists
    # within 7 % of the boundary (NEAR_BOUNDARY).
    BIASED = [
        (0.8, (0.0, 0.0, 0.5), 1.2, (0.5, 0.0, 0.0), True),
        (0.6, (0.3, 0.0, 0.2), 0.9, (0.0, 0.4, 0.1), True),
        (1.2, (0.0, 0.0, 0.6), 0.7, (0.3, 0.4, 0.0), True),
        (0.5, (0.2, 0.1, 0.3), 1.4, (0.1, 0.5, 0.0), True),
        (1.2, (0.0, 0.0, 0.78), 0.9, (0.85, 0.0, 0.0), False),
        (0.9, (0.0, 0.1, 0.85), 1.0, (0.9, 0.0, 0.0), False),
        (1.1793, (0.0969, 0.1907, -0.0317), 0.5216, (-0.2808, 0.2282, -0.3346), True),
    ]

    # Coexistent biased qubit pairs near the boundary, where the alternating
    # projections converge slowly: 500 rounds do not reach the witness stop,
    # 1,000 do, so they pin the witness search's 2,000-round budget.  With both
    # Bloch vectors scaled by 1.07 (the first) or 1.05 (the second) the search
    # finds no witness in 8,000 rounds.
    NEAR_BOUNDARY = [
        (1.1793, (0.0969, 0.1907, -0.0317), 0.5216, (-0.2808, 0.2282, -0.3346)),
        (0.3788, (0.3349, 0.0926, 0.1155), 0.8737, (0.3177, 0.3276, 0.2733)),
    ]

    @pytest.mark.parametrize("t, r, s, q", NEAR_BOUNDARY)
    def test_biased_pair_near_the_boundary_found(self, t, r, s, q):
        a, b = qubit_effect(t, r), qubit_effect(s, q)
        w = find_coexistence_witness(a, b)
        assert w is not None and check_coexistence_witness(a, b, w)

    @pytest.mark.parametrize("t, r, s, q, coexist", BIASED)
    def test_biased_qubit_pairs_get_one_answer_from_both_searches(self, t, r, s, q, coexist):
        a, b = qubit_effect(t, r), qubit_effect(s, q)
        w = find_coexistence_witness(a, b)
        oa, ob = (Observable({"1": e, "2": complement(e)}) for e in (a, b))
        joint = find_joint_observable(oa, ob)
        assert (w is not None) is (joint is not None) is coexist
        if coexist:
            assert check_coexistence_witness(a, b, w) and obs_coexist_verify(oa, ob, joint, tol=JOINT_TOL)
