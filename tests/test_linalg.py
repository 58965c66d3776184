import numpy as np
import pytest

from qinstr.errors import DimensionError, NotHermitian, NotIsometry, NotPositiveSemidefinite, QinstrError, ZeroVector
from qinstr.linalg import (
    RANK_TOL,
    _phase_fix,
    complete_to_unitary,
    frob,
    herm_eig,
    herm_sqrt,
    inverse_root,
    matrices_close,
    partial_trace_first,
    partial_trace_second,
    psd_part,
    root_factors,
    tensor_product,
)
from qinstr.models import swap_unitary
from qinstr.rand import ginibre, random_psd

from conftest import E1, E2, P_MINUS, P_PLUS, PAULI_X, proj


class TestHermEig:
    def test_identity(self):
        w, v = herm_eig(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])
        assert frob(v.conj().T @ v - np.eye(2)) < 1e-9

    def test_diagonal(self):
        w, _ = herm_eig(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(w, [0.25, 0.75])

    def test_pauli_x(self):
        w, v = herm_eig(PAULI_X)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, PAULI_X, atol=1e-9)

    def test_reconstruction_random(self, rng):
        for d in range(2, 7):
            m = random_psd(d, rng)
            w, v = herm_eig(m)
            assert frob(v @ np.diag(w) @ v.conj().T - m) < 1e-9 * max(1.0, frob(m))
            assert frob(v.conj().T @ v - np.eye(d)) < 1e-9


class TestHermSqrt:
    def test_identity(self):
        np.testing.assert_allclose(herm_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_projection_fixed_point(self):
        p = proj(PAULI_X[:, 0] + PAULI_X[:, 1])
        np.testing.assert_allclose(herm_sqrt(p), p, atol=1e-10)

    def test_diagonal(self):
        m = np.diag([0.4, 0.9])
        np.testing.assert_allclose(herm_sqrt(m), np.diag([2.0, 3.0]) / np.sqrt(10.0), atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            herm_sqrt(np.diag([-1.0, 1.0]))

    def test_square_reproduces_random_psd(self, rng):
        # 100 random PSD matrices, dims 2-6
        for t in range(100):
            d = 2 + t % 5
            m = random_psd(d, rng)
            m = m / max(1.0, np.linalg.eigvalsh(m)[-1])
            r = herm_sqrt(m)
            assert frob(r @ r - m) < 1e-8
            assert np.linalg.eigvalsh(r)[0] > -1e-10


class TestStackedHermSqrt:
    def test_matches_matrix_by_matrix(self, rng):
        for d in (2, 3, 5):
            stack = np.stack([random_psd(d, rng) for _ in range(4)])
            roots = herm_sqrt(stack)
            assert roots.shape == stack.shape
            for m, r in zip(stack, roots):
                assert frob(r - herm_sqrt(m)) < 1e-14

    def test_noise_floor_is_per_matrix(self):
        # 1e-14 is below the floor of the first matrix (1e-12 of 1) but not
        # below that of the second (1e-12 of 1e-13): one floor for the whole
        # stack would drop it from both.
        stack = np.stack([np.diag([1.0, 1e-14]), np.diag([1e-13, 1e-14]), np.zeros((2, 2))])
        roots = herm_sqrt(stack)
        for m, r in zip(stack, roots):
            np.testing.assert_array_equal(r, herm_sqrt(m))
        assert roots[0][1, 1] == 0.0
        assert roots[1][1, 1] == pytest.approx(1e-7, rel=1e-12)
        assert not roots[2].any()

    def test_non_psd_member_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.1]), np.eye(2)])
        with pytest.raises(NotPositiveSemidefinite):
            herm_sqrt(stack)

    def test_eig_of_stack(self, rng):
        stack = np.stack([random_psd(3, rng) for _ in range(3)])
        w, v = herm_eig(stack)
        assert w.shape == (3, 3) and v.shape == (3, 3, 3)
        for m, wk, vk in zip(stack, w, v):
            assert frob((vk * wk) @ vk.conj().T - m) < 1e-12

    def test_psd_part_of_stack_matches_loop(self, rng):
        stack = np.stack([ginibre(3, rng) + ginibre(3, rng).conj().T for _ in range(4)])
        for m, p in zip(stack, psd_part(stack)):
            w, v = np.linalg.eigh((m + m.conj().T) / 2)
            expected = (v * np.clip(w, 0.0, None)) @ v.conj().T
            assert frob(p - (expected + expected.conj().T) / 2) < 1e-14

    def test_stack_must_be_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_sqrt(np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]))


class TestInverseRoot:
    def test_stack_agrees_with_single_calls(self, rng):
        stack = np.stack([g @ g.conj().T + np.eye(3) for g in (ginibre(3, rng) for _ in range(5))])
        w, roots = inverse_root(stack)
        for m, wk, r in zip(stack, w, roots):
            w1, r1 = inverse_root(m)
            np.testing.assert_array_equal(wk, w1)
            assert frob(r - r1) <= 1e-15

    def test_matrix_is_the_two_axis_formula_bitwise(self, rng):
        m = random_psd(4, rng) + np.eye(4)
        w, v = np.linalg.eigh((m / 2.0) + (m / 2.0).conj().T)
        assert np.array_equal(inverse_root(m)[1], (v / np.sqrt(w)) @ v.conj().T)


class TestTensorProduct:
    def test_identities(self):
        np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(np.diag(out).real, [0.0, 1.0, 0.0, 0.0])

    def test_rank_one_projections(self):
        psi, phi = np.array([1.0, 1j]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
        out = tensor_product(proj(psi), proj(phi))
        np.testing.assert_allclose(out, proj(np.kron(psi, phi)), atol=1e-12)

    def test_associative_up_to_reshuffle(self, rng):
        for _ in range(10):
            a, b, c = (ginibre(2, rng) for _ in range(3))
            left = tensor_product(tensor_product(a, b), c)
            right = tensor_product(a, tensor_product(b, c))
            assert frob(left - right) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        psi, phi = np.array([1.0, 1j]) / np.sqrt(2), np.array([0.0, 1.0])
        m = tensor_product(proj(psi), proj(phi))
        np.testing.assert_allclose(partial_trace_second(m, 2, 2), proj(psi), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(partial_trace_second(np.eye(4), 2, 2), 2.0 * np.eye(2))

    def test_swap_operator(self):
        np.testing.assert_allclose(partial_trace_second(swap_unitary(2), 2, 2), np.eye(2))

    def test_trace_preserving_and_product_law(self, rng):
        for _ in range(20):
            a, b = ginibre(2, rng), ginibre(3, rng)
            m = tensor_product(a, b)
            reduced = partial_trace_second(m, 2, 3)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-10
            assert frob(reduced - np.trace(b) * a) < 1e-10
            first = partial_trace_first(m, 2, 3)
            assert frob(first - np.trace(a) * b) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace_second(np.eye(4), 2, 3)


class TestCompleteToUnitary:
    def test_full_basis(self):
        cols = [np.eye(3)[:, k] for k in range(3)]
        np.testing.assert_allclose(complete_to_unitary(cols, 3), np.eye(3), atol=1e-12)

    def test_single_e2(self):
        u = complete_to_unitary([E2], 2)
        np.testing.assert_allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)

    def test_hadamard_column(self):
        u = complete_to_unitary([(E1 + E2) / np.sqrt(2.0)], 2)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_not_orthonormal(self):
        with pytest.raises(NotIsometry):
            complete_to_unitary([E1, (E1 + E2) / np.sqrt(2.0)], 2)

    def test_random_columns_unitary(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, d + 1))
            q, _ = np.linalg.qr(ginibre(d, rng))
            u = complete_to_unitary([q[:, i] for i in range(k)], d)
            assert frob(u.conj().T @ u - np.eye(d)) <= 1e-8
            for i in range(k):
                np.testing.assert_allclose(u[:, i], q[:, i], atol=1e-12)

    @staticmethod
    def _columns(d, k, rng):
        q, _ = np.linalg.qr(ginibre(d, rng))
        return [q[:, i] for i in range(k)]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_completion_properties(self, d, rng):
        for k in range(d + 1):
            cols = self._columns(d, k, rng)
            u = complete_to_unitary(cols, d)
            assert frob(u.conj().T @ u - np.eye(d)) <= 1e-12
            for i, c in enumerate(cols):
                assert np.array_equal(u[:, i], c)  # the inputs appear verbatim
            for c in u[:, k:].T:
                lead = c[np.flatnonzero(np.abs(c) > 1e-9)[0]]
                assert lead.real > 0 and abs(lead.imag) <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_no_columns_gives_identity(self, d):
        assert np.array_equal(complete_to_unitary([], d), np.eye(d))

    def test_same_input_same_output(self, rng):
        cols = self._columns(9, 4, rng)
        assert np.array_equal(complete_to_unitary(cols, 9), complete_to_unitary(cols, 9))

    def test_one_qr_call(self, rng, eig_calls):
        cols = self._columns(6, 2, rng)
        eig_calls.qr_calls.clear()
        complete_to_unitary(cols, 6)
        assert eig_calls.qr_calls == [(6, 2)]

    def test_too_many_columns(self):
        with pytest.raises(DimensionError):
            complete_to_unitary([E1, E2, E1], 2)

    def test_wrong_length_column(self):
        with pytest.raises(DimensionError):
            complete_to_unitary([np.ones(3) / np.sqrt(3.0)], 2)

    def test_columns_of_unequal_lengths(self):
        with pytest.raises(DimensionError):
            complete_to_unitary([E1, np.ones(3) / np.sqrt(3.0)], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column(self, bad):
        with pytest.raises(QinstrError, match="non-finite") as err:
            complete_to_unitary([E1, np.array([bad, 0.0])], 2)
        assert not isinstance(err.value, DimensionError)

    def test_empty_column(self):
        with pytest.raises(DimensionError):
            complete_to_unitary([np.zeros(0)], 2)

    def test_each_column_is_flattened(self, rng):
        cols = self._columns(5, 2, rng)
        flat = complete_to_unitary(cols, 5)
        assert np.array_equal(complete_to_unitary([c[:, None] for c in cols], 5), flat)
        assert np.array_equal(complete_to_unitary(np.stack(cols), 5), flat)

    @pytest.mark.parametrize("d, n", [(12, 2), (16, 3), (24, 2)])
    def test_same_output_as_the_column_loop(self, d, n, rng):
        """The dilation's call: the columns are the rows of ``iso.T``; the
        completion equals the one built from per-column coercion."""
        iso = np.linalg.qr(ginibre(d * n, rng))[0][:, :d]
        u = np.stack([np.asarray(c, dtype=complex).reshape(-1) for c in iso.T], axis=1)
        q = np.linalg.qr(u, mode="complete")[0]
        q[:, d:] = _phase_fix(q[:, d:])
        q[:, :d] = u
        assert np.array_equal(complete_to_unitary(iso.T, d * n), q)


class TestPhaseFix:
    def test_columns_fixed_independently(self, rng):
        v = ginibre(4, rng)
        v[:2, 1] = 0.0  # the second column's first significant entry is row 2
        fixed = _phase_fix(v)
        for j, row in enumerate([0, 2, 0, 0]):
            phase = fixed[row, j] / v[row, j]
            assert abs(abs(phase) - 1.0) <= 1e-15
            np.testing.assert_allclose(fixed[:, j], v[:, j] * phase, atol=1e-15)
            assert fixed[row, j].real > 0 and abs(fixed[row, j].imag) <= 1e-15

    def test_zero_column_rejected(self, rng):
        v = ginibre(3, rng)
        v[:, 1] = 1e-12
        with pytest.raises(ZeroVector):
            _phase_fix(v)


def _single_matrix_roots(m):
    """The single-matrix branch that the stack path replaced, kept as the
    oracle: eigenvectors and roots of only the eigenvalues above the noise
    floor, the largest always kept."""
    w, v = np.linalg.eigh(m)
    keep = w > RANK_TOL * max(float(w[-1]), 0.0)
    keep[-1] = True
    return v[:, keep], np.sqrt(np.clip(w[keep], 0.0, None))


class TestRootFactors:
    def test_matches_root_factor_per_matrix(self, rng):
        # The factors of the whole stack, and of each matrix as a stack of
        # one, against the single-matrix branch: same columns, same values.
        d = 4
        stack = np.stack(
            [
                random_psd(d, rng),
                np.zeros((d, d), dtype=complex),  # keeps one zero column
                proj(ginibre(d, rng)[:, 0]),  # rank one
                np.diag([1.0, 1.0, 1e-14, 0.0]).astype(complex),  # below the noise floor
                np.diag([0.5, 0.25, -1e-12, 0.0]).astype(complex),  # clamped negative
            ]
        )
        stack = (stack + stack.conj().swapaxes(1, 2)) / 2
        batched = root_factors(stack)
        for m, r in zip(stack, batched):
            v, roots = _single_matrix_roots(m)
            np.testing.assert_array_equal(r, v * roots)
            np.testing.assert_array_equal(root_factors(m[None])[0], v * roots)
            assert frob(r @ r.conj().T - hermitian_psd(m)) <= 1e-12

    def test_herm_sqrt_of_atoms_matches_single_matrix_branch(self, rng):
        for d in (2, 3, 5, 8):
            for _ in range(5):
                m = proj(ginibre(d, rng)[:, 0])
                v, roots = _single_matrix_roots((m + m.conj().T) / 2)
                expected = (v * roots) @ v.conj().T
                assert frob(herm_sqrt(m) - (expected + expected.conj().T) / 2) <= 1e-15
                assert frob(herm_sqrt(m) - m) <= 1e-14  # an atom is its own root

    def test_negative_eigenvalue_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-3])]).astype(complex)
        with pytest.raises(NotPositiveSemidefinite):
            root_factors(stack)


def hermitian_psd(m):
    """The clamped PSD matrix a root factor reproduces."""
    w, v = np.linalg.eigh(m)
    w = np.where(w > 1e-12 * max(w[-1], 0.0), w, 0.0)
    return (v * w) @ v.conj().T


class TestMatricesClose:
    def test_equal(self):
        assert matrices_close(np.eye(2), np.eye(2), 1e-12)

    def test_far(self):
        assert not matrices_close(np.eye(2), np.zeros((2, 2)), 0.5)

    def test_projection_pair(self):
        # ||P_plus - P_minus||_F = sqrt(2) > 0.1
        assert not matrices_close(P_PLUS, P_MINUS, 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matrices_close(np.eye(2), np.eye(3), 1.0)
