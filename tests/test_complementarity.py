"""The batched complementarity kernel against the pairwise loops it replaced.

``loop_instr_complementary``, ``basis_instr_complementary`` and
``pairwise_residual`` are former library implementations, kept as oracles:
one ``Operation.apply`` per basis element, outcome and pair; one einsum of
the defects against the Hermitian basis; and one ``seq_product`` per
ordered pair.
"""

import numpy as np
import pytest

import qinstr.instruments as instruments
from qinstr.effects import seq_product, seq_products
from qinstr.errors import DimensionError, InvariantViolation
from qinstr.instruments import (
    CHOI_TOL,
    Instrument,
    Operation,
    induced_observable,
    instr_complementary,
    luders_instrument,
    trivial_instrument,
)
from qinstr.linalg import frob, herm_sqrt
from qinstr.observables import (
    SUM_TOL,
    Observable,
    atomic_observable,
    complementarity_defects,
    complementarity_residual,
    fourier_mub,
    identity_observable,
    obs_complementary,
)
from qinstr.rand import random_hermitian, random_instrument, random_observable, random_state, random_unitary

DIMS = [2, 3, 4, 5]


def _hermitian_basis(dim: int) -> list:
    basis = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 0.5
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -0.5j
            m[j, i] = 0.5j
            basis.append(m)
    return basis


def loop_coefficients(i: Instrument, j: Instrument):
    """Every basis coefficient of the instrument identities, in loop order."""
    a = induced_observable(i)
    b = induced_observable(j)
    n, m = len(j), len(i)
    roots_a = {x: herm_sqrt(a[x]) for x in a.labels}
    roots_b = {y: herm_sqrt(b[y]) for y in b.labels}
    for sigma in _hermitian_basis(i.dim):
        for x, ix in i.items():
            cond = roots_a[x] @ sigma @ roots_a[x]
            ref = np.trace(ix.apply(sigma)) / n
            for _, jy in j.items():
                yield np.trace(jy.apply(cond)) - ref
        for y, jy in j.items():
            cond = roots_b[y] @ sigma @ roots_b[y]
            ref = np.trace(jy.apply(sigma)) / m
            for _, ix in i.items():
                yield np.trace(ix.apply(cond)) - ref


def loop_instr_complementary(i: Instrument, j: Instrument, tol: float = CHOI_TOL) -> bool:
    return all(abs(c) <= tol for c in loop_coefficients(i, j))


def basis_complementary(defects, d: int, tol: float = CHOI_TOL) -> bool:
    """Every Hermitian-basis coefficient ``tr(s_k D)`` of the defect stacks
    within ``tol``, the coefficients from one einsum over the basis stack."""
    stack = np.concatenate([x.reshape(-1, d, d) for x in defects])
    coefficients = np.einsum("kab,nba->nk", np.stack(_hermitian_basis(d)), stack)
    return bool(np.all(np.abs(coefficients) <= tol))


def basis_instr_complementary(i: Instrument, j: Instrument, tol: float = CHOI_TOL) -> bool:
    return basis_complementary(complementarity_defects(induced_observable(i), induced_observable(j)), i.dim, tol)


def pairwise_residual(a, b) -> float:
    n, m = len(b), len(a)
    residual = 0.0
    for _, ax in a.items():
        for _, by in b.items():
            residual = max(residual, frob(seq_product(ax, by) - ax / n))
            residual = max(residual, frob(seq_product(by, ax) - by / m))
    return residual


def _family(kind: str, d: int, rng):
    """An instrument pair of one catalog family at dimension ``d``."""
    b1, b2 = fourier_mub(d)
    if kind == "fourier-mub":
        return luders_instrument(atomic_observable(b1)), luders_instrument(atomic_observable(b2))
    if kind == "rotated-mub":
        u = random_unitary(d, rng)
        return luders_instrument(atomic_observable(u @ b1)), luders_instrument(atomic_observable(u @ b2))
    if kind == "trivial":
        a = identity_observable({"0": 0.5, "1": 0.5}, d)
        b = identity_observable({"0": 0.2, "1": 0.3, "2": 0.5}, d)
        alpha = random_state(d, rng)
        return trivial_instrument(a, alpha), trivial_instrument(b, alpha)
    if kind == "self":
        i = luders_instrument(random_observable(d, 3, rng))
        return i, i
    if kind.startswith("one-sided"):
        # B_y o A_x = B_y / 2 holds for A = {1/2, 1/2}, while A_x o B_y =
        # A_x / 3 fails: only one of the two identities is violated.
        half = luders_instrument(identity_observable({"0": 0.5, "1": 0.5}, d))
        other = luders_instrument(random_observable(d, 3, rng))
        return (half, other) if kind == "one-sided" else (other, half)
    return random_instrument(d, 2, rng), random_instrument(d, 3, rng)


FAMILIES = ["fourier-mub", "rotated-mub", "trivial", "self", "one-sided", "one-sided-swapped", "random"]
EXPECTED = {"fourier-mub": True, "rotated-mub": True}


def _trivial_uniform(d: int, rng):
    a = identity_observable({"0": 0.5, "1": 0.5}, d)
    b = identity_observable({"0": 1 / 3, "1": 1 / 3, "2": 1 / 3}, d)
    alpha = random_state(d, rng)
    return trivial_instrument(a, alpha), trivial_instrument(b, alpha)


class TestAgainstOracles:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_instrument_and_observable_levels(self, kind, d, rng):
        i, j = _family(kind, d, rng)
        a, b = induced_observable(i), induced_observable(j)
        lhs = instr_complementary(i, j)
        assert lhs == loop_instr_complementary(i, j) == basis_instr_complementary(i, j) == EXPECTED.get(kind, False)
        for defects in complementarity_defects(a, b):
            assert np.array_equal(defects, defects.conj().swapaxes(-1, -2))
        oracle = pairwise_residual(a, b)
        assert abs(complementarity_residual(a, b) - oracle) <= 1e-14
        assert obs_complementary(a, b) == (oracle <= SUM_TOL) == EXPECTED.get(kind, False)

    @pytest.mark.parametrize("d", DIMS)
    def test_uniform_trivial_pair_is_complementary(self, d, rng):
        i, j = _trivial_uniform(d, rng)
        assert instr_complementary(i, j) and loop_instr_complementary(i, j) and basis_instr_complementary(i, j)
        assert obs_complementary(induced_observable(i), induced_observable(j))

    @pytest.mark.parametrize("d", [2, 3])
    def test_defect_shapes_and_values(self, d, rng):
        a, b = random_observable(d, 2, rng), random_observable(d, 3, rng)
        d_ab, d_ba = complementarity_defects(a, b)
        assert d_ab.shape == (2, 3, d, d) and d_ba.shape == (3, 2, d, d)
        for s, (_, ax) in enumerate(a.items()):
            for t, (_, by) in enumerate(b.items()):
                assert frob(d_ab[s, t] - (seq_product(ax, by) - ax / 3)) <= 1e-14
                assert frob(d_ba[t, s] - (seq_product(by, ax) - by / 2)) <= 1e-14


def _rotated_mub_pair(d: int, eps: float, h: np.ndarray):
    """Fourier-MUB pair with the second basis turned by ``exp(i eps h)``."""
    b1, b2 = fourier_mub(d)
    w, v = np.linalg.eigh(h)
    turn = (v * np.exp(1j * eps * w)) @ v.conj().T
    return atomic_observable(b1), atomic_observable(turn @ b2)


class TestNearTolerance:
    """Pairs moved off a MUB so that the tested quantity lands a factor
    ``1 -+ 1e-3`` from the default tolerance."""

    @staticmethod
    def _scaled(measure, tol):
        eps0 = 1e-6
        base = measure(eps0)
        return [eps0 * tol / base * f for f in (1 - 1e-3, 1 + 1e-3)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_observables(self, d, rng):
        h = random_hermitian(d, rng)
        residual = lambda eps: pairwise_residual(*_rotated_mub_pair(d, eps, h))
        under, over = self._scaled(residual, SUM_TOL)
        assert residual(under) < SUM_TOL < residual(over)
        assert obs_complementary(*_rotated_mub_pair(d, under, h))
        assert not obs_complementary(*_rotated_mub_pair(d, over, h))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_instruments(self, d, rng):
        h = random_hermitian(d, rng)

        def pair(eps):
            a, b = _rotated_mub_pair(d, eps, h)
            return luders_instrument(a), luders_instrument(b)

        largest = lambda eps: max(abs(c) for c in loop_coefficients(*pair(eps)))
        under, over = self._scaled(largest, CHOI_TOL)
        assert largest(under) < CHOI_TOL < largest(over)
        for eps, expected in ((under, True), (over, False)):
            i, j = pair(eps)
            assert instr_complementary(i, j) == loop_instr_complementary(i, j) == basis_instr_complementary(i, j) == expected


class TestKernel:
    def test_paired_defects_are_each_directions_own(self, rng):
        # A pair of one shape gets both directions from one seq_products call
        # on the pair stacked, with the numbers of two calls, bit for bit; a
        # pair of two outcome counts (the random one) makes two calls.
        for i, j in [_family("fourier-mub", 3, rng), _family("random", 2, rng)]:
            a, b = induced_observable(i), induced_observable(j)
            d_ab, d_ba = complementarity_defects(a, b)
            assert np.array_equal(d_ab, seq_products(a.roots, b.stack) - a.stack[:, None] / len(b))
            assert np.array_equal(d_ba, seq_products(b.roots, a.stack) - b.stack[:, None] / len(a))

    def test_no_apply_calls(self, rng, monkeypatch):
        pairs = [_family("fourier-mub", 3, rng), _family("random", 3, rng), _trivial_uniform(2, rng)]

        def forbidden(self, mat):
            raise AssertionError("Operation.apply called")

        monkeypatch.setattr(Operation, "apply", forbidden)
        assert [instr_complementary(i, j) for i, j in pairs] == [True, False, True]

    @pytest.mark.parametrize("part", [1.0, 1j])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_entry_parts_are_the_basis_coefficients(self, part, scale, rng, monkeypatch):
        # A Hermitian bump on one off-diagonal pair, real or imaginary, just
        # inside or outside the tolerance.
        i, j = _family("fourier-mub", 3, rng)
        d_ab, d_ba = complementarity_defects(induced_observable(i), induced_observable(j))
        bump = np.zeros((3, 3), dtype=complex)
        bump[0, 1] = scale * CHOI_TOL * part
        shifted = (d_ab + bump + bump.conj().T, d_ba)
        monkeypatch.setattr(instruments, "complementarity_defects", lambda a, b: shifted)
        assert instr_complementary(i, j) == basis_complementary(shifted, 3) == (scale < 1)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            complementarity_residual(random_observable(2, 2, rng), random_observable(3, 2, rng))
        with pytest.raises(DimensionError):
            instr_complementary(random_instrument(2, 2, rng), random_instrument(3, 2, rng))

    def test_products_keep_effect_range_check(self, rng, monkeypatch):
        # Roots scaled by 1.5 push every product above the identity.
        monkeypatch.setattr(Observable, "roots", property(lambda o: 1.5 * herm_sqrt(o.stack)))
        b1, b2 = fourier_mub(2)
        with pytest.raises(InvariantViolation) as exc:
            complementarity_residual(atomic_observable(b1), atomic_observable(b2))
        assert exc.value.invariant == "effect-range"
