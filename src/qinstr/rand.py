"""Seeded random generation of states, effects, observables, and instruments.

All generators take an explicit ``numpy.random.Generator`` so that every
verification suite and document is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from .effects import ensure_effect, ensure_effects
from .instruments import Instrument
from .linalg import Array, hermitian_part, inverse_root
from .models import FIMM
from .observables import Label, Observable, StochasticMatrix, check_distinct_labels


def default_labels(count: int) -> list[str]:
    return [str(k) for k in range(count)]


def ginibre(dim: int, rng: np.random.Generator, cols: int | None = None) -> Array:
    return _ginibres(rng, dim, dim if cols is None else cols)


def _ginibres(rng: np.random.Generator, *shape: int) -> Array:
    """Ginibre matrices of ``shape = (..., d, c)`` from one Generator call of
    shape ``(..., 2, d, c)``: the numbers, in order, of drawing each matrix
    by ``ginibre`` (its real part, then its imaginary part)."""
    g = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def random_hermitian(dim: int, rng: np.random.Generator) -> Array:
    return hermitian_part(ginibre(dim, rng))


def random_psd(dim: int, rng: np.random.Generator) -> Array:
    g = ginibre(dim, rng)
    return g @ g.conj().T


def random_state(dim: int, rng: np.random.Generator) -> Array:
    """Random density matrix ``g g^* / tr``: PSD with unit trace by
    construction, so only symmetrized, not eigensolved."""
    rho = random_psd(dim, rng)
    return hermitian_part(rho / np.trace(rho).real)


def random_pure_state_vector(dim: int, rng: np.random.Generator) -> Array:
    v = ginibre(dim, rng, cols=1).reshape(-1)
    return v / np.linalg.norm(v)


def random_effect(dim: int, rng: np.random.Generator) -> Array:
    """Random effect with spectrum spread over the full unit interval."""
    h = random_hermitian(dim, rng)
    w = np.linalg.eigvalsh(h)
    span = float(w[-1] - w[0])
    if span < 1e-12:
        return ensure_effect(0.5 * np.eye(dim))
    return ensure_effect((h - w[0] * np.eye(dim)) / span)


def random_unitary(dim: int, rng: np.random.Generator) -> Array:
    q, r = np.linalg.qr(ginibre(dim, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_simplex(count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(count))


def random_observable(
    dim: int, outcomes: int, rng: np.random.Generator, labels: list[Label] | None = None
) -> Observable:
    """Valid observable from normalized Ginibre blocks.

    Draw one Ginibre block per outcome (all in one call), form the positive
    parts, and whiten by the inverse square root of their sum, which is
    positive definite with probability one, so the family sums to the
    identity; the whitened blocks are PSD by construction, so only their sum
    and caller ``labels`` are checked (``Observable._valid``).
    """
    labels = default_labels(outcomes) if labels is None else check_distinct_labels(labels)
    g = _ginibres(rng, outcomes, dim, dim)
    blocks = g @ g.conj().swapaxes(1, 2)
    inv_root = inverse_root(blocks.sum(0))[1]
    return Observable._valid(labels, inv_root @ blocks @ inv_root)


def random_commuting_effect_pair(dim: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """Effects diagonal in one random basis, so they commute."""
    u = random_unitary(dim, rng)
    diagonals = (rng.uniform(0.0, 1.0, (2, dim))[:, :, None] * np.eye(dim)).astype(complex)
    return tuple(ensure_effects(u @ diagonals @ u.conj().T))


def random_commutative_observable(
    dim: int, outcomes: int, rng: np.random.Generator
) -> Observable:
    """Observable whose effects share one random eigenbasis."""
    u = random_unitary(dim, rng)
    weights = rng.dirichlet(np.ones(outcomes), size=dim)  # (dim, outcomes)
    diagonals = (weights.T[:, :, None] * np.eye(dim)).astype(complex)
    return Observable(zip(default_labels(outcomes), u @ diagonals @ u.conj().T))


def random_stochastic(
    src_labels: list[Label], tgt_labels: list[Label], rng: np.random.Generator
) -> StochasticMatrix:
    return StochasticMatrix(src_labels, tgt_labels, rng.dirichlet(np.ones(len(tgt_labels)), size=len(src_labels)))


def random_kraus_instrument(dim: int, outcomes: int, rng: np.random.Generator) -> Instrument:
    """Instrument with a single Kraus operator per outcome."""
    return random_instrument(dim, outcomes, rng, kraus_per_outcome=1)


def random_instrument(
    dim: int, outcomes: int, rng: np.random.Generator, kraus_per_outcome: int = 2
) -> Instrument:
    """Generic instrument; ``kraus_per_outcome`` controls outcome Choi ranks.

    Raw Ginibre blocks, all drawn in one call, are whitened on the right by
    the inverse square root of the completeness sum (positive definite with
    probability one), which preserves outcome ranks.  The sum adds the
    per-operator products ``K^* K`` in draw order.
    """
    raw = _ginibres(rng, outcomes, kraus_per_outcome, dim, dim)
    total = (raw.conj().swapaxes(-1, -2) @ raw).reshape(-1, dim, dim).sum(0)
    inv_root = inverse_root(total)[1]
    return Instrument._from_kraus(default_labels(outcomes), raw @ inv_root)


def random_fimm(
    dim_base: int, dim_probe: int, outcomes: int, rng: np.random.Generator
) -> FIMM:
    """Model with a random probe state, unitary interaction, and pointer."""
    eta = random_state(dim_probe, rng)
    interaction = random_unitary(dim_base * dim_probe, rng)
    pointer = random_observable(dim_probe, outcomes, rng)
    return FIMM(dim_base, dim_probe, eta, interaction, pointer)
