"""Seeded random generation of states, effects, observables, and instruments.

All generators take an explicit ``numpy.random.Generator`` so that every
verification suite and document is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from .effects import ensure_effect
from .instruments import Instrument
from .linalg import Array, hermitian_part
from .models import FIMM
from .observables import Label, Observable, StochasticMatrix


def default_labels(count: int) -> list[str]:
    return [str(k) for k in range(count)]


def ginibre(dim: int, rng: np.random.Generator, cols: int | None = None) -> Array:
    cols = dim if cols is None else cols
    return (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / np.sqrt(2.0)


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

    Draw one Ginibre block per outcome, form the positive parts, and whiten
    by the inverse square root of their sum (with a small ridge) so the
    family sums to the identity; the whitened blocks are PSD by
    construction, so only their sum is checked (``Observable._valid``).
    """
    if labels is None:
        labels = default_labels(outcomes)
    blocks = [random_psd(dim, rng) for _ in range(outcomes)]
    total = sum(blocks) + 1e-12 * np.eye(dim)
    w, v = np.linalg.eigh(hermitian_part(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Observable._valid(labels, np.stack([inv_root @ b @ inv_root for b in blocks]))


def random_commuting_effect_pair(dim: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """Effects diagonal in one random basis, so they commute."""
    u = random_unitary(dim, rng)
    a = u @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ u.conj().T
    b = u @ np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex) @ u.conj().T
    return ensure_effect(a), ensure_effect(b)


def random_commutative_observable(
    dim: int, outcomes: int, rng: np.random.Generator
) -> Observable:
    """Observable whose effects share one random eigenbasis."""
    u = random_unitary(dim, rng)
    weights = np.stack([rng.dirichlet(np.ones(outcomes)) for _ in range(dim)])  # (dim, outcomes)
    return Observable(
        {
            str(x): u @ np.diag(weights[:, x]).astype(complex) @ u.conj().T
            for x in range(outcomes)
        }
    )


def random_stochastic(
    src_labels: list[Label], tgt_labels: list[Label], rng: np.random.Generator
) -> StochasticMatrix:
    rows = np.stack([rng.dirichlet(np.ones(len(tgt_labels))) for _ in src_labels])
    return StochasticMatrix(src_labels, tgt_labels, rows)


def random_kraus_instrument(dim: int, outcomes: int, rng: np.random.Generator) -> Instrument:
    """Instrument with a single Kraus operator per outcome."""
    return random_instrument(dim, outcomes, rng, kraus_per_outcome=1)


def random_instrument(
    dim: int, outcomes: int, rng: np.random.Generator, kraus_per_outcome: int = 2
) -> Instrument:
    """Generic instrument; ``kraus_per_outcome`` controls outcome Choi ranks.

    Raw Ginibre blocks are whitened on the right by the inverse square root
    of the completeness sum, which preserves outcome ranks.
    """
    raw = [
        [ginibre(dim, rng) for _ in range(kraus_per_outcome)]
        for _ in range(outcomes)
    ]
    total = sum(k.conj().T @ k for ops in raw for k in ops) + 1e-12 * np.eye(dim)
    w, v = np.linalg.eigh(hermitian_part(total))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return Instrument._from_kraus((str(x), [k @ inv_root for k in raw[x]]) for x in range(outcomes))


def random_fimm(
    dim_base: int, dim_probe: int, outcomes: int, rng: np.random.Generator
) -> FIMM:
    """Model with a random probe state, unitary interaction, and pointer."""
    eta = random_state(dim_probe, rng)
    interaction = random_unitary(dim_base * dim_probe, rng)
    pointer = random_observable(dim_probe, outcomes, rng)
    return FIMM(dim_base, dim_probe, eta, interaction, pointer)
