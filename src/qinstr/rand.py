"""Seeded random generation of states, effects, observables, and instruments.

All generators take an explicit ``numpy.random.Generator`` so that every
verification suite and document is reproducible from a seed.

``random_observable``, ``random_instrument`` and ``random_state`` each make one
Generator call (``_normals``) and build from its numbers with ``_ginibres_of``
and then ``_whitened_effects``, ``_whitened_kraus`` or ``_states``.  These take
leading trial axes: the catalog draws each trial with the same call, stacks the
trials of one shape, and builds them together.
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
    """Ginibre matrices of ``shape = (..., d, c)``: ``_ginibres_of(_normals(rng, *shape))``."""
    return _ginibres_of(_normals(rng, *shape))


def _normals(rng: np.random.Generator, *shape: int) -> Array:
    """The one Generator call behind Ginibre matrices of ``shape = (..., d, c)``:
    normals of shape ``(..., 2, d, c)``, the numbers, in order, of drawing each
    matrix by ``ginibre`` (its real part, then its imaginary part)."""
    return rng.standard_normal((*shape[:-2], 2, *shape[-2:]))


def _ginibres_of(g: Array) -> Array:
    """The Ginibre matrices of ``_normals`` draws ``g``, of one call or stacked over trials."""
    return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0)


def random_hermitian(dim: int, rng: np.random.Generator) -> Array:
    return hermitian_part(ginibre(dim, rng))


def random_psd(dim: int, rng: np.random.Generator) -> Array:
    g = ginibre(dim, rng)
    return g @ g.conj().T


def random_state(dim: int, rng: np.random.Generator) -> Array:
    """Random density matrix ``g g^* / tr``: PSD with unit trace by
    construction, so only symmetrized, not eigensolved (``_states``)."""
    return _states(ginibre(dim, rng))


def _states(g: Array) -> Array:
    """``random_state``'s density matrix of a Ginibre matrix ``g``, or of each of a stack."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return hermitian_part(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


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
    return Observable._valid(labels, _whitened_effects(_ginibres(rng, outcomes, dim, dim)))


def _whitened_effects(g: Array) -> Array:
    """``random_observable``'s effects from its Ginibre blocks ``g``, ``(m, d, d)``
    or a ``(t, m, d, d)`` batch of ``t`` trials' blocks: the positive parts
    ``g g^*``, whitened by the inverse square root of each family's sum."""
    blocks = g @ g.conj().swapaxes(-1, -2)
    inv_root = inverse_root(blocks.sum(-3))[1][..., None, :, :]
    return inv_root @ blocks @ inv_root


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
    return Instrument._from_kraus(default_labels(outcomes), _whitened_kraus(raw))


def _whitened_kraus(raw: Array) -> Array:
    """``random_instrument``'s Kraus array from its Ginibre blocks ``raw``,
    ``(m, r, d, d)`` or a batch with leading trial axes: each family
    right-multiplied by the inverse square root of its sum of ``K^* K``."""
    d = raw.shape[-1]
    total = (raw.conj().swapaxes(-1, -2) @ raw).reshape(*raw.shape[:-4], -1, d, d).sum(-3)
    return raw @ inverse_root(total)[1][..., None, None, :, :]


def random_fimm(
    dim_base: int, dim_probe: int, outcomes: int, rng: np.random.Generator
) -> FIMM:
    """Model with a random probe state, unitary interaction, and pointer."""
    eta = random_state(dim_probe, rng)
    interaction = random_unitary(dim_base * dim_probe, rng)
    pointer = random_observable(dim_probe, outcomes, rng)
    return FIMM(dim_base, dim_probe, eta, interaction, pointer)
