"""Seeded random generation of states, effects, observables, and instruments.

All generators take an explicit ``numpy.random.Generator`` so that every
verification suite and document is reproducible from a seed.

``random_observable``, ``random_instrument``, ``random_state`` and
``random_unitary`` each make one Generator call (``_normals``) and build from
its numbers with ``_whitened_effects``, ``_whitened_kraus``, ``_states`` or
``_unitaries``, which form the Ginibre matrices (``_ginibres_of``) themselves.
These take leading trial axes, so a generator whose calls return draws stacked
over trials (the catalog's) gives a stack of families.  Counts and labels are
checked before anything is drawn.
"""

from __future__ import annotations

import numpy as np

from .effects import ensure_effect, ensure_effects
from .errors import DimensionError, LabelError
from .instruments import Instrument
from .linalg import Array, hermitian_part, inverse_root
from .models import FIMM
from .observables import Label, Observable, StochasticMatrix, _checked_effects, check_distinct_labels


def default_labels(count: int) -> list[str]:
    return [str(k) for k in range(count)]


def ginibre(dim: int, rng: np.random.Generator, cols: int | None = None) -> Array:
    return _ginibres_of(_normals(rng, dim, dim if cols is None else cols))


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
    return _states(_normals(rng, dim, dim))


def _states(normals: Array) -> Array:
    """``random_state``'s density matrix ``g g^* / tr`` of the Ginibre matrix of its ``_normals``
    draw, or of each of a stack."""
    g = _ginibres_of(normals)
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
    return _unitaries(_normals(rng, dim, dim))


def _unitaries(normals: Array) -> Array:
    """``random_unitary``'s Haar unitary of the Ginibre matrix of its ``_normals`` draw, or of
    each of a stack: the QR factor ``Q``, each column's phase fixed by the diagonal of ``R``."""
    q, r = np.linalg.qr(_ginibres_of(normals))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


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
    labels = check_distinct_labels(default_labels(outcomes) if labels is None else labels)
    if not 0 < outcomes == len(labels):  # before the draw
        raise LabelError(f"need at least one outcome and one label for each, got {len(labels)} for {outcomes} outcomes")
    return Observable._valid(labels, _whitened_effects(_normals(rng, outcomes, dim, dim)))


def _whitened_effects(normals: Array) -> Array:
    """``random_observable``'s effects from its ``_normals`` draw, ``(m, 2, d, d)``, or a
    ``(t, m, 2, d, d)`` batch of ``t`` trials' draws: the positive parts ``g g^*`` of the
    Ginibre blocks, whitened by the inverse square root of each family's sum."""
    g = _ginibres_of(normals)
    blocks = g @ g.conj().swapaxes(-1, -2)
    inv_root = inverse_root(blocks.sum(-3))[1][..., None, :, :]
    return inv_root @ blocks @ inv_root


def random_commuting_effect_pair(dim: int, rng: np.random.Generator) -> tuple[Array, Array]:
    """Effects diagonal in one random basis, so they commute."""
    u = random_unitary(dim, rng)
    return tuple(_commuting_effects(u, rng.uniform(0.0, 1.0, (2, dim))))


def _commuting_effects(u: Array, x: Array) -> Array:
    """``random_commuting_effect_pair``'s effects ``u diag(x_k) u^*`` of a unitary and two
    spectra ``x`` ``(2, d)``, or per trial of a batch, validated by one ``ensure_effects`` call."""
    pair = _diagonal_in(u, x)
    return ensure_effects(pair.reshape(-1, *pair.shape[-2:])).reshape(pair.shape)


def _diagonal_in(u: Array, x: Array) -> Array:
    """The matrices ``u diag(x_k) u^*`` of a unitary ``u`` and spectra ``x``, ``(k, d)``, or per trial of a batch."""
    diagonals = (x[..., :, :, None] * np.eye(x.shape[-1])).astype(complex)
    return u[..., None, :, :] @ diagonals @ u.conj().swapaxes(-1, -2)[..., None, :, :]


def random_commutative_observable(
    dim: int, outcomes: int, rng: np.random.Generator
) -> Observable:
    """Observable whose effects share one random eigenbasis; of stacked draws, a stack of them."""
    u = random_unitary(dim, rng)
    weights = rng.dirichlet(np.ones(outcomes), size=dim)  # (dim, outcomes)
    effects = _diagonal_in(u, weights.swapaxes(-1, -2))
    stack, spectrum = _checked_effects(effects.reshape(-1, dim, dim), outcomes)
    return Observable._checked(default_labels(outcomes), stack.reshape(effects.shape), spectrum)


def random_stochastic(
    src_labels: list[Label], tgt_labels: list[Label], rng: np.random.Generator
) -> StochasticMatrix:
    src, tgt = check_distinct_labels(src_labels), check_distinct_labels(tgt_labels)  # before the draw
    return StochasticMatrix(src, tgt, rng.dirichlet(np.ones(len(tgt)), size=len(src)))


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
    if outcomes < 1:  # before the draw
        raise LabelError(f"an instrument needs at least one outcome, got {outcomes}")
    if kraus_per_outcome < 1:
        raise DimensionError("need at least one Kraus operator")
    raw = _normals(rng, outcomes, kraus_per_outcome, dim, dim)
    return Instrument._from_kraus(default_labels(outcomes), _whitened_kraus(raw))


def _whitened_kraus(normals: Array) -> Array:
    """``random_instrument``'s Kraus array from its ``_normals`` draw, ``(m, r, 2, d, d)``
    or a batch with leading trial axes: the Ginibre blocks of each family right-multiplied
    by the inverse square root of their sum of ``K^* K``."""
    raw = _ginibres_of(normals)
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
