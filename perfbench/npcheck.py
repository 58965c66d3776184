"""Reference checks in plain numpy and json, independent of ``qinstr``.

Documents are read with ``json`` and turned into arrays here, so a check
does not trust the code it checks.  Choi convention (as in ``qinstr``): slot
order input (x) output, ``choi4[i, a, j, b] = Phi(|i><j|)[a, b]``.
"""

from __future__ import annotations

import json

import numpy as np

# The catalog's tightest pinned tolerance.
TOL = 1e-10


def read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def mat(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def effects(doc: dict) -> list[np.ndarray]:
    """Effects of an observable document (or a fimm pointer), in label order."""
    return [mat(doc["effects"][x]) for x in doc["labels"]]


def chois(doc: dict) -> list[np.ndarray]:
    """Choi matrices of an instrument document, in label order."""
    return [mat(doc["operations"][x]["choi"]) for x in doc["labels"]]


def dim_of(choi: np.ndarray) -> int:
    return int(round(np.sqrt(choi.shape[0])))


def c4(choi: np.ndarray) -> np.ndarray:
    d = dim_of(choi)
    return choi.reshape(d, d, d, d)


def induced(choi: np.ndarray) -> np.ndarray:
    return np.einsum("iaja->ij", c4(choi)).T


def apply(choi: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,iajb->ab", m, c4(choi))


def compose(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Choi matrix of ``first`` then ``second``."""
    d = dim_of(first)
    out = np.einsum("ikjl,kalb->iajb", c4(first), c4(second), optimize=True)
    return out.reshape(d * d, d * d)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """PSD square root; eigenvalues below 1e-12 of the largest count as zero,
    since the root would turn eigensolver noise of size eps into sqrt(eps)."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    w = np.where(w < 1e-12 * max(float(w[-1]), 0.0), 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def seq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r = psd_sqrt(a)
    return r @ b @ r


def luders_choi(a: np.ndarray) -> np.ndarray:
    v = psd_sqrt(a).T.reshape(-1)
    return np.outer(v, v.conj())


def model_chois(doc: dict) -> list[np.ndarray]:
    """Instrument measured by a fimm document with a unitary interaction."""
    d, n = doc["dim"], doc["dim_probe"]
    u4 = mat(doc["interaction"]["unitary"]).reshape(d, n, d, n)
    eta = mat(doc["probe_state"])
    out = []
    for f in effects(doc["pointer"]):
        ch = np.einsum("akip,pq,bljq,lk->iajb", u4, eta, u4.conj(), f, optimize=True)
        out.append(ch.reshape(d * d, d * d))
    return out


def gap(a, b) -> float:
    """Largest Frobenius distance between paired matrices."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return float("inf")
    return max((float(np.linalg.norm(x - y)) for x, y in zip(a, b)), default=0.0)


def sum_gap(mats, d: int) -> float:
    return float(np.linalg.norm(sum(mats) - np.eye(d)))


def effect_gap(a: np.ndarray) -> float:
    """How far a matrix is from being an effect (Hermitian, 0 <= a <= 1)."""
    herm = float(np.linalg.norm(a - a.conj().T))
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return max(herm, -float(w[0]), float(w[-1]) - 1.0, 0.0)


def state_gap(a: np.ndarray) -> float:
    return max(effect_gap(a), abs(float(np.trace(a).real) - 1.0))


def unitary_gap(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def joint_prob_obs(rho, a_effects, x_idx, b_effects, y_idx) -> float:
    by = sum(b_effects[y] for y in y_idx)
    return float(sum(np.trace(rho @ seq(a_effects[x], by)).real for x in x_idx))


def joint_prob_instr(rho, i_chois, x_idx, j_chois, y_idx) -> float:
    mid = sum(apply(i_chois[x], rho) for x in x_idx)
    return float(sum(np.trace(apply(j_chois[y], mid)).real for y in y_idx))
