import json

import numpy as np
import pytest

from qinstr.observables import Observable


def proj(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

P0 = proj(E1)
P1 = proj(E2)
P_PLUS = proj(PLUS)
P_MINUS = proj(MINUS)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# Malformed "kraus" fields of a one-outcome qubit instrument document; each
# must fail to load with a DocumentError.
_ROW = [[1.0, 0.0], [0.0, 0.0]]
MALFORMED_KRAUS = {
    "not-a-list": 5,
    "empty-list": [],
    "ragged-rows": [[_ROW, [[0.0, 0.0]]]],
    "wrong-shape": [[_ROW + [[0.0, 0.0]], _ROW + [[1.0, 0.0]]]],
    "mixed-shapes": [[_ROW, _ROW], [[[1.0, 0.0]]]],
}


def kraus_document(kraus: object) -> str:
    payload = {"kind": "instrument", "dim": 2, "labels": ["0"], "operations": {"0": {"kraus": kraus}}}
    return json.dumps(payload)


@pytest.fixture
def sharp_z() -> Observable:
    return Observable({"0": P0, "1": P1})


@pytest.fixture
def sharp_x() -> Observable:
    return Observable({"+": P_PLUS, "-": P_MINUS})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
