import json

import numpy as np
import pytest

from qinstr.instruments import Instrument, _padded, minimal_kraus
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


# Malformed documents of other kinds; each must fail to load with a
# DocumentError rather than a raw ValueError, or be accepted by mistake.
_IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_FIMM = {
    "kind": "fimm",
    "dim": 2,
    "dim_probe": 2,
    "probe_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "interaction": {"unitary": [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]},
    "pointer": {"labels": ["0"], "effects": {"0": _IDENTITY}},
}
MALFORMED_DOCUMENTS = {
    "scalar-string-value": {"kind": "scalar", "value": "abc"},
    "scalar-bool-value": {"kind": "scalar", "value": True},
    "fimm-string-dim": {**_FIMM, "dim": "x"},
    "fimm-string-dim-probe": {**_FIMM, "dim_probe": "x"},
    "effect-string-dim": {"kind": "effect", "dim": "x", "matrix": _IDENTITY},
    "effect-fractional-dim": {"kind": "effect", "dim": 2.5, "matrix": _IDENTITY},
    "observable-string-dim": {"kind": "observable", "dim": "x", "labels": ["0"], "effects": {"0": _IDENTITY}},
    "pair-with-string": {"kind": "effect", "matrix": [[["a", 0], 0], [0, 1]]},
    "bool-entry": {"kind": "effect", "matrix": [[True, 0], [0, 1]]},
    "bool-in-pair": {"kind": "effect", "matrix": [[[1, False], 0], [0, 1]]},
    "string-entry": {"kind": "effect", "matrix": [["1", 0], [0, 1]]},
    "non-string-label": {"kind": "observable", "labels": [["0"]], "effects": {"0": _IDENTITY}},
    "non-string-row-label": {"kind": "stochastic", "row_labels": [1], "col_labels": ["a"], "matrix": [[1.0]]},
    "integer-overflow": {"kind": "scalar", "value": 10**400},
    # A repeated label must fail the family's duplicate check, not collapse
    # into one outcome.
    "observable-duplicate-label": {"kind": "observable", "labels": ["a", "a"], "effects": {"a": [[1]]}},
    "instrument-duplicate-label": {"kind": "instrument", "labels": ["a", "a"], "operations": {"a": {"choi": [[1]]}}},
    "fimm-pointer-duplicate-label": {**_FIMM, "pointer": {"labels": ["0", "0"], "effects": {"0": _IDENTITY}}},
    "fimm-pointer-not-object": {**_FIMM, "pointer": 7},
    "stochastic-duplicate-label": {
        "kind": "stochastic",
        "dim": 0,
        "row_labels": ["a", "a"],
        "col_labels": ["x", "x"],
        "matrix": [[1, 0], [0, 1]],
    },
    # Non-finite numbers (JSON text ``Infinity``/``NaN``, or ``1e999``) are
    # not values; a NaN row sum must not slip past the row-sum test.
    "scalar-infinite-value": {"kind": "scalar", "value": float("inf")},
    "scalar-nan-value": {"kind": "scalar", "value": float("nan")},
    "stochastic-nan-entry": {
        "kind": "stochastic",
        "dim": 0,
        "row_labels": ["a", "b"],
        "col_labels": ["x", "y"],
        "matrix": [[float("nan"), 1], [0, 1]],
    },
    # Entries near the float limit must not overflow into stored inf/nan.
    "effect-huge-entries": {"kind": "effect", "matrix": [[1e308, 1e308], [1e308, 1e308]]},
    "observable-huge-effect": {"kind": "observable", "labels": ["a"], "effects": {"a": [[1e308, 0], [0, 1e308]]}},
    "instrument-huge-choi": {"kind": "instrument", "labels": ["a"], "operations": {"a": {"choi": [[1e308]]}}},
    # ... nor warn on the way to their rejection: one error line, no numpy warning.
    "effect-overflowing-norm": {"kind": "effect", "matrix": [[0, 1e308], [0, 0]]},
    "instrument-overflowing-kraus": {
        "kind": "instrument",
        "labels": ["a"],
        "operations": {"a": {"kraus": [[[1e200, 0], [0, 0]]]}},
    },
    "fimm-overflowing-unitary": {
        **_FIMM,
        "interaction": {
            "unitary": [[[1e200 if i == j == 0 else float(i == j), 0.0] for j in range(4)] for i in range(4)],
        },
    },
    # A document carries one form of each map: a second form is an error,
    # not ignored, even when the first form is valid.
    "instrument-kraus-and-choi": {
        "kind": "instrument",
        "labels": ["a"],
        "operations": {"a": {"kraus": [_IDENTITY], "choi": [[[9, 0]]]}},
    },
    "fimm-unitary-and-choi": {**_FIMM, "interaction": {**_FIMM["interaction"], "choi": [[[9, 0]]]}},
}

# Documents that load, and each of them with one field or entry added that
# the loader would not read: the addition alone must make it fail.
_OUTCOME = {"kraus": [_IDENTITY]}
_TWO_EFFECTS = {"0": _IDENTITY, "1": _IDENTITY}
WELL_FORMED_DOCUMENTS = {
    "effect": {"kind": "effect", "dim": 2, "matrix": _IDENTITY},
    "observable": {"kind": "observable", "dim": 2, "labels": ["0"], "effects": {"0": _IDENTITY}},
    "instrument": {"kind": "instrument", "dim": 2, "labels": ["a"], "operations": {"a": _OUTCOME}},
    "fimm": _FIMM,
    "stochastic": {"kind": "stochastic", "dim": 0, "row_labels": ["a"], "col_labels": ["x"], "matrix": [[1.0]]},
    "scalar": {"kind": "scalar", "dim": 0, "value": 0.5},
}
_WELL = WELL_FORMED_DOCUMENTS
MALFORMED_DOCUMENTS.update(
    {
        "effect-unknown-field": {**_WELL["effect"], "matrx": [[9]]},
        "observable-unknown-field": {**_WELL["observable"], "dim_probe": 2},
        "observable-unlisted-label": {**_WELL["observable"], "effects": _TWO_EFFECTS},
        "instrument-outcome-unknown-field": {
            **_WELL["instrument"],
            "operations": {"a": {**_OUTCOME, "chio": [[[9, 0]]]}},
        },
        "instrument-unlisted-label": {**_WELL["instrument"], "operations": {"a": _OUTCOME, "b": _OUTCOME}},
        "fimm-unknown-field": {**_FIMM, "dim_base": 2},
        "fimm-interaction-unknown-field": {**_FIMM, "interaction": {**_FIMM["interaction"], "kraus": []}},
        "fimm-pointer-unknown-field": {**_FIMM, "pointer": {**_FIMM["pointer"], "dim": 2}},
        "fimm-pointer-unlisted-label": {**_FIMM, "pointer": {**_FIMM["pointer"], "effects": _TWO_EFFECTS}},
        "stochastic-unknown-field": {**_WELL["stochastic"], "labels": ["a"]},
        "scalar-unknown-field": {**_WELL["scalar"], "values": [1.0]},
        # An unhashable kind must fail the kind test, not a dict lookup.
        "kind-not-a-string": {**_WELL["scalar"], "kind": ["scalar"]},
    }
)

# Text nested deeper than the JSON decoder's recursion limit; written out
# directly, since json.dumps would recurse too.
DEEP_DOCUMENT = '{"kind":"effect","matrix":' + "[" * 50000


def kraus_document(kraus: object) -> str:
    payload = {"kind": "instrument", "dim": 2, "labels": ["0"], "operations": {"0": {"kraus": kraus}}}
    return json.dumps(payload)


def kraus_family(items) -> Instrument:
    """``Instrument._from_kraus`` on ``(label, Kraus operators)`` pairs: the
    outcomes' stacks zero-padded into one array, with their counts."""
    labels, stacks = zip(*items)
    stacks = [np.asarray(s, dtype=complex) for s in stacks]
    return Instrument._from_kraus(labels, _padded(stacks), [len(s) for s in stacks])


def bounded_kraus(ops: np.ndarray, dim: int) -> np.ndarray:
    """Oracle of the library's cut: at least one and at most ``dim**2`` Kraus
    operators of the same map, ``minimal_kraus`` above ``dim**2`` and one zero
    operator for none."""
    if len(ops) == 0:
        return np.zeros((1, dim, dim), dtype=complex)
    return ops if len(ops) <= dim * dim else minimal_kraus(ops, dim)


class EigenCalls:
    """Records ``(order, batch)`` of every call to numpy's Hermitian
    eigensolvers while installed: the matrix order ``shape[-1]`` and the
    number of matrices in the call.  Calls to ``np.linalg.qr`` and
    ``np.linalg.svd`` go to ``qr_calls`` and ``svd_calls`` as the shape of
    their input."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[int, int]] = []
        self.qr_calls: list[tuple[int, ...]] = []
        self.svd_calls: list[tuple[int, ...]] = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, self._recording(original, self._record_eig))
        monkeypatch.setattr(np.linalg, "qr", self._recording(np.linalg.qr, self.qr_calls.append))
        monkeypatch.setattr(np.linalg, "svd", self._recording(np.linalg.svd, self.svd_calls.append))

    def _record_eig(self, shape: tuple[int, ...]) -> None:
        self.calls.append((shape[-1], int(np.prod(shape[:-2]))))

    @staticmethod
    def _recording(fn, record):
        def wrapper(a, *args, **kwargs):
            record(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapper

    @property
    def orders(self) -> list[int]:
        return [n for n, _ in self.calls]


@pytest.fixture
def eig_calls(monkeypatch) -> EigenCalls:
    """Eigensolver, QR and SVD recorder, installed for the rest of the test;
    clear ``calls``, ``qr_calls`` and ``svd_calls`` after building inputs to
    count one call alone."""
    return EigenCalls(monkeypatch)


class RngCalls:
    """A seeded ``numpy.random.Generator`` stand-in that forwards every
    method call to the generator and records the method name in ``calls``."""

    def __init__(self, seed: int):
        self.generator = np.random.default_rng(seed)
        self.calls: list[str] = []

    def __getattr__(self, name):
        method = getattr(self.generator, name)

        def wrapper(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return wrapper


@pytest.fixture
def rng_calls() -> RngCalls:
    """Random-number call recorder: pass it where a generator is expected,
    then read ``calls`` (clear it after building inputs to count one call
    alone)."""
    return RngCalls(20240817)


@pytest.fixture
def sharp_z() -> Observable:
    return Observable({"0": P0, "1": P1})


@pytest.fixture
def sharp_x() -> Observable:
    return Observable({"+": P_PLUS, "-": P_MINUS})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
