"""JSON documents for every domain object.

Complex scalars are stored as two-element ``[re, im]`` arrays and matrices
row-major.  Canonical output uses sorted keys and 17 significant digits, so
saving a loaded canonical file is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .effects import ensure_effect, ensure_state
from .errors import DocumentError, InvariantViolation, QinstrError
from .instruments import Instrument, Operation
from .linalg import Array
from .models import FIMM
from .observables import Observable, StochasticMatrix, label_text, parse_label

@dataclass(frozen=True)
class Document:
    """A loaded document: its kind tag, dimension, and domain object."""

    kind: str
    dim: int
    obj: object


# -- canonical JSON -----------------------------------------------------------


class _Raw(str):
    """JSON text that ``canonical_json`` emits verbatim: a matrix already
    written by ``_matrix_json``."""


def _fmt_number(x: float) -> str:
    v = float(x)
    if v == 0.0:
        return "0"
    if not math.isfinite(v):
        raise DocumentError(f"cannot encode the non-finite number {v!r}")
    return format(v, ".17g")


def canonical_json(value: object) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.
    It takes only the types a document holds: ``_Raw`` matrix text, float,
    int, str, list and dict."""
    t = type(value)
    if t is _Raw:
        return value
    if t is float:
        return _fmt_number(value)
    if t is int:
        return str(value)
    if t is str:
        return json.dumps(value)
    if t is list:
        return "[" + ",".join(canonical_json(v) for v in value) + "]"
    if t is dict:
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(value[k])}" for k in sorted(value)
        )
        return "{" + inner + "}"
    raise DocumentError(f"cannot serialize value of type {t.__name__}")


def _finite_matrix(m: Array) -> Array:
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise DocumentError("cannot encode a matrix with non-finite entries")
    return a


def encode_matrix(m: Array) -> list:
    """Rows of ``[re, im]`` pairs as nested Python lists."""
    a = _finite_matrix(m)
    return np.stack([a.real, a.imag], -1).tolist()


def _matrix_json(m: Array) -> _Raw:
    """Canonical text of ``encode_matrix(m)``, written in one pass: one
    ``%.17g`` template per shape filled from the row-major real view.
    ``_fmt_number`` writes ``-0.0`` as ``0``, so ``0.0`` is added first:
    ``%.17g`` writes ``-0.0`` as ``-0`` but ``+0.0`` as ``0``."""
    a = _finite_matrix(m) + 0.0
    row = "[" + ",".join(["[%.17g,%.17g]"] * a.shape[1]) + "]"
    template = "[" + ",".join([row] * a.shape[0]) + "]"
    return _Raw(template % tuple(a.ravel().view(float).tolist()))


# Types of a decoded JSON number.  An exact type test, because ``bool`` is
# an ``int`` subclass and JSON ``true`` is not a number.
_NUMBER_TYPES = (int, float)


def _number(value: object, what: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise DocumentError(f"{what}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise DocumentError(f"{what}: expected a finite number, got {value!r}")
    return v


def _integer(value: object, what: str) -> int:
    if type(value) not in _NUMBER_TYPES or (type(value) is float and not value.is_integer()):
        raise DocumentError(f"{what}: expected an integer, got {value!r}")
    return int(value)


def decode_matrix(data: object, what: str = "matrix") -> Array:
    if not isinstance(data, list) or not data:
        raise DocumentError(f"{what}: expected a nonempty list of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise DocumentError(f"{what}: expected a list of rows")
        entries = []
        for e in row:
            if type(e) is list and len(e) == 2 and type(e[0]) in _NUMBER_TYPES and type(e[1]) in _NUMBER_TYPES:
                entries.append(complex(e[0], e[1]))
            elif type(e) in _NUMBER_TYPES:
                entries.append(complex(e))
            else:
                raise DocumentError(f"{what}: entries must be numbers or [re, im] pairs")
        rows.append(entries)
    if any(len(row) != len(rows[0]) for row in rows):
        raise DocumentError(f"{what}: rows of unequal length")
    return np.asarray(rows, dtype=complex)


def decode_real_matrix(data: object, what: str = "matrix") -> np.ndarray:
    m = decode_matrix(data, what)
    if np.max(np.abs(m.imag), initial=0.0) > 0.0:
        raise DocumentError(f"{what}: expected real entries")
    return m.real


# -- encoders -----------------------------------------------------------------


def _observable_payload(obs: Observable, encode: Callable[[Array], object]) -> dict:
    return {
        "labels": [label_text(x) for x in obs.labels],
        "effects": {label_text(x): encode(e) for x, e in obs.items()},
    }


def _document(obj: object, kind: str | None, encode: Callable[[Array], object]) -> dict:
    """Document dictionary with every matrix written by ``encode``."""
    if isinstance(obj, Observable):
        return {"kind": "observable", "dim": obj.dim, **_observable_payload(obj, encode)}
    if isinstance(obj, Instrument):
        return {
            "kind": "instrument",
            "dim": obj.dim,
            "labels": [label_text(x) for x in obj.labels],
            "operations": {label_text(x): {"choi": encode(op.choi)} for x, op in obj.items()},
        }
    if isinstance(obj, FIMM):
        if isinstance(obj.interaction, Operation):
            interaction = {"choi": encode(obj.interaction.choi)}
        else:
            interaction = {"unitary": encode(obj.interaction)}
        return {
            "kind": "fimm",
            "dim": obj.dim_base,
            "dim_probe": obj.dim_probe,
            "probe_state": encode(obj.probe_state),
            "interaction": interaction,
            "pointer": _observable_payload(obj.pointer, encode),
        }
    if isinstance(obj, StochasticMatrix):
        return {
            "kind": "stochastic",
            "dim": 0,
            "row_labels": [label_text(x) for x in obj.row_labels],
            "col_labels": [label_text(x) for x in obj.col_labels],
            "matrix": [[float(v) for v in row] for row in obj.matrix],
        }
    if isinstance(obj, (float, int)) and kind in (None, "scalar"):
        return {"kind": "scalar", "dim": 0, "value": float(obj)}
    if isinstance(obj, np.ndarray):
        if kind not in ("effect", "state"):
            raise DocumentError("bare matrices need an explicit kind ('effect' or 'state')")
        return {"kind": kind, "dim": int(obj.shape[0]), "matrix": encode(obj)}
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def document_dict(obj: object, kind: str | None = None) -> dict:
    """Document dictionary for a domain object, matrices as nested lists;
    ``kind`` disambiguates bare matrices (effect vs state) and scalars."""
    return _document(obj, kind, encode_matrix)


def dumps_document(obj: object, kind: str | None = None) -> str:
    return canonical_json(_document(obj, kind, _matrix_json)) + "\n"


def save_document(obj: object, path: str, kind: str | None = None) -> None:
    text = dumps_document(obj, kind)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- decoders -----------------------------------------------------------------


def _fields(data: object, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``data`` itself, checked to be an object that has every ``required``
    field and no field outside ``required`` and ``optional``."""
    if not isinstance(data, dict):
        raise DocumentError(f"{what}: expected an object")
    unknown = [key for key in data if key not in required and key not in optional]
    if unknown:
        raise DocumentError(f"{what}: unknown field {unknown[0]!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise DocumentError(f"{what}: missing field {missing[0]!r}")
    return data


def _one_form(data: object, what: str, forms: Mapping[str, Callable[[object, str], object]]) -> object:
    """The value of an object that gives exactly one of ``forms`` (field
    name to decoder), decoded."""
    given = list(_fields(data, what, (), tuple(forms)))
    if len(given) != 1:
        raise DocumentError(f"{what}: give exactly one of {' or '.join(map(repr, forms))}")
    return forms[given[0]](data[given[0]], f"{what}.{given[0]}")


def _label_texts(data: dict, key: str, what: str) -> list[str]:
    texts = data[key]
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise DocumentError(f"{what}: {key} must be a list of strings")
    return texts


def _labelled_entries(data: dict, key: str, what: str) -> list[tuple[str, object]]:
    """``(label text, entry)`` pairs of a family document in label order; a
    repeated label stays repeated, for the family's duplicate check."""
    labels = _label_texts(data, "labels", what)
    entries = data[key]
    if not isinstance(entries, dict):
        raise DocumentError(f"{what}: {key} must be a mapping")
    unmatched = set(labels).symmetric_difference(entries)
    if unmatched:
        raise DocumentError(f"{what}: {key} and labels differ on {sorted(unmatched)}")
    return [(text, entries[text]) for text in labels]


def _load_observable(data: dict, what: str) -> Observable:
    entries = _labelled_entries(data, "effects", what)
    return Observable((parse_label(text), decode_matrix(e, f"{what}[{text}]")) for text, e in entries)


def _kraus_operation(kraus: object, what: str) -> Operation:
    if not isinstance(kraus, list) or not kraus:
        raise DocumentError(f"{what}: expected a nonempty list of matrices")
    return Operation.from_kraus([decode_matrix(k, what) for k in kraus])


def _choi_operation(choi: object, what: str) -> Operation:
    return Operation.from_choi(decode_matrix(choi, what))


_OUTCOME_FORMS = {"kraus": _kraus_operation, "choi": _choi_operation}
_INTERACTION_FORMS = {"unitary": decode_matrix, "choi": _choi_operation}


def _load_instrument(data: dict) -> Instrument:
    entries = _labelled_entries(data, "operations", "instrument")
    return Instrument([(parse_label(text), _one_form(e, f"instrument[{text}]", _OUTCOME_FORMS)) for text, e in entries])


def _load_fimm(data: dict) -> FIMM:
    return FIMM(
        _integer(data["dim"], "dim"),
        _integer(data["dim_probe"], "dim_probe"),
        decode_matrix(data["probe_state"], "probe_state"),
        _one_form(data["interaction"], "interaction", _INTERACTION_FORMS),
        _load_observable(_fields(data["pointer"], "pointer", ("labels", "effects")), "pointer"),
    )


def _load_stochastic(data: dict) -> StochasticMatrix:
    rows = _label_texts(data, "row_labels", "stochastic")
    cols = _label_texts(data, "col_labels", "stochastic")
    matrix = decode_real_matrix(data["matrix"], "stochastic matrix")
    return StochasticMatrix([parse_label(r) for r in rows], [parse_label(c) for c in cols], matrix)


# Each kind's decoder, with the fields its documents carry besides ``kind``
# and an optional declared ``dim``.
_DECODERS: dict[str, tuple[tuple[str, ...], Callable[[dict], object]]] = {
    "effect": (("matrix",), lambda data: ensure_effect(decode_matrix(data["matrix"]))),
    "state": (("matrix",), lambda data: ensure_state(decode_matrix(data["matrix"]))),
    "observable": (("labels", "effects"), lambda data: _load_observable(data, "observable")),
    "instrument": (("labels", "operations"), _load_instrument),
    "fimm": (("dim", "dim_probe", "probe_state", "interaction", "pointer"), _load_fimm),
    "stochastic": (("row_labels", "col_labels", "matrix"), _load_stochastic),
    "scalar": (("value",), lambda data: _number(data["value"], "value")),
}
KINDS = tuple(_DECODERS)


def _content_dim(obj: object) -> int | None:
    """Dimension of a loaded object (a model's base dimension); None for a
    stochastic matrix or a scalar."""
    if isinstance(obj, np.ndarray):
        return obj.shape[0]
    return getattr(obj, "dim_base", getattr(obj, "dim", None))


def loads_document(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"parse error: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("parse error: nesting too deep") from exc
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:  # a tuple test: an unhashable kind fails it cleanly
        raise DocumentError(f"unknown kind {kind!r}; expected one of {KINDS}")
    fields, decode = _DECODERS[kind]
    _fields(data, kind, ("kind", *fields), ("dim",))
    try:
        with np.errstate(over="raise", invalid="raise"):  # an entry near the float limit
            obj = decode(data)
    except InvariantViolation as exc:
        raise DocumentError(
            f"{exc.invariant}, residual {exc.residual:.6g}", exc.invariant, exc.residual
        ) from exc
    except DocumentError:
        raise
    except QinstrError as exc:
        raise DocumentError(str(exc)) from exc
    except (OverflowError, FloatingPointError) as exc:
        raise DocumentError(f"number out of range: {exc}") from exc
    dim = _content_dim(obj)
    declared = data.get("dim")
    if declared is not None and _integer(declared, "dim") != dim and dim is not None:
        raise DocumentError(f"declared dim {declared} does not match content dim {dim}")
    return Document(kind, dim or 0, obj)


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads_document(text)
