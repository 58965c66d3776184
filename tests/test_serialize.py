import copy
import json
import random

import numpy as np
import pytest

from qinstr.errors import DocumentError
from qinstr.instruments import instruments_close, luders_instrument, operations_close
from qinstr.linalg import EFFECT_ROUND_TOL, frob
from qinstr.observables import Observable, atomic_observable, fourier_mub, observables_close
from qinstr.rand import (
    random_effect,
    random_fimm,
    random_instrument,
    random_observable,
    random_state,
    random_stochastic,
    random_unitary,
)
from qinstr.serialize import (
    canonical_json,
    document_dict,
    dumps_document,
    encode_matrix,
    load_document,
    loads_document,
    save_document,
)

from conftest import DEEP_DOCUMENT, MALFORMED_DOCUMENTS, MALFORMED_KRAUS, P0, WELL_FORMED_DOCUMENTS, kraus_document


class TestCanonicalJson:
    def test_sorted_keys_and_digits(self):
        text = canonical_json({"b": 1.0, "a": 1.0 / 3.0})
        assert text == '{"a":0.33333333333333331,"b":1}'

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == "0"

    def test_round_trip_stability(self):
        value = {"m": [[0.1, -0.25], [1e-17, 3.0]]}
        once = canonical_json(value)
        again = canonical_json(json.loads(once))
        assert once == again

    @pytest.mark.parametrize("value", [True, None, (1, 2), np.float64(1.0), np.int64(1)])
    def test_types_a_document_does_not_hold_rejected(self, value):
        with pytest.raises(DocumentError, match="cannot serialize"):
            canonical_json(value)
        with pytest.raises(DocumentError, match="cannot serialize"):
            canonical_json({"value": [value]})


# -- the one-string matrix writer against the recursive writer ----------------------


def _oracle_number(x: float) -> str:
    v = float(x)
    if v == 0.0:
        return "0"
    return format(v, ".17g")


def oracle_canonical_json(value: object) -> str:
    """The recursive writer that formatted every float on its own; the
    one-string matrix writer must give the same text."""
    from typing import Mapping

    if isinstance(value, Mapping):
        inner = ",".join(
            f"{json.dumps(str(k))}:{oracle_canonical_json(value[k])}" for k in sorted(value)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(oracle_canonical_json(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _oracle_number(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(type(value).__name__)


def oracle_encode_matrix(m) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m, dtype=complex)]


def _channel_fimm(dim: int, rng):
    from qinstr.instruments import instr_channel
    from qinstr.models import FIMM

    channel = instr_channel(random_instrument(dim, 2, rng))
    return FIMM(dim, 1, np.eye(1), channel, Observable({"only": np.eye(1)}))


def _documents_of_dim(dim: int):
    rng = np.random.default_rng(100 + dim)
    return [
        (random_effect(dim, rng), "effect"),
        (random_state(dim, rng), "state"),
        (random_observable(dim, 3, rng), None),
        (random_instrument(dim, 3, rng), None),
        (random_fimm(dim, 2, 2, rng), None),
        (_channel_fimm(dim, rng), None),
        (random_stochastic(["0", "1", "2"], ["a", "b"], rng), None),
        (float(rng.normal()), "scalar"),
    ]


_SPECIAL_VALUES = [-0.0, 5e-324, 1e-300, 1e308, 0.1, 1.0, -1.0, 2.0**53 + 1]


class TestOneStringWriter:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_every_kind_matches_recursive_writer(self, dim):
        for obj, kind in _documents_of_dim(dim):
            assert dumps_document(obj, kind) == oracle_canonical_json(document_dict(obj, kind)) + "\n"

    def test_sixteen_outcome_product(self):
        from qinstr.instruments import instr_product

        rng = np.random.default_rng(5)
        prod = instr_product(random_instrument(3, 4, rng), random_instrument(3, 4, rng))
        assert len(prod.labels) == 16
        assert dumps_document(prod) == oracle_canonical_json(document_dict(prod)) + "\n"

    @pytest.mark.parametrize("value", _SPECIAL_VALUES)
    def test_special_values(self, value):
        vals = np.array(_SPECIAL_VALUES)
        m = np.array([[complex(value, -0.0), complex(-0.0, value)], [complex(value, value), 1.0]])
        m_all = (vals[:, None] + 1j * vals[None, ::-1]).astype(complex)
        for matrix in (m, m_all, m_all.T):
            text = dumps_document(matrix, "effect")
            assert text == oracle_canonical_json(document_dict(matrix, "effect")) + "\n"
            assert text == oracle_canonical_json({"dim": matrix.shape[0], "kind": "effect", "matrix": oracle_encode_matrix(matrix)}) + "\n"
        assert "-0," not in text and "-0]" not in text

    def test_document_dict_keeps_nested_lists(self, rng):
        i = random_instrument(2, 2, rng)
        doc = document_dict(i)
        choi = doc["operations"]["0"]["choi"]
        assert type(choi) is list and type(choi[0]) is list and type(choi[0][0][0]) is float
        assert choi == oracle_encode_matrix(i["0"].choi)
        json.dumps(doc)

    def test_encode_matrix_matches_row_loop(self, rng):
        m = random_state(4, rng)
        assert encode_matrix(m) == oracle_encode_matrix(m)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_not_written(self, value):
        with pytest.raises(DocumentError):
            canonical_json({"value": value})
        with pytest.raises(DocumentError):
            dumps_document(value, "scalar")


class TestDocumentRoundTrips:
    def test_effect(self, tmp_path, rng):
        path = tmp_path / "effect.json"
        save_document(P0, str(path), kind="effect")
        doc = load_document(str(path))
        assert doc.kind == "effect" and doc.dim == 2
        assert frob(doc.obj - P0) < 1e-12

    def test_state(self, tmp_path, rng):
        rho = random_state(3, rng)
        path = tmp_path / "state.json"
        save_document(rho, str(path), kind="state")
        doc = load_document(str(path))
        assert doc.kind == "state"
        assert frob(doc.obj - rho) < 1e-12

    def test_observable(self, tmp_path, rng):
        a = random_observable(2, 3, rng)
        path = tmp_path / "obs.json"
        save_document(a, str(path))
        doc = load_document(str(path))
        assert observables_close(doc.obj, a, 1e-12)

    def test_instrument(self, tmp_path, rng):
        i = random_instrument(2, 2, rng)
        path = tmp_path / "instr.json"
        save_document(i, str(path))
        doc = load_document(str(path))
        assert instruments_close(doc.obj, i, 1e-12)

    def test_fimm_unitary_interaction(self, tmp_path, rng):
        m = random_fimm(2, 2, 2, rng)
        path = tmp_path / "fimm.json"
        save_document(m, str(path))
        doc = load_document(str(path))
        assert doc.kind == "fimm" and doc.dim == 2
        assert frob(doc.obj.probe_state - m.probe_state) < 1e-12
        assert frob(doc.obj.interaction - m.interaction) < 1e-12
        assert observables_close(doc.obj.pointer, m.pointer, 1e-12)

    def test_fimm_choi_interaction(self, tmp_path, rng, sharp_z):
        from qinstr.instruments import instr_channel
        from qinstr.models import FIMM

        # dim_base 2, dim_probe 1: the composite channel is the base channel
        channel = instr_channel(luders_instrument(sharp_z))
        m = FIMM(2, 1, np.eye(1), channel, Observable({"only": np.eye(1)}))
        path = tmp_path / "fimm2.json"
        save_document(m, str(path))
        doc = load_document(str(path))
        assert operations_close(doc.obj.interaction, channel, 1e-12)

    def test_stochastic(self, tmp_path, rng):
        nu = random_stochastic(["a", "b"], ["x", "y", "z"], rng)
        path = tmp_path / "nu.json"
        save_document(nu, str(path))
        doc = load_document(str(path))
        assert doc.obj.row_labels == ("a", "b")
        assert np.allclose(doc.obj.matrix, nu.matrix)

    def test_scalar(self, tmp_path):
        path = tmp_path / "p.json"
        save_document(0.25, str(path))
        doc = load_document(str(path))
        assert doc.kind == "scalar" and doc.obj == 0.25

    def test_save_load_save_byte_identical(self, tmp_path, rng):
        from qinstr.instruments import instr_product

        objects = [
            (random_observable(2, 2, rng), None),
            (random_state(2, rng), "state"),
            (random_fimm(2, 2, 2, rng), None),
        ]
        # the Choi matrices of Kraus-built operations, odd d included
        objects += [(random_instrument(d, 2, rng, k), None) for d in range(1, 9) for k in (1, 2)]
        objects.append((instr_product(random_instrument(3, 2, rng), random_instrument(3, 2, rng, 1)), None))
        # effects whose eigenvalues leave [0, 1] by rounding, which the loader keeps as they are
        objects += [(atomic_observable(fourier_mub(d)[1]), None) for d in range(2, 6)]
        objects += [(random_effect(d, rng), "effect") for d in range(2, 6) for _ in range(10)]
        for obj, kind in objects:
            text = dumps_document(obj, kind)
            doc = loads_document(text)
            assert dumps_document(doc.obj, kind) == text

    def test_an_effect_outside_the_range_is_clamped_once(self, rng):
        for d in range(2, 6):
            u = random_unitary(d, rng)
            spectrum = np.linspace(-5e-10, 1.0 + 5e-10, d)
            first = dumps_document(u @ np.diag(spectrum) @ u.conj().T, "effect")
            second = dumps_document(loads_document(first).obj, "effect")
            assert second != first
            w = np.linalg.eigvalsh(loads_document(second).obj)
            assert w[0] >= -EFFECT_ROUND_TOL and w[-1] <= 1.0 + EFFECT_ROUND_TOL
            assert dumps_document(loads_document(second).obj, "effect") == second

    def test_product_labels_round_trip(self, rng):
        from qinstr.instruments import instr_product

        i = random_instrument(2, 2, rng)
        prod = instr_product(i, i)
        text = dumps_document(prod)
        doc = loads_document(text)
        assert doc.obj.labels == prod.labels  # tuple labels survive "x|y" form
        assert instruments_close(doc.obj, prod, 1e-12)
        assert dumps_document(doc.obj) == text


class TestKrausLoading:
    def test_kraus_list_reconstructs_instrument(self, tmp_path, sharp_z):
        payload = {
            "kind": "instrument",
            "dim": 2,
            "labels": ["0", "1"],
            "operations": {
                "0": {"kraus": [[[ [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]},
                "1": {"kraus": [[[ [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
            },
        }
        path = tmp_path / "luders.json"
        path.write_text(json.dumps(payload))
        doc = load_document(str(path))
        assert instruments_close(doc.obj, luders_instrument(sharp_z), 1e-10)

    @pytest.mark.parametrize("case", sorted(MALFORMED_KRAUS))
    def test_malformed_kraus_is_document_error(self, case):
        with pytest.raises(DocumentError):
            loads_document(kraus_document(MALFORMED_KRAUS[case]))


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_is_document_error(self, case):
        with pytest.raises(DocumentError):
            loads_document(json.dumps(MALFORMED_DOCUMENTS[case]))

    def test_well_formed_fimm_loads(self):
        from conftest import _FIMM

        assert loads_document(json.dumps(_FIMM)).kind == "fimm"

    @pytest.mark.parametrize("kind", sorted(WELL_FORMED_DOCUMENTS))
    def test_bases_of_the_unread_field_cases_load(self, kind):
        assert loads_document(json.dumps(WELL_FORMED_DOCUMENTS[kind])).kind == kind

    def test_integral_float_dim_accepted(self):
        doc = loads_document(json.dumps({"kind": "effect", "dim": 2.0, "matrix": [[1, 0], [0, 1]]}))
        assert doc.dim == 2


class TestInvariantReporting:
    def test_observable_sum_violation_named(self, tmp_path):
        payload = {
            "kind": "observable",
            "dim": 2,
            "labels": ["0", "1"],
            "effects": {
                "0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "1": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DocumentError) as exc:
            load_document(str(path))
        assert exc.value.invariant == "sum-to-identity"
        assert exc.value.residual == pytest.approx(0.1, abs=1e-9)
        assert "sum-to-identity" in str(exc.value)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError) as exc:
            load_document(str(path))
        assert "parse error" in str(exc.value)

    def test_deep_nesting_is_parse_error(self):
        with pytest.raises(DocumentError) as exc:
            loads_document(DEEP_DOCUMENT)
        assert "parse error" in str(exc.value)

    def test_non_finite_matrix_is_not_encoded(self):
        with pytest.raises(DocumentError):
            dumps_document(np.array([[np.inf, 0.0], [0.0, 1.0]]), "effect")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"kind": "banana"}')
        with pytest.raises(DocumentError):
            load_document(str(path))

    def test_dim_mismatch(self, tmp_path):
        payload = {"kind": "state", "dim": 3, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DocumentError):
            load_document(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_document(str(tmp_path / "nope.json"))


# -- seeded mutation fuzzer -------------------------------------------------------


def _canonical_documents() -> list[dict]:
    """One canonical d = 2 document of every kind."""
    rng = np.random.default_rng(11)
    objects = [
        (random_effect(2, rng), "effect"),
        (random_state(2, rng), "state"),
        (random_observable(2, 2, rng), None),
        (random_instrument(2, 2, rng), None),
        (random_fimm(2, 2, 2, rng), None),
        (random_stochastic(["0", "1"], ["a", "b"], rng), None),
        (0.25, "scalar"),
    ]
    return [json.loads(dumps_document(obj, kind)) for obj, kind in objects]


def _slots(value):
    """Every ``(container, key)`` slot below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


_OTHER_TYPES = [None, True, "x", 7, 0.5, [], {}]


def _mutate(doc: dict, pick: random.Random) -> dict:
    """One random mutation of a copy of ``doc``."""
    doc = copy.deepcopy(doc)
    slots = list(_slots(doc))
    kind = pick.choice(["delete-key", "swap-type", "duplicate-label", "huge-entry", "wrap", "drop-row"])
    if kind == "delete-key":
        parent, key = pick.choice([s for s in slots if isinstance(s[0], dict)])
        del parent[key]
    elif kind == "swap-type":
        parent, key = pick.choice(slots)
        parent[key] = pick.choice([v for v in _OTHER_TYPES if type(v) is not type(parent[key])])
    elif kind == "duplicate-label":
        lists = [p[k] for p, k in slots if isinstance(p, dict) and k.endswith("labels") and p[k]]
        if lists:
            labels = pick.choice(lists)
            labels.append(pick.choice(labels))
    elif kind == "huge-entry":
        numbers = [s for s in slots if type(s[0][s[1]]) in (int, float)]
        parent, key = pick.choice(numbers)
        parent[key] = pick.choice([1e308, -1e308])
    elif kind == "wrap":
        parent, key = pick.choice(slots)
        parent[key] = [parent[key]]
    else:
        rows = [p[k] for p, k in slots if isinstance(p[k], list) and p[k] and isinstance(p[k][0], list)]
        if rows:
            target = pick.choice(rows)
            del target[pick.randrange(len(target))]
    return doc


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name}")


def _fuzz_cases(count: int):
    """Every top-level value of each canonical document swapped for every
    other JSON type, then ``count`` random mutations anywhere."""
    bases = _canonical_documents()
    for base in bases:
        for key in base:
            for value in _OTHER_TYPES:
                yield {**base, key: value}
    pick = random.Random(20240817)
    for _ in range(count):
        yield _mutate(pick.choice(bases), pick)


class TestMutationFuzzer:
    def test_every_mutation_loads_or_is_document_error(self):
        outcomes = []
        for case in _fuzz_cases(300):
            try:
                doc = loads_document(json.dumps(case))
            except DocumentError:
                outcomes.append(False)
                continue
            outcomes.append(True)
            json.loads(dumps_document(doc.obj, doc.kind), parse_constant=_reject_constant)
        assert any(outcomes) and not all(outcomes)
