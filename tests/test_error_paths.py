"""Reachable error paths, one row per statement: each input ends in the
documented typed error (with its message) or return value.

A row's action takes the test's ``monkeypatch`` and ``tmp_path``; a row
whose action raises anything else, or returns anything else, fails.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest

import qinstr.linalg as linalg
import qinstr.models as models
from qinstr.cli import main
from qinstr.effects import CoexistenceWitness, atom, binary_observables_from_coexistence, check_coexistence_witness
from qinstr.effects import ensure_effect, ensure_state
from qinstr.errors import (
    DimensionError,
    DocumentError,
    EigenSolverError,
    InvalidWitness,
    InvariantViolation,
    KindError,
    LabelError,
    NotCommutative,
    NotHermitian,
    NotNormal,
    QinstrError,
    WeightError,
)
from qinstr.instruments import (
    Instrument,
    Operation,
    compose_operations,
    instr_conditioned,
    instr_convex_combo,
    identity_instrument,
    kraus_instrument,
    op_apply,
    operations_close,
    trivial_instrument,
)
from qinstr.linalg import complete_to_unitary, herm_eig, is_unitary, partial_trace_first
from qinstr.models import (
    FIMM,
    VonNeumannModel,
    dilate_instrument,
    marginal_instruments,
    normal_fimm_kraus_extract,
    swap_unitary,
    trivial_fimm,
    vn_model_for_commutative,
    von_neumann_unitary,
)
from qinstr.observables import (
    Observable,
    StochasticMatrix,
    atomic_observable,
    check_weights,
    find_joint_observable,
    identity_observable,
    obs_commute,
    obs_convex_combo,
    obs_triple_joint,
)
from qinstr.rand import random_fimm, random_instrument, random_kraus_instrument, random_observable, random_stochastic
from qinstr.serialize import dumps_document, loads_document, save_document

from conftest import P0, P1

Z = Observable({"0": P0, "1": P1})
TRIVIAL_3 = Observable({"0": np.eye(3)})
ONE_2 = Observable({"0": np.eye(2)})
STATE_3 = np.eye(3) / 3
ID_2 = Operation.identity(2)
ID_3 = Operation.identity(3)
HALF_2 = Operation.from_kraus([np.sqrt(0.5) * np.eye(2)])
SPLIT_2 = identity_instrument({"a": 0.5, "b": 0.5}, 2)
SPLIT_3 = identity_instrument({"a": 0.5, "b": 0.5}, 3)
RNG = np.random.default_rng(0)


def _cli(argv: list[str]) -> str:
    """The exit code and the one stderr line of a CLI run, as ``code: line``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{code}: {err.getvalue().rstrip()}"


def _verify_with_tol(monkeypatch, tmp_path):
    monkeypatch.setenv("QINSTR_TOL", "tight")
    return _cli(["verify", "--suite", "ex-1"])


def _convex_with_words(monkeypatch, tmp_path):
    path = tmp_path / "z.json"
    save_document(Z, str(path))
    return _cli(["compute", "convex", "half,half", str(path), str(path), "-o", str(tmp_path / "out.json")])


def _convex_with_nan(monkeypatch, tmp_path):
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for path in paths:
        save_document(SPLIT_2, path)
    return _cli(["compute", "convex", "nan,1", *paths, "-o", str(tmp_path / "out.json")])


def _eigh_fails(monkeypatch, tmp_path):
    def broken(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(linalg.np.linalg, "eigh", broken)
    return herm_eig(np.eye(2))


def _no_eigenbasis_attempts(monkeypatch, tmp_path):
    monkeypatch.setattr(models, "EIGENBASIS_ATTEMPTS", 0)
    return vn_model_for_commutative(Z)


def _completeness_below_residual(monkeypatch, tmp_path):
    model = dilate_instrument(identity_instrument({"a": 0.5, "b": 0.5}, 2))
    monkeypatch.setattr(models, "NORMAL_SUM_TOL", -1.0)
    return normal_fimm_kraus_extract(model)


# (row id, action, expected): an exception type and a pattern its message
# matches, or a value the action returns.
ROWS = [
    # cli: usage errors exit 2
    ("cli-tol-not-a-number", _verify_with_tol, "2: error: QINSTR_TOL must be a number, got 'tight'"),
    ("cli-weights-not-numbers", _convex_with_words, "2: error: expected comma-separated weights, got 'half,half'"),
    ("cli-weights-nan", _convex_with_nan, "2: error: array contains non-finite entries"),
    # caller arrays: ragged, mixed-shape or non-numeric ones raise DimensionError
    ("observable-ragged", lambda mp, tp: Observable({"a": [[1, 0], [0]]}), (DimensionError, "mixed shapes")),
    (
        "observable-mixed-dims",
        lambda mp, tp: Observable({"a": np.eye(2), "b": np.eye(3)}),
        (DimensionError, "mixed shapes"),
    ),
    (
        "kraus-instrument-ragged",
        lambda mp, tp: kraus_instrument({"a": [[1, 0], [0]]}),
        (DimensionError, "mixed shapes"),
    ),
    (
        "stochastic-ragged",
        lambda mp, tp: StochasticMatrix(["a", "b"], ["c"], [[1.0], [1.0, 0]]),
        (DimensionError, "mixed shapes"),
    ),
    ("atomic-observable-ragged", lambda mp, tp: atomic_observable([[1, 0], [0]]), (DimensionError, "mixed shapes")),
    ("atomic-observable-vector", lambda mp, tp: atomic_observable([1, 0]), (DimensionError, "expected a 2-D matrix")),
    ("state-of-words", lambda mp, tp: ensure_state([["a", "b"], ["c", "d"]]), (DimensionError, "non-number")),
    ("atom-of-a-word", lambda mp, tp: atom("xy"), (DimensionError, "non-number")),
    (
        "identity-instrument-word-weight",
        lambda mp, tp: identity_instrument({"a": "x"}, 2),
        (DimensionError, "non-number"),
    ),
    ("observable-mixture-word-weight", lambda mp, tp: obs_convex_combo(["x"], [Z]), (DimensionError, "non-number")),
    (
        "instrument-mixture-nan-weight",
        lambda mp, tp: instr_convex_combo([np.nan, 1.0], [SPLIT_2, SPLIT_2]),
        (QinstrError, "non-finite"),
    ),
    ("instrument-mixed-dims", lambda mp, tp: Instrument({"a": ID_2, "b": ID_3}), (DimensionError, "mismatch 2 vs 3")),
    # caller arrays: only integer, real and complex entries are numbers
    ("weights-numeric-strings", lambda mp, tp: check_weights(["0.5", "0.5"], 2), (DimensionError, "non-number")),
    ("weights-boolean", lambda mp, tp: check_weights([True], 1), (DimensionError, "non-number")),
    (
        "identity-instrument-numeric-string-weight",
        lambda mp, tp: identity_instrument({"a": "1"}, 2),
        (DimensionError, "non-number"),
    ),
    ("numbers-integer-overflow", lambda mp, tp: linalg.as_numbers([10**400]), (DimensionError, "non-number")),
    ("numbers-complex-as-real", lambda mp, tp: linalg.as_numbers([1j], float), (DimensionError, "non-number")),
    # caller arrays: an entry beyond NUMBER_MAX is refused before a check can overflow on it
    ("effect-near-limit", lambda mp, tp: ensure_effect([[0, 1e308], [0, 0]]), (QinstrError, "number out of range")),
    (
        "kraus-instrument-near-limit",
        lambda mp, tp: kraus_instrument({"a": [[1e200, 0], [0, 0]]}),
        (QinstrError, "number out of range"),
    ),
    (
        "complete-to-unitary-near-limit",
        lambda mp, tp: complete_to_unitary([[1e200, 1e200, 0], [1e200, -1e200, 0]], 3),
        (QinstrError, "number out of range"),
    ),
    ("kraus-not-a-sequence", lambda mp, tp: Operation.from_kraus(5), (DimensionError, r"got shape \(\)")),
    ("kraus-none", lambda mp, tp: Operation.from_kraus([]), (DimensionError, "need at least one Kraus operator")),
    # effects
    ("ensure-state-trace-one", lambda mp, tp: ensure_state(0.5 * P0), (InvariantViolation, "trace-one")),
    (
        "witness-non-effect-block",
        lambda mp, tp: check_coexistence_witness(P0, P1, CoexistenceWitness(2 * P0, P1, 0 * P0)),
        False,
    ),
    (
        "witness-mismatched-shapes",
        lambda mp, tp: check_coexistence_witness(P0, np.eye(3), CoexistenceWitness(P0, P1, 0 * P0)),
        False,
    ),
    (
        "witness-build-non-effect",
        lambda mp, tp: binary_observables_from_coexistence(2 * P0, P1, CoexistenceWitness(2 * P0, P1, 0 * P0)),
        (InvalidWitness, "not two effects and a witness of one shape: effect-range, residual 1"),
    ),
    (
        "witness-build-mismatched-shapes",
        lambda mp, tp: binary_observables_from_coexistence(P0, np.eye(3), CoexistenceWitness(P0, P1, 0 * P0)),
        (InvalidWitness, "not two effects and a witness of one shape: expected numbers in a regular array"),
    ),
    (
        "witness-build-leftover-out-of-range",
        lambda mp, tp: binary_observables_from_coexistence(P0, P1, CoexistenceWitness(P0, P1, 0.1 * P0)),
        (InvalidWitness, "witness blocks are not a joint observable of the effects: effect-range, residual 0.1"),
    ),
    (
        "witness-non-hermitian",
        lambda mp, tp: check_coexistence_witness(np.array([[0.5, 0.3], [0.0, 0.5]]), P1, CoexistenceWitness(P0, P1, 0 * P0)),
        (NotHermitian, "anti-Hermitian residual"),
    ),
    # instruments
    ("operation-apply-dim", lambda mp, tp: ID_2.apply(np.eye(3)), (DimensionError, r"input shape \(3, 3\)")),
    ("op-apply-dim", lambda mp, tp: op_apply(ID_2, STATE_3), (DimensionError, "state dim 3, operation dim 2")),
    ("repr-channel", lambda mp, tp: repr(ID_2), "Operation(dim=2, channel)"),
    ("repr-operation", lambda mp, tp: repr(HALF_2), "Operation(dim=2, operation)"),
    ("operations-close-across-dims", lambda mp, tp: operations_close(ID_2, ID_3, 1.0), False),
    ("instrument-non-operation", lambda mp, tp: Instrument({"a": np.eye(2)}), (KindError, "Operation instances")),
    ("instrument-of-an-operation", lambda mp, tp: Instrument(ID_2), (KindError, "pairs, got Operation")),
    ("observable-of-a-number", lambda mp, tp: Observable(5), (KindError, "pairs, got int")),
    ("observable-of-a-string", lambda mp, tp: Observable("ab"), (KindError, "pairs, got str")),
    ("random-stochastic-count-labels", lambda mp, tp: random_stochastic(3, 2, RNG), (LabelError, "labels, got int")),
    ("random-observable-count-labels", lambda mp, tp: random_observable(2, 2, RNG, labels=5), (LabelError, "got int")),
    ("random-observable-too-few-labels", lambda mp, tp: random_observable(2, 2, RNG, labels=["a"]), (LabelError, "1 for 2 outcomes")),
    ("random-instrument-negative-outcomes", lambda mp, tp: random_instrument(2, -1, RNG), (LabelError, "one outcome, got -1")),
    ("trivial-instrument-dim", lambda mp, tp: trivial_instrument(Z, STATE_3), (DimensionError, "state dim 3")),
    ("compose-dim", lambda mp, tp: compose_operations(ID_2, ID_3), (DimensionError, "mismatch 2 vs 3")),
    ("conditioned-dim", lambda mp, tp: instr_conditioned(SPLIT_2, SPLIT_3), (DimensionError, "mismatch 2 vs 3")),
    ("identity-instrument-zero", lambda mp, tp: identity_instrument({"a": 1.0}, 0), (DimensionError, "at least 1")),
    ("identity-instrument-negative", lambda mp, tp: identity_instrument({"a": 1.0}, -1), (DimensionError, "at least 1")),
    ("operation-identity-negative", lambda mp, tp: Operation.identity(-1), (DimensionError, "at least 1")),
    # linalg
    ("atom-empty", lambda mp, tp: atom([]), (DimensionError, "nonempty vector")),
    ("atom-nan", lambda mp, tp: atom([np.nan]), (QinstrError, "non-finite")),
    ("eigensolver-fails", _eigh_fails, (EigenSolverError, "did not converge")),
    ("partial-trace-first-shape", lambda mp, tp: partial_trace_first(np.eye(3), 2, 2), (DimensionError, "expected shape")),
    ("is-unitary-non-square", lambda mp, tp: is_unitary(np.ones((2, 3))), False),
    # models
    (
        "fimm-operation-dim",
        lambda mp, tp: FIMM(2, 2, P0, ID_2, Z),
        (DimensionError, "interaction dim 2, expected 4"),
    ),
    ("fimm-dims-below-one", lambda mp, tp: FIMM(0, 2, P0, np.eye(2), Z), (DimensionError, "at least 1")),
    ("fimm-pointer-dim", lambda mp, tp: FIMM(2, 2, P0, np.eye(4), TRIVIAL_3), (DimensionError, "pointer dim 3")),
    (
        "fimm-instrument-pointer",
        lambda mp, tp: FIMM(2, 2, P0, np.eye(4), SPLIT_2),
        (KindError, "pointer must be an Observable, got Instrument"),
    ),
    ("fimm-array-pointer", lambda mp, tp: FIMM(2, 2, P0, np.eye(4), P0), (KindError, "got ndarray")),
    (
        "von-neumann-instrument-pointer",
        lambda mp, tp: VonNeumannModel(np.eye(2), np.eye(2), SPLIT_2),
        (KindError, "pointer must be an Observable, got Instrument"),
    ),
    ("von-neumann-array-pointer", lambda mp, tp: VonNeumannModel(np.eye(2), np.eye(2), P0), (KindError, "got ndarray")),
    ("trivial-fimm-array-pointer", lambda mp, tp: trivial_fimm(P0, P0), (KindError, "got ndarray")),
    (
        "repr-fimm",
        lambda mp, tp: repr(trivial_fimm(P0, Z)),
        "FIMM(dim_base=2, dim_probe=2, pointer_labels=['0', '1'], sharp=True)",
    ),
    ("swap-unitary-zero", lambda mp, tp: swap_unitary(0), (DimensionError, "at least 1")),
    ("trivial-fimm-dim", lambda mp, tp: trivial_fimm(P0, TRIVIAL_3), (DimensionError, "pointer dim 3, state dim 2")),
    ("von-neumann-unequal-bases", lambda mp, tp: von_neumann_unitary(np.eye(2), np.eye(3)), (DimensionError, "equal")),
    ("no-eigenbasis-attempts", _no_eigenbasis_attempts, (NotCommutative, "joint eigenbasis")),
    ("normal-completeness", _completeness_below_residual, (NotNormal, "miss completeness")),
    ("marginals-not-product", lambda mp, tp: marginal_instruments(SPLIT_2), (LabelError, "not a product label")),
    # observables
    (
        "stochastic-unknown-pair",
        lambda mp, tp: StochasticMatrix(["a"], ["b"], [[1.0]]).value("a", "c"),
        (LabelError, "unknown label pair"),
    ),
    (
        "stochastic-no-rows",
        lambda mp, tp: StochasticMatrix([], [], np.zeros((0, 0))),
        (LabelError, "a stochastic matrix needs at least one row"),
    ),
    (
        "stochastic-no-rows-one-column",
        lambda mp, tp: StochasticMatrix([], ["a"], np.zeros((0, 1))),
        (LabelError, "a stochastic matrix needs at least one row"),
    ),
    ("weights-count", lambda mp, tp: check_weights([0.5, 0.5], 3), (WeightError, "expected 3 weights")),
    ("weights-negative", lambda mp, tp: check_weights([1.5, -0.5], 2), (WeightError, "negative weight")),
    ("weights-stacked", lambda mp, tp: obs_convex_combo([[0.5, 0.5]], [Z, Z]), (WeightError, r"got shape \(1, 2\)")),
    ("mixture-value-spaces", lambda mp, tp: obs_convex_combo([0.5, 0.5], [Z, ONE_2]), (LabelError, "value-space")),
    (
        "mixture-dims",
        lambda mp, tp: obs_convex_combo([0.5, 0.5], [ONE_2, TRIVIAL_3]),
        (DimensionError, "mixed dimensions"),
    ),
    ("commute-dim", lambda mp, tp: obs_commute(Z, TRIVIAL_3), (DimensionError, "mismatch 2 vs 3")),
    ("triple-joint-dim", lambda mp, tp: obs_triple_joint(Z, Z, TRIVIAL_3), (DimensionError, "mismatch")),
    ("find-joint-dim", lambda mp, tp: find_joint_observable(Z, TRIVIAL_3), (DimensionError, "mismatch 2 vs 3")),
    ("identity-observable-negative", lambda mp, tp: identity_observable({"a": 1.0}, -2), (DimensionError, "at least 1")),
    # serialize
    ("bare-matrix-without-kind", lambda mp, tp: dumps_document(np.eye(2)), (DocumentError, "explicit kind")),
    ("unsupported-object", lambda mp, tp: dumps_document(object()), (DocumentError, "type object")),
    ("document-not-an-object", lambda mp, tp: loads_document("[]"), (DocumentError, "must be a JSON object")),
]


@pytest.mark.parametrize("action, expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_error_path(action, expected, monkeypatch, tmp_path):
    if isinstance(expected, tuple):
        error, pattern = expected
        with pytest.raises(error, match=pattern) as raised:
            action(monkeypatch, tmp_path)
        assert type(raised.value) is error
    else:
        assert action(monkeypatch, tmp_path) == expected


@pytest.mark.parametrize(
    "draw, error, untouched",
    [
        (lambda rng: random_observable(2, 0, rng), LabelError, True),
        (lambda rng: random_instrument(2, 0, rng), LabelError, True),
        (lambda rng: random_instrument(2, 2, rng, 0), DimensionError, True),
        (lambda rng: random_kraus_instrument(2, 0, rng), LabelError, True),
        (lambda rng: random_fimm(2, 2, 0, rng), LabelError, False),  # its probe state and interaction come first
    ],
)
def test_random_families_check_their_counts_before_drawing(draw, error, untouched):
    # A count of zero outcomes or operators is a typed error, with no numpy
    # warning first (a zero completeness sum would be whitened otherwise), so
    # it stays typed under -W error::RuntimeWarning; the family is never drawn.
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as raised:
            draw(rng)
    assert type(raised.value) is error
    assert (rng.bit_generator.state == np.random.default_rng(0).bit_generator.state) == untouched
