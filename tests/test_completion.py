"""One completeness rule per family kind.

Every observable is held to ``SUM_TOL`` and every instrument to
``CHOI_TOL``, whatever built it.  A derived family adds up the sum defects of
its inputs, so the two assembly steps complete it: ``instruments._assembled``
(every derived instrument) up to ``MODEL_TOL`` and ``Observable._valid``
(every derived observable) up to ``JOINT_TOL``, and each raises beyond.  The
public constructors and the document loader complete nothing.  So every family
the library returns from valid input passes the check a document load applies.
"""

import json

import numpy as np
import pytest

from qinstr.cli import main
from qinstr.effects import joint_feasibility_search
from qinstr.errors import DocumentError, InvariantViolation
from qinstr.instruments import (
    Instrument,
    Operation,
    _assembled,
    induced_observable,
    instr_channel,
    instr_conditioned,
    instr_product,
    luders_instrument,
)
from qinstr.linalg import JOINT_TOL, MODEL_TOL, SEARCH_ITERS, SEARCH_TOL, SUM_TOL, frob, herm_sqrt, hermitian_part
from qinstr.models import FIMM, model_instrument
from qinstr.observables import (
    Observable,
    find_joint_observable,
    identity_observable,
    obs_conditioned,
    obs_convex_combo,
    obs_seq_product,
    obs_triple_joint,
)
from qinstr.rand import random_instrument, random_observable, random_state, random_unitary
from qinstr.serialize import dumps_document, encode_matrix, loads_document, save_document

from conftest import kraus_document

SCALE = 1.0 + 6e-9  # at d = 2 a family scaled by it misses the identity by 8.5e-9, within both kinds' tolerance


def _sum_defect(family) -> float:
    stack = family.stack if isinstance(family, Observable) else family.effects
    return frob(stack.sum(0) - np.eye(family.dim))


def _assert_complete(family) -> None:
    """Sums to the identity to rounding, and a document of it loads."""
    assert _sum_defect(family) <= 1e-15 * family.dim
    loads_document(dumps_document(family))


def _scaled_observable(rng) -> Observable:
    a = random_observable(2, 3, rng)
    return Observable(zip(a.labels, SCALE * a.stack))


def _scaled_instrument(rng) -> Instrument:
    i = random_instrument(2, 3, rng)
    return Instrument._from_kraus(i.labels, np.sqrt(SCALE) * i.kraus, i.counts)


def _borderline_model(rng, eps: float = 0.95e-8) -> FIMM:
    """A model whose pointer sum and interaction each miss by ``eps``, within
    ``SUM_TOL`` and ``UNITARY_TOL``, in the same direction: its document
    loads, and the map it measures misses the identity by about ``1.7 eps``,
    above ``CHOI_TOL``."""
    d = dk = 2
    pointer = random_observable(dk, 3, rng)
    shifted = pointer.stack.copy()
    shifted[0] += eps / np.sqrt(dk) * np.eye(dk)
    u = np.sqrt(1.0 + eps / np.sqrt(d * dk)) * random_unitary(d * dk, rng)
    return FIMM(d, dk, random_state(dk, rng), u, Observable(zip(pointer.labels, shifted)))


def _near_model_tolerance(rng) -> FIMM:
    """The model of ``test_models``' near-tolerance case: a unitary off by
    half ``MODEL_TOL``, given to the unchecked constructor."""
    d, dk = 3, 2
    e = hermitian_part(random_unitary(d * dk, rng))
    u = random_unitary(d * dk, rng) @ herm_sqrt(np.eye(d * dk) + 0.5 * MODEL_TOL * e / frob(e))
    return FIMM._unitary(d, dk, random_state(dk, rng), u, random_observable(dk, 3, rng))


def _noisy_pairs(rng, count: int):
    """White-noise mixtures ``lam A + (1 - lam) 1/2`` of random two-outcome
    observable pairs, d in {2, 3} and lam uniform in [0.3, 1)."""
    for _ in range(count):
        d, lam = int(rng.choice([2, 3])), rng.uniform(0.3, 1.0)
        noise = identity_observable({"0": 0.5, "1": 0.5}, d)
        yield tuple(obs_convex_combo([lam, 1 - lam], [random_observable(d, 2, rng), noise]) for _ in range(2))


class TestDerivedFamiliesAreComplete:
    def test_observable_combinators(self, rng):
        a, b = _scaled_observable(rng), _scaled_observable(rng)
        assert _sum_defect(a) > 8e-9 and _sum_defect(b) > 8e-9
        for family in (
            obs_seq_product(a, b),
            obs_conditioned(a, b),
            obs_triple_joint(a, b, b),
            instr_product(luders_instrument(a), luders_instrument(b)),
        ):
            _assert_complete(family)

    def test_instrument_product_and_conditioning(self, rng):
        i, j = _scaled_instrument(rng), _scaled_instrument(rng)
        assert _sum_defect(i) > 8e-9 and _sum_defect(j) > 8e-9
        _assert_complete(instr_product(i, j))
        _assert_complete(instr_conditioned(i, j))

    def test_instrument_of_a_model_near_the_model_tolerance(self, rng):
        measured = model_instrument(_near_model_tolerance(rng))
        for family in (
            measured,
            induced_observable(measured),
            instr_product(measured, measured),
            instr_conditioned(measured, measured),
        ):
            _assert_complete(family)
        assert instr_channel(measured).is_channel()

    def test_instrument_of_a_borderline_model_document(self, rng):
        m = loads_document(dumps_document(_borderline_model(rng))).obj
        _assert_complete(model_instrument(m))

    def test_found_joints_round_trip_and_combine(self):
        rng = np.random.default_rng(3)
        found = completed = 0
        for a, b in _noisy_pairs(rng, 60):
            joint = find_joint_observable(a, b)
            if joint is None:
                continue
            found += 1
            raw = frob(joint_feasibility_search(a.stack, b.stack, SEARCH_ITERS, SEARCH_TOL).sum(0) - np.eye(a.dim))
            completed += raw > SUM_TOL
            assert _sum_defect(joint) <= raw**2 + 1e-15 * a.dim  # one Newton-Schulz step: 3/4 raw^2 and rounding
            loads_document(dumps_document(joint))
            obs_seq_product(joint, a)
            luders_instrument(joint)
        assert found >= 50 and completed >= 10  # 55 and 24 with this seed


class TestCompletionBounds:
    @pytest.mark.parametrize("miss, completes", [(0.99 * MODEL_TOL, True), (1.01 * MODEL_TOL, False)])
    def test_instrument_assembly(self, miss, completes, rng):
        i = random_instrument(2, 3, rng)
        ops = np.sqrt(1.0 + miss / np.sqrt(2)) * i.kraus.reshape(-1, 2, 2)
        if completes:
            instr = _assembled(i.labels, ops, i.counts)
            assert _sum_defect(instr) <= miss**2 + 2e-15
        else:
            with pytest.raises(InvariantViolation) as exc:
                _assembled(i.labels, ops, i.counts)
            assert exc.value.invariant == "trace-preserving-sum"
            assert exc.value.residual == pytest.approx(miss, rel=1e-6)

    @pytest.mark.parametrize("miss, completes", [(0.99 * JOINT_TOL, True), (1.01 * JOINT_TOL, False)])
    def test_observable_assembly(self, miss, completes, rng):
        a = random_observable(2, 3, rng)
        stack = (1.0 + miss / np.sqrt(2)) * a.stack
        if completes:
            obs = Observable._valid(a.labels, stack)
            assert _sum_defect(obs) <= miss**2 + 2e-15
        else:
            with pytest.raises(InvariantViolation) as exc:
                Observable._valid(a.labels, stack)
            assert exc.value.invariant == "sum-to-identity"
            assert exc.value.residual == pytest.approx(miss, rel=1e-6)

    def test_completion_makes_no_eigensolve(self, rng, eig_calls):
        a = random_observable(3, 4, rng)
        stack = (1.0 + 5e-8) * a.stack
        raw = frob(stack.sum(0) - np.eye(3))
        eig_calls.calls.clear()
        obs = Observable._valid(a.labels, stack)
        assert eig_calls.calls == []
        assert raw > SUM_TOL and _sum_defect(obs) <= raw**2 + 1e-15 * 3

    def test_public_constructors_and_the_loader_complete_nothing(self, rng):
        # Each family misses the identity by 1.7e-8 (the loaded instrument by
        # 1.27e-8): above its kind's tolerance, within its assembly bound.
        a, i = random_observable(2, 3, rng), random_instrument(2, 3, rng)
        twice = SCALE**2
        operations = {x: Operation.from_kraus(np.sqrt(twice) * op._kraus) for x, op in i.items()}
        effects = {x: encode_matrix(0.5 * twice * np.eye(2)) for x in "01"}
        observable = json.dumps({"kind": "observable", "labels": ["0", "1"], "effects": effects})
        instrument = kraus_document([encode_matrix(np.sqrt(1.0 + 0.9e-8) * np.eye(2))])
        for invariant, build in (
            ("sum-to-identity", lambda: Observable(zip(a.labels, twice * a.stack))),
            ("trace-preserving-sum", lambda: Instrument._from_kraus(i.labels, np.sqrt(twice) * i.kraus, i.counts)),
            ("trace-preserving-sum", lambda: Instrument(operations)),
            ("sum-to-identity", lambda: loads_document(observable)),
            ("trace-preserving-sum", lambda: loads_document(instrument)),
        ):
            with pytest.raises((InvariantViolation, DocumentError)) as exc:
                build()
            assert exc.value.invariant == invariant


class TestCommandLine:
    def test_borderline_model_document_measures_a_valid_instrument(self, tmp_path, rng):
        model, out = tmp_path / "model.json", tmp_path / "instr.json"
        save_document(_borderline_model(rng), str(model))
        assert main(["validate", str(model)]) == 0
        assert main(["compute", "model-instr", str(model), "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        assert main(["compute", "j-map", str(out), "-o", str(tmp_path / "obs.json")]) == 0

    @pytest.mark.parametrize("expression", ["product-instr", "conditioned"])
    def test_products_of_loose_instrument_documents(self, expression, tmp_path, rng):
        paths = [str(tmp_path / f"{k}.json") for k in "ij"]
        for path in paths:
            save_document(_scaled_instrument(rng), path)
            assert main(["validate", path]) == 0
        out = str(tmp_path / "out.json")
        assert main(["compute", expression, *paths, "-o", out]) == 0
        assert main(["validate", out]) == 0
