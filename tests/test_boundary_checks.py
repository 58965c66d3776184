"""Checks that stay where a caller's data enters, after derived families
stopped re-checking what their parents proved.

Labels of derived families are trusted but must still be distinct, since
flattening can merge two product labels; caller labels are checked in full;
an observable's square roots and root columns come from one kept
eigendecomposition; an instrument's induced observable is one object; a
coexistence witness is accepted by one rule, the joint observable it is a
view of, so its leftover gets the effect-range check of every effect.
"""

import numpy as np
import pytest

from qinstr.effects import CoexistenceWitness, _witness_joints, binary_observables_from_coexistence, check_coexistence_witness
from qinstr.errors import InvalidWitness, LabelError
from qinstr.instruments import (
    Instrument,
    Operation,
    identity_instrument,
    induced_observable,
    instr_product,
    kraus_instrument,
    luders_instrument,
)
from qinstr.linalg import herm_sqrt, hermitian_part, root_columns
from qinstr.observables import Observable, classify_observable, joint_probability_table
from qinstr.observables import obs_conditioned, obs_seq_product, obs_triple_joint
from qinstr.rand import random_commuting_effect_pair, random_instrument, random_observable, random_state, random_unitary

HALF = 0.5 * np.eye(2, dtype=complex)


class TestLabels:
    def test_flattened_product_labels_that_collide_are_rejected(self):
        # "a" x ("b", "c") and ("a", "b") x "c" both flatten to ("a", "b", "c")
        a = Observable({"a": HALF, ("a", "b"): HALF})
        b = Observable({("b", "c"): HALF, "c": HALF})
        one = Observable({"d": np.eye(2, dtype=complex)})
        calls = (
            lambda: obs_seq_product(a, b),
            lambda: obs_triple_joint(a, b, one),
            lambda: instr_product(luders_instrument(a), luders_instrument(b)),
        )
        for call in calls:
            with pytest.raises(LabelError, match=r"duplicate label \('a', 'b', 'c'"):
                call()

    @pytest.mark.parametrize("label", ["a|b", "", (), ("a", ""), ("a", "b|c"), 3])
    def test_invalid_caller_labels_are_rejected(self, label, rng):
        root_half = np.eye(2, dtype=complex) / np.sqrt(2.0)
        with pytest.raises(LabelError):
            kraus_instrument({label: root_half, "z": root_half})
        with pytest.raises(LabelError):
            identity_instrument({label: 0.5, "z": 0.5}, 2)
        with pytest.raises(LabelError):
            random_observable(2, 2, rng, labels=[label, "z"])

    def test_repeated_caller_labels_are_rejected(self, rng):
        # Mappings cannot repeat a key, so only a label list can.
        with pytest.raises(LabelError, match="duplicate label 'a'"):
            random_observable(2, 2, rng, labels=["a", "a"])
        with pytest.raises(LabelError, match="duplicate label 'a'"):
            random_observable(2, 3, rng, labels=["a", ("a", "b"), "a"])

    def test_public_constructors_still_check_every_label(self):
        with pytest.raises(LabelError):
            Observable({"a|b": HALF, "c": HALF})
        with pytest.raises(LabelError):
            Instrument({"a|b": Operation.from_kraus([HALF * np.sqrt(2.0)]), "c": Operation.from_kraus([HALF * np.sqrt(2.0)])})


class TestRoots:
    def test_roots_are_read_only_and_equal_herm_sqrt(self, rng):
        a, b = random_observable(3, 4, rng), random_observable(3, 2, rng)
        for obs in (a, obs_seq_product(a, b), obs_conditioned(a, b), induced_observable(random_instrument(2, 3, rng))):
            assert obs.roots is obs.roots
            assert obs.roots.shape == obs.stack.shape
            assert not obs.roots.flags.writeable
            assert np.array_equal(obs.roots, herm_sqrt(obs.stack))
            with pytest.raises(ValueError):
                obs.roots[0, 0, 0] = 0.0

    def test_roots_and_root_columns_read_one_eigendecomposition(self, rng, eig_calls):
        a = random_observable(3, 4, rng)
        eig_calls.calls.clear()
        f, keep = a._root_columns
        roots = a.roots
        assert eig_calls.calls == [(3, 4)]
        expected_f, expected_keep = root_columns(a.stack)
        np.testing.assert_array_equal(f, expected_f)
        np.testing.assert_array_equal(keep, expected_keep)
        np.testing.assert_array_equal(roots, herm_sqrt(a.stack))
        assert not f.flags.writeable and not keep.flags.writeable

    def test_public_observable_reuses_its_range_check_eigensolve(self, rng, eig_calls):
        # The range check's (w, V) seeds the roots, so construction and the
        # first read of the roots make one eigh call, and the roots are the
        # ones herm_sqrt gives bitwise; a clamped stack is eigensolved again.
        items = list(random_observable(4, 3, rng).items())
        clamped = [("0", np.diag([1.0 + 1e-11, 0.0])), ("1", np.diag([-1e-11, 1.0]))]
        for effects, calls in ((items, [(4, 3)]), (clamped, [(2, 2), (2, 2)])):
            eig_calls.calls.clear()
            a = Observable(effects)
            roots = a.roots
            assert eig_calls.calls == calls
            assert np.array_equal(roots, herm_sqrt(a.stack))

    def test_induced_observable_is_one_object_per_instrument(self, rng):
        kraus = random_instrument(3, 2, rng)
        choi_only = Instrument({x: Operation.from_choi(op.choi) for x, op in random_instrument(2, 3, rng).items()})
        for instr in (kraus, choi_only):
            assert induced_observable(instr) is induced_observable(instr)

    def test_luders_then_table_take_one_root_eigensolve(self, rng, eig_calls):
        a, b, rho = random_observable(3, 4, rng), random_observable(3, 2, rng), random_state(3, rng)
        eig_calls.calls.clear()
        luders_instrument(a)
        joint_probability_table(rho, a, b)
        assert eig_calls.calls == [(3, 4), (3, 1), (3, 8)]  # the roots of a, the state, every product

    def test_classify_reads_the_kept_eigendecomposition(self, rng, eig_calls):
        # The ranks come from the roots' eigenvalues, so construction, the
        # first roots read and the flags make one eigensolve in all.
        items = list(random_observable(4, 3, rng).items())
        eig_calls.calls.clear()
        a = Observable(items)
        a.roots
        classify_observable(a)
        assert eig_calls.calls == [(4, 3)]


class TestWitness:
    A = np.diag([0.5, 0.0]).astype(complex)

    def test_bad_witness_raises(self):
        w = CoexistenceWitness(a1=self.A, b1=self.A, c=0.1 * np.eye(2, dtype=complex))
        assert not check_coexistence_witness(self.A, self.A, w)
        with pytest.raises(InvalidWitness):
            binary_observables_from_coexistence(self.A, self.A, w)

    def test_stacked_witnesses_are_checked_trial_by_trial(self, rng):
        # Stacks of effect pairs and witnesses give each trial's joint effects
        # and marginal defects, bitwise those of the one-trial check, from one
        # range check; one failing trial rejects the stack.
        a, b = np.stack([random_commuting_effect_pair(3, rng) for _ in range(4)], axis=1)
        ab = hermitian_part(a @ b)
        joint, _, defects = _witness_joints(a, b, CoexistenceWitness(a - ab, b - ab, ab))
        for k in range(4):
            t = slice(k, k + 1)
            one = _witness_joints(a[t], b[t], CoexistenceWitness(a[t] - ab[t], b[t] - ab[t], ab[t]))
            assert np.array_equal(joint[k], one[0][0]) and np.array_equal(defects[k], one[2][0])
            public = binary_observables_from_coexistence(a[k], b[k], CoexistenceWitness(a[k] - ab[k], b[k] - ab[k], ab[k]))
            assert np.array_equal(joint[k], public.stack)
        common = ab.copy()
        common[2] = 0.0  # trial 2's blocks no longer add up to its effects
        with pytest.raises(InvalidWitness):
            _witness_joints(a, b, CoexistenceWitness(a - ab, b - ab, common))
        a1, b1 = a - ab, b - ab
        a1[2], b1[2] = a[2], b[2]  # trial 2's equations hold, but its leftover 1 - a - b is not PSD
        assert np.linalg.eigvalsh(np.eye(3) - a[2] - b[2])[0] < -1e-3
        with pytest.raises(InvalidWitness):
            _witness_joints(a, b, CoexistenceWitness(a1, b1, common))

    def test_leftover_below_the_effect_tolerance_raises(self):
        # One rule: the leftover 1 - a1 - b1 - c is the joint observable's
        # effect ("2", "2"), held to 1e-9 by both functions.  At -5e-9 both
        # reject it; at -5e-10 both accept it, clamped onto [0, 1].
        zero = np.zeros((2, 2), dtype=complex)
        b = np.diag([0.5 + 5e-9, 0.0]).astype(complex)
        w = CoexistenceWitness(a1=self.A, b1=b, c=zero)
        assert not check_coexistence_witness(self.A, b, w)
        with pytest.raises(InvalidWitness) as exc:
            binary_observables_from_coexistence(self.A, b, w)
        assert exc.value.__cause__.invariant == "effect-range"
        assert exc.value.__cause__.residual == pytest.approx(5e-9, rel=1e-6)
        b = np.diag([0.5 + 5e-10, 0.0]).astype(complex)
        w = CoexistenceWitness(a1=self.A, b1=b, c=zero)
        assert check_coexistence_witness(self.A, b, w)
        assert np.linalg.eigvalsh(binary_observables_from_coexistence(self.A, b, w)[("2", "2")])[0] >= 0.0

    # (block perturbed, size, accepted): the leftover shifted at an eigenvector
    # where it is 0 (the equations still exact), or one equation a1 + c = a off
    # by a Frobenius norm of `size` where every block has room.
    PERTURBED = [
        ("leftover", 5e-10, True),
        ("leftover", -5e-10, True),
        ("leftover", 5e-9, True),
        ("leftover", -5e-9, False),
        ("equation", 5e-9, True),
        ("equation", 5e-8, False),
    ]

    @pytest.mark.parametrize("block, size, accepted", PERTURBED)
    def test_check_accepts_exactly_the_witnesses_that_build_a_joint(self, block, size, accepted, rng):
        # Commuting pairs a = u diag(x) u*, b = u diag(y) u* with x0 + y0 > 1 and
        # x1 + y1 < 1, and the witness with the least common part,
        # c = u diag(max(0, x + y - 1)) u*: its leftover is 0 at u[:, 0], where
        # c, a1 and b1 are inside (0, 1), and at least 0.1 at u[:, 1].
        for _ in range(5):
            u = random_unitary(3, rng)
            x = np.array([rng.uniform(0.6, 0.8), rng.uniform(0.05, 0.45), rng.uniform(0.0, 1.0)])
            y = np.array([rng.uniform(0.6, 0.8), rng.uniform(0.05, 0.45), rng.uniform(0.0, 1.0)])
            a, b, c = (u @ np.diag(z) @ u.conj().T for z in (x, y, np.maximum(0.0, x + y - 1.0)))
            p0, p1 = (np.outer(u[:, k], u[:, k].conj()) for k in (0, 1))
            if block == "leftover":
                w = CoexistenceWitness(a1=a - c - size * p0, b1=b - c - size * p0, c=c + size * p0)
            else:
                w = CoexistenceWitness(a1=a - c + size * p1, b1=b - c, c=c)
            try:
                binary_observables_from_coexistence(a, b, w)
                built = True
            except InvalidWitness:
                built = False
            assert check_coexistence_witness(a, b, w) is built is accepted
