"""Stacked family kernels against the per-matrix code they replaced.

The oracles are the former library implementations: the per-effect
``ensure_effect`` loop of ``Observable``, the per-pair ``seq_product``
behind the observable combinators, the Choi sums of
``instr_convex_combo``, ``instr_post_process`` and ``marginal_instruments``,
the per-label distance and marginal loops of the closeness and
coexistence checks, the public ``Operation.from_kraus`` ->
``Instrument`` -> ``Observable`` route that the once-validated family
builders replaced, the set-level joint probabilities that the outcome
tables replaced, and the per-member loops of the atomic observable, the
commutative basis search and the Lüders positivity check.
"""

import numpy as np
import pytest

import qinstr.effects as effects
from qinstr.effects import EFFECT_EIG_TOL, ensure_effect, ensure_effects, seq_product, seq_products
from qinstr.errors import DimensionError, InvariantViolation, KindError, LabelError, NotHermitian, QinstrError
from qinstr.instruments import (
    Instrument,
    Operation,
    identity_instrument,
    induced_observable,
    instr_channel,
    instr_coexist_verify,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    instruments_close,
    is_single_kraus,
    joint_probability_instr,
    joint_probability_table_instr,
    kraus_instrument,
    kraus_instrument_from_channel,
    luders_instrument,
    operations_close,
    trivial_instrument,
)
from qinstr.linalg import RANK_TOL, ensure_hermitian, frob, herm_sqrt, hermitian_part
from qinstr.models import (
    VonNeumannModel,
    dilate_instrument,
    luders_positivity_check,
    marginal_instruments,
    model_instrument,
    normal_fimm_kraus_extract,
    vn_measured,
    vn_model_for_commutative,
)
from qinstr.observables import (
    SUM_TOL,
    Observable,
    ObservableFlags,
    StochasticMatrix,
    atomic_observable,
    check_label,
    classify_observable,
    combine_labels,
    family_distance,
    fourier_mub,
    identity_observable,
    joint_probability_table,
    joint_probability_then,
    marginal_defect,
    obs_coexist_verify,
    obs_commute,
    obs_conditioned,
    obs_seq_product,
    obs_triple_joint,
    observables_close,
)
from qinstr.rand import (
    random_commutative_observable,
    random_fimm,
    random_instrument,
    random_observable,
    random_simplex,
    random_state,
    random_stochastic,
    random_unitary,
)
from qinstr.verify import stored_trivial_instrument

from conftest import kraus_family

DIMS = [2, 3, 4, 5]


# -- oracles: the per-matrix code the kernels replaced --------------------------


def loop_ensure_effect(m, eig_tol=EFFECT_EIG_TOL):
    a = ensure_hermitian(m)
    w, v = np.linalg.eigh(a)
    low, high = float(w[0]), float(w[-1])
    if low < -eig_tol or high > 1.0 + eig_tol:
        raise InvariantViolation("effect-range", max(0.0, -low, high - 1.0))
    if low < 0.0 or high > 1.0:
        a = hermitian_part((v * np.clip(w, 0.0, 1.0)) @ v.conj().T)
    return a


def loop_observable(items, sum_tol=SUM_TOL) -> dict:
    normalized = {}
    for label, matrix in items:
        label = check_label(label)
        if label in normalized:
            raise LabelError(f"duplicate label {label!r}")
        normalized[label] = loop_ensure_effect(matrix)
    dims = {e.shape[0] for e in normalized.values()}
    if len(dims) != 1:
        raise DimensionError(f"effects of mixed dimensions {sorted(dims)}")
    residual = frob(sum(normalized.values()) - np.eye(dims.pop()))
    if residual > sum_tol:
        raise InvariantViolation("sum-to-identity", residual)
    return normalized


def loop_seq_product(a, b):
    ea, eb = loop_ensure_effect(a), loop_ensure_effect(b)
    r = herm_sqrt(ea)
    return loop_ensure_effect(r @ eb @ r)


def loop_classify(a, tol=SUM_TOL) -> ObservableFlags:
    effects = [e for _, e in a.items()]
    eye = np.eye(a.dim)
    identity = all(frob(e - (np.trace(e).real / a.dim) * eye) <= tol for e in effects)
    ranks = []
    for e in effects:
        w = np.linalg.eigvalsh(e)
        ranks.append(0 if w[-1] <= RANK_TOL else int(np.sum(w > RANK_TOL * w[-1])))
    projections = [frob(e @ e - e) <= tol for e in effects]
    commutative = all(
        frob(effects[i] @ effects[j] - effects[j] @ effects[i]) <= tol
        for i in range(len(effects))
        for j in range(i + 1, len(effects))
    )
    return ObservableFlags(
        identity,
        all(r == 1 and p for r, p in zip(ranks, projections)),
        all(r == 1 for r in ranks),
        commutative,
        all(projections),
    )


def choi_convex_combo(weights, instruments) -> dict:
    return {x: sum(w * i[x].choi for w, i in zip(weights, instruments)) for x in instruments[0].labels}


def choi_post_process(nu, instr) -> dict:
    out = {}
    for c, y in enumerate(nu.col_labels):
        total = np.zeros_like(instr[instr.labels[0]].choi)
        for r, x in enumerate(nu.row_labels):
            total = total + nu.matrix[r, c] * instr[x].choi
        out[y] = total
    return out


def choi_marginals(joint) -> tuple[dict, dict]:
    first, second = {}, {}
    for lab in joint.labels:
        x, y = lab[0], (lab[1] if len(lab) == 2 else lab[1:])
        first[x] = first.get(x, 0) + joint[lab].choi
        second[y] = second.get(y, 0) + joint[lab].choi
    return first, second


def loop_distance(a, b) -> float:
    """Per-label distance of effects, or of Choi matrices for instruments."""
    matrix = (lambda m: m.choi) if isinstance(a, Instrument) else (lambda m: m)
    return max(frob(matrix(a[x]) - matrix(b[x])) for x in a.labels)


def loop_marginal_defect(a, b, joint) -> float:
    """Per-label row and column sums of the former coexistence verifiers."""
    matrix = (lambda m: m.choi) if isinstance(a, Instrument) else (lambda m: m)
    rows = [frob(sum(matrix(joint[combine_labels(x, y)]) for y in b.labels) - matrix(a[x])) for x in a.labels]
    cols = [frob(sum(matrix(joint[combine_labels(x, y)]) for x in a.labels) - matrix(b[y])) for y in b.labels]
    return max(rows + cols)


def assert_chois_close(instr, expected: dict, tol=1e-14):
    assert instr.labels == tuple(expected)
    for x, c in expected.items():
        assert frob(instr[x].choi - c) <= tol


def _effect_with_top(d, top, rng):
    """A random effect whose largest eigenvalue is ``top``."""
    u = random_unitary(d, rng)
    w = np.linspace(0.2, top, d)
    return (u * w) @ u.conj().T


# -- L1: effect validation ------------------------------------------------------


class TestEnsureEffects:
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_per_effect_loop(self, d, rng):
        # in range, just above 1 and just below 0 (both clamped), and exact
        stack = np.stack(
            [
                random_observable(d, 2, rng)["0"],
                _effect_with_top(d, 1.0 + 1e-11, rng),
                np.eye(d) - _effect_with_top(d, 1.0 + 1e-11, rng),
                np.eye(d),
            ]
        )
        out = ensure_effects(stack)
        for k, m in enumerate(stack):
            expected = loop_ensure_effect(m)
            assert frob(out[k] - expected) <= 1e-14
            assert frob(ensure_effect(m) - expected) <= 1e-14
        w = np.linalg.eigvalsh(out)
        assert w.min() >= -1e-15 and w.max() <= 1.0 + 1e-15
        assert [np.array_equal(out[k], hermitian_part(stack[k])) for k in range(4)] == [True, False, False, True]

    def test_clamps_only_matrices_outside_the_interval(self, rng):
        inside = random_observable(3, 2, rng)["0"]
        outside = _effect_with_top(3, 1.0 + 1e-11, rng)
        out = ensure_effects(np.stack([inside, outside]))
        assert np.array_equal(out[0], hermitian_part(inside))
        assert not np.array_equal(out[1], hermitian_part(outside))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_effect_range_reports_first_failing_matrix(self, k, rng):
        stack = [random_observable(3, 2, rng)["0"] for _ in range(4)]
        stack[k] = _effect_with_top(3, 1.0 + 1e-6, rng)
        stack[3] = _effect_with_top(3, 1.0 + 1e-3, rng)
        with pytest.raises(InvariantViolation) as exc:
            ensure_effects(np.stack(stack))
        with pytest.raises(InvariantViolation) as oracle:
            loop_observable([(str(n), m) for n, m in enumerate(stack)])
        assert exc.value.invariant == oracle.value.invariant == "effect-range"
        assert exc.value.residual == oracle.value.residual
        assert abs(exc.value.residual - 1e-6) < 1e-12


# -- L1: observables ------------------------------------------------------------


def _single_faults(rng) -> dict:
    a = random_observable(2, 3, rng)
    good = list(a.items())
    skew = good[0][1] + 1e-3 * np.array([[0, 1], [-1, 0]])
    nan = good[0][1].copy()
    nan[0, 1] = np.nan
    wide = _effect_with_top(2, 1.0 + 1e-6, rng)
    return {
        "effect-range": [good[0], ("w", wide), good[2]],
        "non-hermitian": [(good[0][0], skew), *good[1:]],
        "mixed-dimensions": [*good, ("z", np.zeros((3, 3)))],
        "duplicate-label": [*good, (good[0][0], np.zeros((2, 2)))],
        "nan": [(good[0][0], nan), *good[1:]],
        "sum": good[:2],
    }


class TestObservable:
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_per_effect_loop(self, d, rng):
        items = list(random_observable(d, 4, rng).items())
        obs = Observable(items)
        expected = loop_observable(items)
        assert obs.labels == tuple(expected)
        for x, e in expected.items():
            assert frob(obs[x] - e) <= 1e-14

    @pytest.mark.parametrize(
        "fault, error",
        [
            ("effect-range", InvariantViolation),
            ("non-hermitian", NotHermitian),
            ("mixed-dimensions", DimensionError),
            ("duplicate-label", LabelError),
            ("nan", QinstrError),
            ("sum", InvariantViolation),
        ],
    )
    def test_single_fault_errors_match_the_loop(self, fault, error, rng):
        items = _single_faults(rng)[fault]
        with pytest.raises(QinstrError) as exc:
            Observable(items)
        with pytest.raises(QinstrError) as oracle:
            loop_observable(items)
        assert type(exc.value) is type(oracle.value) is error
        if error is InvariantViolation:
            assert exc.value.invariant == oracle.value.invariant
            assert abs(exc.value.residual - oracle.value.residual) <= 1e-15

    def test_effects_are_read_only_views_of_the_stack(self, rng):
        items = list(random_observable(3, 3, rng).items())
        source = [np.array(m) for _, m in items]
        obs = Observable(zip((x for x, _ in items), source))
        assert obs.stack.shape == (3, 3, 3) and not obs.stack.flags.writeable
        for k, x in enumerate(obs.labels):
            assert np.shares_memory(obs[x], obs.stack) and not obs[x].flags.writeable
            assert source[k].flags.writeable and not np.shares_memory(obs[x], source[k])

    @pytest.mark.parametrize("d", DIMS)
    def test_classify_and_commute_match_loops(self, d, rng):
        b1, b2 = fourier_mub(d)
        family = [
            random_observable(d, 3, rng),
            random_commutative_observable(d, 3, rng),
            atomic_observable(b1),
            atomic_observable(random_unitary(d, rng) @ b2),
            identity_observable({"0": 0.25, "1": 0.75}, d),
            Observable({"p": np.diag([1.0] + [0.0] * (d - 1)), "q": np.diag([0.0] + [1.0] * (d - 1))}),
        ]
        for a in family:
            assert classify_observable(a) == loop_classify(a)
            for b in family:
                expected = all(frob(x @ y - y @ x) <= SUM_TOL for _, x in a.items() for _, y in b.items())
                assert obs_commute(a, b) == expected

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_one_eigensolve_per_observable(self, m, rng, eig_calls):
        items = list(random_observable(3, m, rng).items())
        eig_calls.calls.clear()
        Observable(items)
        assert eig_calls.calls == [(3, m)]


# -- L2: sequential products ----------------------------------------------------


class TestSeqProducts:
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_per_pair_loop(self, d, rng):
        a, b = random_observable(d, 2, rng), random_observable(d, 3, rng)
        out = seq_products(a.roots, b.stack)
        assert out.shape == (2, 3, d, d)
        for s, (_, ax) in enumerate(a.items()):
            for t, (_, by) in enumerate(b.items()):
                expected = loop_seq_product(ax, by)
                assert frob(out[s, t] - expected) <= 1e-14
                assert frob(seq_product(ax, by) - expected) <= 1e-14

    @pytest.mark.parametrize("d", DIMS)
    def test_observable_combinators_match_loops(self, d, rng):
        a, b, c = (random_observable(d, m, rng) for m in (2, 3, 2))
        product = obs_seq_product(a, b)
        conditioned = obs_conditioned(a, b)
        triple = obs_triple_joint(a, b, c)
        for x, ax in a.items():
            for y, by in b.items():
                assert frob(product[combine_labels(x, y)] - loop_seq_product(ax, by)) <= 1e-14
                for z, cz in c.items():
                    expected = loop_seq_product(ax, loop_seq_product(by, cz))
                    assert frob(triple[(x, y, z)] - expected) <= 1e-14
        for y, by in b.items():
            expected = sum(loop_seq_product(ax, by) for _, ax in a.items())
            assert frob(conditioned[y] - expected) <= 1e-14
        rho = random_state(d, rng)
        xs, ys = a.labels[:1], b.labels[1:]
        by = sum(b[y] for y in ys)
        expected = sum(np.trace(rho @ loop_seq_product(a[x], by)).real for x in xs)
        assert abs(joint_probability_then(rho, a, xs, b, ys) - expected) <= 1e-14
        assert joint_probability_then(rho, a, [], b, ys) == 0.0

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 4), (5, 3)])
    def test_obs_seq_product_eigensolves_do_not_grow_with_outcomes(self, m, n, rng, eig_calls):
        a, b = random_observable(3, m, rng), random_observable(3, n, rng)
        eig_calls.calls.clear()
        obs_seq_product(a, b)
        # one root of a and one range check of the products; the result's
        # effects are PSD by construction and are not eigensolved again
        assert eig_calls.calls == [(3, m), (3, m * n)]

    def test_products_keep_effect_range_check(self, rng, monkeypatch):
        a, b = random_observable(2, 2, rng), random_observable(2, 2, rng)
        root = effects._effect_root  # seq_product's root of its first effect
        monkeypatch.setattr(effects, "_effect_root", lambda m: (root(m)[0], 1.5 * root(m)[1]))
        monkeypatch.setattr(Observable, "roots", property(lambda o: 1.5 * herm_sqrt(o.stack)))
        for call in (lambda: seq_product(a["0"], np.eye(2)), lambda: obs_seq_product(a, b)):
            with pytest.raises(InvariantViolation) as exc:
                call()
            assert exc.value.invariant == "effect-range"

    def test_luders_roots_from_one_eigensolve(self, rng, eig_calls):
        a = random_observable(3, 4, rng)
        eig_calls.calls.clear()
        instr = luders_instrument(a)
        assert eig_calls.calls[0] == (3, 4)
        for x, e in a.items():
            assert frob(instr[x].kraus_ops()[0] - herm_sqrt(e)) <= 1e-14


# -- L2: weighted sums of operations ---------------------------------------------


def _choi_only(instr: Instrument) -> Instrument:
    return Instrument({x: Operation.from_choi(op.choi) for x, op in instr.items()})


def _no_choi_sized_eigensolve(eig_calls, d):
    return all(n < d * d for n in eig_calls.orders)


class TestWeightedSum:
    @pytest.mark.parametrize("d", DIMS)
    def test_kraus_form_convex_combo(self, d, rng, eig_calls):
        instruments = [random_instrument(d, 3, rng) for _ in range(3)]
        weights = random_simplex(3, rng)
        eig_calls.calls.clear()
        out = instr_convex_combo(weights, instruments)
        assert _no_choi_sized_eigensolve(eig_calls, d)
        assert all(op._kraus is not None for _, op in out.items())
        assert_chois_close(out, choi_convex_combo(weights, instruments))

    @pytest.mark.parametrize("d", DIMS)
    def test_kraus_form_post_process(self, d, rng, eig_calls):
        instr = random_instrument(d, 3, rng)
        nu = random_stochastic(list(instr.labels), ["a", "b"], rng)
        eig_calls.calls.clear()
        out = instr_post_process(nu, instr)
        assert _no_choi_sized_eigensolve(eig_calls, d)
        assert all(op._kraus is not None for _, op in out.items())
        assert_chois_close(out, choi_post_process(nu, instr))

    def test_zero_weights_are_dropped(self, rng):
        instr = random_instrument(2, 2, rng)
        other = random_instrument(2, 2, rng)
        combo = instr_convex_combo([1.0, 0.0], [instr, other])
        for x, op in combo.items():
            assert len(op.kraus_ops()) == len(instr[x].kraus_ops())
        nu = StochasticMatrix(instr.labels, ["all", "none"], [[1.0, 0.0], [1.0, 0.0]])
        out = instr_post_process(nu, instr)
        assert len(out["none"].kraus_ops()) == 1
        assert not np.any(out["none"].choi)
        assert_chois_close(out, choi_post_process(nu, instr))

    @pytest.mark.parametrize("d", [2, 3])
    def test_choi_only_operand_takes_the_choi_route(self, d, rng, eig_calls):
        # A Choi-loaded operand holds the Kraus operators its constructor
        # extracted, so mixing it is the Kraus route too: no Choi-sized
        # eigensolve, and Kraus outcomes whose Choi matrices are not formed.
        kraus_form = random_instrument(d, 2, rng)
        choi_form = _choi_only(random_instrument(d, 2, rng))
        weights = [0.4, 0.6]
        eig_calls.calls.clear()
        out = instr_convex_combo(weights, [kraus_form, choi_form])
        assert _no_choi_sized_eigensolve(eig_calls, d)
        assert all("choi" not in vars(op) and 0 < len(op.kraus_ops()) <= d * d for _, op in out.items())
        assert_chois_close(out, choi_convex_combo(weights, [kraus_form, choi_form]))
        nu = random_stochastic(list(choi_form.labels), ["a", "b", "c"], rng)
        eig_calls.calls.clear()
        processed = instr_post_process(nu, choi_form)
        assert _no_choi_sized_eigensolve(eig_calls, d)
        assert all("choi" not in vars(op) for _, op in processed.items())
        assert_chois_close(processed, choi_post_process(nu, choi_form))

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("choi_only", [False, True])
    def test_marginal_instruments(self, d, choi_only, rng, eig_calls):
        labels = [(x, y) for x in "ab" for y in "uvw"]
        joint = Instrument(zip(labels, (op for _, op in random_instrument(d, 6, rng).items())))
        joint = _choi_only(joint) if choi_only else joint
        eig_calls.calls.clear()
        first, second = marginal_instruments(joint)
        # Choi-loaded outcomes hold their Kraus operators from construction on
        assert _no_choi_sized_eigensolve(eig_calls, d)
        expected_first, expected_second = choi_marginals(joint)
        assert_chois_close(first, expected_first)
        assert_chois_close(second, expected_second)


# -- L2: the trivial instrument --------------------------------------------------


class TestTrivialInstrument:
    @pytest.mark.parametrize("d", DIMS)
    def test_kraus_form_matches_kron(self, d, rng, eig_calls):
        a = random_observable(d, 3, rng)
        alpha = random_state(d, rng)
        eig_calls.calls.clear()
        instr = trivial_instrument(a, alpha)
        assert _no_choi_sized_eigensolve(eig_calls, d)
        for x, e in a.items():
            assert len(instr[x].kraus_ops()) <= d * d
            assert frob(instr[x].choi - np.kron(e.T, alpha)) <= 1e-14

    def test_stored_instrument_has_rank_four_outcomes(self):
        for _, op in stored_trivial_instrument().items():
            w = np.linalg.eigvalsh(op.choi)
            assert int(np.sum(w > 1e-8 * w[-1])) == 4
            assert not is_single_kraus(op)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_roots_from_one_batched_eigensolve(self, m, rng, eig_calls):
        a = random_observable(3, m, rng)
        alpha = random_state(3, rng)
        eig_calls.calls.clear()
        trivial_instrument(a, alpha)
        assert eig_calls.calls == [(3, m + 1)]  # the roots, whose spectrum of alpha is also its state check

    def test_kraus_count_is_effect_rank_times_state_rank(self):
        # Projections of rank 1 and 2, and a state of rank 2.
        a = Observable({"0": np.diag([1.0, 0.0, 0.0]), "1": np.diag([0.0, 1.0, 1.0])})
        alpha = np.diag([0.5, 0.5, 0.0])
        instr = trivial_instrument(a, alpha)
        assert [len(instr[x].kraus_ops()) for x in ("0", "1")] == [2, 4]
        for x, e in a.items():
            assert frob(instr[x].choi - np.kron(e.T, alpha)) <= 1e-15


# -- L1: Kraus input --------------------------------------------------------------


class TestKrausStack:
    def test_caller_array_stays_writeable_and_unaliased(self, rng):
        ops = np.stack([np.sqrt(0.5) * random_unitary(3, rng) for _ in range(2)])
        before = ops.copy()
        op = Operation.from_kraus(ops)
        assert ops.flags.writeable
        assert not np.shares_memory(op._kraus, ops)
        ops[0] = 0.0
        assert np.array_equal(np.stack(op.kraus_ops()), before)

    @pytest.mark.parametrize(
        "ops, error",
        [
            ([], DimensionError),
            ([np.eye(2), np.eye(3)], DimensionError),
            ([np.eye(2), np.ones(2)], DimensionError),
            ([np.ones((2, 3))], DimensionError),
            ([np.ones(2)], DimensionError),
            ([np.full((2, 2), np.nan)], QinstrError),
        ],
    )
    def test_malformed_operators(self, ops, error):
        with pytest.raises(QinstrError) as exc:
            Operation.from_kraus(ops)
        assert type(exc.value) is error


def _perturbed_joint(joint, rng, scale=1e-3):
    """``joint`` with its outcomes in reverse order and slightly perturbed, so
    that its marginals miss by a visible amount."""
    other = trivial_instrument(random_observable(joint.dim, len(joint), rng), random_state(joint.dim, rng))
    mixed = instr_convex_combo([1 - scale, scale], [joint, Instrument(zip(joint.labels, (op for _, op in other.items())))])
    return Instrument(reversed(list(mixed.items())))


class TestLabelledFamilyCore:
    @pytest.mark.parametrize("d", DIMS)
    def test_distance_matches_the_per_label_loop(self, d, rng):
        a, b = random_observable(d, 3, rng), random_observable(d, 3, rng)
        i, j = random_instrument(d, 3, rng), random_instrument(d, 3, rng)
        assert abs(family_distance(a, b) - loop_distance(a, b)) <= 1e-14
        assert abs(family_distance(i, j) - loop_distance(i, j)) <= 1e-14
        assert family_distance(i, i) == 0.0

    def test_distance_is_infinite_across_value_spaces_and_dimensions(self, rng):
        a = random_observable(2, 2, rng)
        swapped = Observable(reversed(list(a.items())))
        assert family_distance(a, swapped) == np.inf
        assert family_distance(a, random_observable(3, 2, rng)) == np.inf
        assert not observables_close(a, swapped, 1e9)
        i = luders_instrument(a)
        assert not instruments_close(i, luders_instrument(swapped), 1e9)
        assert instruments_close(i, luders_instrument(a), 0.0)

    def test_families_of_different_kinds(self, rng):
        i = random_instrument(2, 2, rng)
        a = induced_observable(i)
        assert family_distance(i, a) == np.inf and family_distance(a, i) == np.inf
        joint = instr_product(i, i)
        for mixed in ((a, i, joint), (i, a, joint), (i, i, induced_observable(joint)), (a, a, joint)):
            with pytest.raises(KindError, match="mixed kinds"):
                marginal_defect(*mixed)
        assert np.isfinite(marginal_defect(i, i, joint))  # one kind: compared as documented

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginal_defect_matches_the_per_label_loops(self, d, rng):
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(3)]
        exact = trivial_instrument(random_observable(d, 6, rng, labels=labels), random_state(d, rng))
        i, j = marginal_instruments(exact)
        joint = _perturbed_joint(exact, rng)
        defect = marginal_defect(i, j, joint)
        assert 1e-6 < defect < 1e-2
        assert abs(defect - loop_marginal_defect(i, j, joint)) <= 1e-14
        a, b, c = induced_observable(i), induced_observable(j), induced_observable(joint)
        assert abs(marginal_defect(a, b, c) - loop_marginal_defect(a, b, c)) <= 1e-14
        assert instr_coexist_verify(i, j, joint, 2 * defect) and not instr_coexist_verify(i, j, joint, defect / 2)
        assert marginal_defect(i, j, exact) <= 1e-14

    def test_coexist_verifiers_share_their_errors(self, rng):
        a, b = random_observable(2, 2, rng), random_observable(3, 2, rng)
        labels = [combine_labels(x, y) for x in a.labels for y in b.labels]
        joint = random_observable(2, 4, rng, labels=labels)
        with pytest.raises(DimensionError):
            obs_coexist_verify(a, b, joint)
        with pytest.raises(DimensionError):
            instr_coexist_verify(luders_instrument(a), luders_instrument(b), luders_instrument(joint))
        with pytest.raises(LabelError, match="joint observable"):
            obs_coexist_verify(a, a, a)
        with pytest.raises(LabelError, match="joint instrument"):
            instr_coexist_verify(luders_instrument(a), luders_instrument(a), luders_instrument(a))

    def test_instrument_effects_are_one_read_only_stack(self, rng):
        instr = random_instrument(3, 4, rng)
        assert not instr.effects.flags.writeable
        for (_, op), e in zip(instr.items(), instr.effects):
            assert np.array_equal(e, op.induced_effect)
        assert np.array_equal(induced_observable(instr).stack, instr.effects)

    @pytest.mark.parametrize("make", [lambda r: random_observable(2, 3, r), lambda r: random_instrument(2, 3, r)])
    def test_mapping_protocol_and_repr(self, make, rng):
        family = make(rng)
        name = type(family).__name__
        assert repr(family) == f"{name}(dim=2, labels=['0', '1', '2'])"
        assert len(family) == 3 and "1" in family and "3" not in family
        assert [x for x, _ in family.items()] == list(family.labels)
        with pytest.raises(LabelError):
            family["3"]
        with pytest.raises(LabelError, match=f"an {name.lower()} needs at least one outcome"):
            type(family)([])


# -- L1/L2: instruments validated once as a family ----------------------------------


def _kraus_lists(instr):
    return [(x, op.kraus_ops()) for x, op in instr.items()]


def _public_route(instr):
    """The same outcomes rebuilt through the public constructors, each
    with its own checks and eigensolves."""
    return Instrument({x: Operation.from_kraus(ks) for x, ks in _kraus_lists(instr)})


def _joint(d, rng):
    labels = [combine_labels(x, y) for x in "ab" for y in "uvw"]
    return Instrument(zip(labels, (op for _, op in random_instrument(d, 6, rng).items())))


def _vn_instrument(d, rng):
    model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 3, rng))
    return vn_measured(model)[0]


def _kraus_pair(d, rng):
    return {x: np.sqrt(0.5) * random_unitary(d, rng) for x in "pq"}


ROUTED_BUILDERS = {
    "random": lambda d, rng: random_instrument(d, 3, rng),
    "luders": lambda d, rng: luders_instrument(random_observable(d, 3, rng)),
    "trivial": lambda d, rng: trivial_instrument(random_observable(d, 3, rng), random_state(d, rng)),
    "identity": lambda d, rng: identity_instrument({"0": 0.3, "1": 0.7}, d),
    "kraus": lambda d, rng: kraus_instrument(_kraus_pair(d, rng)),
    "product": lambda d, rng: instr_product(random_instrument(d, 2, rng), random_instrument(d, 3, rng)),
    "conditioned": lambda d, rng: instr_conditioned(random_instrument(d, 2, rng), random_instrument(d, 3, rng)),
    "convex": lambda d, rng: instr_convex_combo([0.25, 0.75], [random_instrument(d, 3, rng) for _ in range(2)]),
    "post-process": lambda d, rng: instr_post_process(
        random_stochastic(["0", "1", "2"], ["a", "b"], rng), random_instrument(d, 3, rng)
    ),
    "marginal": lambda d, rng: marginal_instruments(_joint(d, rng))[1],
    "model": lambda d, rng: model_instrument(random_fimm(d, 2, 3, rng)),
    "channel-split": lambda d, rng: kraus_instrument_from_channel(instr_channel(random_instrument(d, 2, rng))),
    "von-neumann": _vn_instrument,
}


class TestFamilyValidation:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("builder", sorted(ROUTED_BUILDERS))
    def test_matches_the_public_route(self, builder, d, rng):
        instr = ROUTED_BUILDERS[builder](d, rng)
        public = _public_route(instr)
        assert instr.labels == public.labels
        assert np.abs(instr.effects - public.effects).max() <= 1e-15
        chois = [np.stack([op.choi for _, op in i.items()]) for i in (instr, public)]
        assert np.abs(chois[0] - chois[1]).max() <= 1e-15
        obs = induced_observable(instr)
        oracle = Observable(zip(public.labels, public.effects))
        assert obs.labels == oracle.labels
        assert np.abs(obs.stack - oracle.stack).max() <= 1e-15

    @pytest.mark.parametrize("d", DIMS)
    def test_sum_miss_above_the_tolerance_raises(self, d, rng):
        items = _kraus_lists(random_instrument(d, 3, rng))
        corner = np.zeros((d, d), dtype=complex)
        corner[0, 0] = np.sqrt(1.01e-8)
        items[0] = (items[0][0], [*items[0][1], corner])
        for build in (kraus_family, lambda it: Instrument({x: Operation.from_kraus(ks) for x, ks in it})):
            with pytest.raises(InvariantViolation) as exc:
                build(items)
            assert exc.value.invariant == "trace-preserving-sum"
            assert exc.value.residual == pytest.approx(1.01e-8, rel=1e-6)

    @pytest.mark.parametrize("miss", [2e-9, 1e-8])
    def test_sum_miss_between_the_tolerances_induces_a_completed_observable(self, miss):
        # A_a = (1 + miss) P0 is above the identity by more than the effect
        # tolerance, but within the instrument's sum tolerance: the public
        # constructor refuses the effects, and the induced observable is
        # their completion.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        items = [("a", [np.sqrt(1 + miss) * p0]), ("b", [p1])]
        instr = kraus_family(items)
        assert np.linalg.eigvalsh(instr.effects[0])[-1] > 1 + EFFECT_EIG_TOL
        _public_route(instr)
        obs = induced_observable(instr)
        assert frob(obs.stack.sum(0) - np.eye(2)) <= 1e-15 * 2
        assert np.linalg.norm(obs.stack - instr.effects, axis=(1, 2)).max() <= miss
        with pytest.raises(InvariantViolation) as exc:
            Observable(zip(instr.labels, instr.effects))
        assert exc.value.invariant == "effect-range"

    @pytest.mark.parametrize(
        "ops",
        [
            [],
            [np.eye(2), np.eye(3)],
            [np.eye(2), np.ones(2)],
            [np.ones((2, 3))],
            [np.ones(2)],
            [np.full((2, 2), np.nan)],
        ],
    )
    def test_malformed_operators_raise_as_from_kraus(self, ops):
        # Caller operators enter instruments through kraus_instrument, which
        # coerces them as from_kraus does; _from_kraus trusts its array but
        # still refuses an outcome with no operator.
        with pytest.raises(QinstrError) as oracle:
            Operation.from_kraus(ops)
        with pytest.raises(QinstrError) as exc:
            if ops:
                kraus_instrument({str(k): op for k, op in enumerate(ops)})
            else:
                Instrument._from_kraus(["0"], np.zeros((1, 1, 2, 2)), [0])
        assert type(exc.value) is type(oracle.value)

    def test_mixed_dimensions_across_outcomes(self):
        with pytest.raises(DimensionError, match="mixed shapes"):
            kraus_instrument({"0": np.eye(2), "1": np.zeros((3, 3))})
        with pytest.raises(LabelError):
            kraus_family([("0", [np.eye(2)]), ("0", [np.zeros((2, 2))])])

    def test_caller_array_is_not_aliased(self, rng):
        ops = np.stack([np.sqrt(0.5) * random_unitary(3, rng) for _ in range(2)])
        before = ops.copy()
        instr = kraus_instrument({"0": ops[0], "1": ops[1]})
        assert ops.flags.writeable
        ops[:] = 0.0
        for k, (_, op) in enumerate(instr.items()):
            assert not np.shares_memory(op._kraus, ops) and not op._kraus.flags.writeable
            assert np.array_equal(op._kraus[0], before[k])
            assert not op.induced_effect.flags.writeable

    def test_builders_eigensolve_only_what_they_construct(self, rng, eig_calls):
        d = 3
        eig_calls.calls.clear()
        random_instrument(d, 3, rng)
        assert eig_calls.calls == [(d, 1)]  # the whitening
        a = random_observable(d, 3, rng)
        eig_calls.calls.clear()
        luders_instrument(a)
        assert eig_calls.calls == [(d, 3)]  # the batched root
        i, j, k = random_instrument(d, 3, rng), random_instrument(d, 2, rng), random_instrument(d, 3, rng)
        nu = random_stochastic(list(i.labels), ["a", "b"], rng)
        for call in (
            lambda: instr_product(i, j),
            lambda: instr_conditioned(i, j),
            lambda: instr_convex_combo([0.5, 0.5], [i, k]),
            lambda: instr_post_process(nu, i),
            lambda: induced_observable(i),
        ):
            eig_calls.calls.clear()
            call()
            assert eig_calls.calls == []

    def test_random_state_and_channel_take_no_eigensolve(self, rng, eig_calls):
        eig_calls.calls.clear()
        rho = random_state(3, rng)
        assert eig_calls.calls == []
        assert np.array_equal(rho, rho.conj().T) and abs(np.trace(rho) - 1.0) <= 1e-15
        assert np.linalg.eigvalsh(rho)[0] >= 0.0
        i = random_instrument(3, 3, rng)
        eig_calls.calls.clear()
        hat = instr_channel(i)
        assert eig_calls.calls == []
        assert hat.is_channel() and not hat._kraus.flags.writeable
        assert operations_close(hat, Operation(choi=sum(op.choi for _, op in i.items())), 1e-14)

    def test_channel_of_loosely_summed_instrument_is_not_a_channel(self):
        # No builder makes an instrument this loose, so its fields are set directly.
        loose = Instrument.__new__(Instrument)
        loose.labels, loose.dim, loose.counts = ("a", "b"), 2, np.ones(2, dtype=int)
        loose.kraus = np.sqrt(0.5 * (1.0 + 1e-4)) * np.broadcast_to(np.eye(2, dtype=complex), (2, 1, 2, 2))
        with pytest.raises(InvariantViolation) as exc:
            instr_channel(loose)
        assert exc.value.invariant == "trace-preserving"

    def test_public_constructors_keep_their_checks(self, rng, eig_calls):
        i = random_instrument(3, 2, rng)
        eig_calls.calls.clear()
        public = _public_route(i)
        assert eig_calls.calls == [(3, 1)] * len(i)
        eig_calls.calls.clear()
        Observable(zip(public.labels, public.effects))
        assert eig_calls.calls == [(3, len(i))]
        with pytest.raises(InvariantViolation) as exc:
            Operation.from_kraus([np.sqrt(1.01) * np.eye(2)])
        assert exc.value.invariant == "trace-non-increasing"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_channel_split_of_kraus_input_has_no_choi_sized_eigensolve(self, d, rng, eig_calls):
        hat = instr_channel(random_instrument(d, 2, rng))
        choi_only = Operation.from_choi(hat.choi)
        eig_calls.calls.clear()
        split = kraus_instrument_from_channel(hat)
        assert _no_choi_sized_eigensolve(eig_calls, d)
        rank = int(np.sum(np.linalg.eigvalsh(hat.choi) > 1e-10))
        assert len(split) == rank
        assert operations_close(instr_channel(split), hat, 1e-12)
        from_choi = kraus_instrument_from_channel(choi_only)
        assert len(from_choi) == rank
        assert operations_close(instr_channel(from_choi), hat, 1e-12)


class TestStochasticLabels:
    @pytest.mark.parametrize("rows, cols", [(["a", "a"], ["x", "y"]), (["a", "b"], ["x", "x"])])
    def test_repeated_labels_are_rejected(self, rows, cols):
        with pytest.raises(LabelError, match="duplicate label"):
            StochasticMatrix(rows, cols, np.eye(2))


# -- L2: outcome tables -------------------------------------------------------------


def loop_joint_probability_then(rho, a, x_set, b, y_set):
    """The former set-level kernel: one product per ``x`` with ``B_Y``."""
    by = sum((b[y] for y in y_set), np.zeros((a.dim, a.dim), dtype=complex))
    ax = [a[x] for x in x_set]
    if not ax:
        return 0.0
    products = seq_products(herm_sqrt(np.stack(ax)), ensure_effect(by)[None])[:, 0]
    return min(1.0, max(0.0, float(np.einsum("ij,kji->", rho, products).real)))


def loop_joint_probability_instr(rho, i, x_set, j, y_set):
    """The former set-level kernel: ``I_X(rho)``, then ``tr J_y`` of it per ``y``."""
    mid = sum((i[x].apply(rho) for x in x_set), np.zeros((i.dim, i.dim), dtype=complex))
    return min(1.0, max(0.0, sum(float(np.trace(j[y].apply(mid)).real) for y in y_set)))


def _subsets(labels):
    return [[x for k, x in enumerate(labels) if mask >> k & 1] for mask in range(2 ** len(labels))]


class TestOutcomeTables:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (1, 4)])
    def test_observable_table_per_pair(self, d, m, n, rng):
        a, b, rho = random_observable(d, m, rng), random_observable(d, n, rng), random_state(d, rng)
        table = joint_probability_table(rho, a, b)
        assert table.shape == (m, n) and table.dtype == float
        for k, x in enumerate(a.labels):
            for l, y in enumerate(b.labels):
                assert abs(table[k, l] - np.trace(rho @ loop_seq_product(a[x], b[y])).real) <= 1e-15
        assert abs(table.sum() - 1.0) <= 1e-10  # the families sum to the identity to rounding

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (1, 4)])
    def test_instrument_table_per_pair(self, d, m, n, rng):
        i, rho = random_instrument(d, m, rng), random_state(d, rng)
        j = trivial_instrument(random_observable(d, n, rng), random_state(d, rng))
        table = joint_probability_table_instr(rho, i, j)
        assert table.shape == (m, n) and table.dtype == float
        for k, (_, ix) in enumerate(i.items()):
            for l, (_, jy) in enumerate(j.items()):
                assert abs(table[k, l] - np.trace(jy.apply(ix.apply(rho))).real) <= 1e-15
        assert abs(table.sum() - 1.0) <= 1e-10  # the families sum to the identity to rounding

    @pytest.mark.parametrize("d", DIMS)
    def test_set_level_matches_the_loops(self, d, rng):
        a, b, rho = random_observable(d, 3, rng), random_observable(d, 3, rng), random_state(d, rng)
        i, j = random_instrument(d, 3, rng), luders_instrument(b)
        for xs in _subsets(a.labels):
            for ys in _subsets(b.labels):
                p_then = joint_probability_then(rho, a, xs, b, ys)
                assert abs(p_then - loop_joint_probability_then(rho, a, xs, b, ys)) <= 1e-15
                p_instr = joint_probability_instr(rho, i, xs, j, ys)
                assert abs(p_instr - loop_joint_probability_instr(rho, i, xs, j, ys)) <= 1e-15
                if not xs or not ys:
                    assert p_then == p_instr == 0.0

    def test_choi_only_instruments(self, rng):
        i, j, rho = random_instrument(3, 2, rng), random_instrument(3, 3, rng), random_state(3, rng)
        choi_i, choi_j = (Instrument({x: Operation.from_choi(op.choi) for x, op in f.items()}) for f in (i, j))
        table = joint_probability_table_instr(rho, choi_i, choi_j)
        assert np.abs(table - joint_probability_table_instr(rho, i, j)).max() <= 1e-14

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 4)])
    def test_one_batched_check_of_every_product(self, m, n, rng, eig_calls):
        a, b, rho = random_observable(3, m, rng), random_observable(3, n, rng), random_state(3, rng)
        i, j = luders_instrument(a), luders_instrument(b)
        eig_calls.calls.clear()
        joint_probability_table(rho, a, b)
        # the state and every product; the roots of a were cached by luders_instrument(a)
        assert eig_calls.calls == [(3, 1), (3, m * n)]
        eig_calls.calls.clear()
        joint_probability_then(rho, a, a.labels[:1], b, b.labels)
        assert eig_calls.calls == [(3, 1), (3, m * n)]
        eig_calls.calls.clear()
        joint_probability_instr(rho, i, i.labels[:1], j, j.labels)
        assert eig_calls.calls == [(3, 1)]  # the state alone

    def test_out_of_range_product_is_rejected(self, monkeypatch, sharp_z):
        # roots scaled by 1.1 make P0 o P0 = 1.21 P0, out of range
        monkeypatch.setattr(Observable, "roots", property(lambda o: 1.1 * herm_sqrt(o.stack)))
        with pytest.raises(InvariantViolation) as exc:
            joint_probability_table(0.5 * np.eye(2), sharp_z, sharp_z)
        assert exc.value.invariant == "effect-range"

    def test_dimension_mismatch(self, rng):
        a2, a3 = random_observable(2, 2, rng), random_observable(3, 2, rng)
        with pytest.raises(DimensionError):
            joint_probability_table(random_state(2, rng), a2, a3)
        with pytest.raises(DimensionError):
            joint_probability_table_instr(random_state(3, rng), luders_instrument(a2), luders_instrument(a2))


# -- L2/L3: family builders against their per-member loops ---------------------------


def loop_atomic_observable(basis, labels):
    return Observable({labels[j]: np.outer(basis[:, j], basis[:, j].conj()) for j in range(basis.shape[1])})


def loop_vn_model_for_commutative(a, rng, attempts=32):
    """The former per-effect search: the basis, and the pointer diagonals."""
    effects = [a[x] for x in a.labels]
    for _ in range(attempts):
        coeffs = rng.standard_normal(len(effects))
        _, v = np.linalg.eigh(hermitian_part(sum(c * e for c, e in zip(coeffs, effects))))
        off = max(frob(v.conj().T @ e @ v - np.diag(np.diag(v.conj().T @ e @ v))) for e in effects)
        if off <= 1e-9 * max(1.0, a.dim):
            return v, np.array([[(v[:, j].conj() @ e @ v[:, j]).real for j in range(a.dim)] for e in effects])
    return None


def loop_luders_positivity_check(m, tol=1e-8):
    for s in normal_fimm_kraus_extract(m).values():
        if frob(s - s.conj().T) > tol * max(1.0, frob(s)):
            return False
        if float(np.linalg.eigvalsh(hermitian_part(s))[0]) < -tol:
            return False
    return True


class TestFamilyBuildersAgainstLoops:
    @pytest.mark.parametrize("d", DIMS)
    def test_atomic_and_identity_observables(self, d, rng):
        u, labels = random_unitary(d, rng), [f"b{j}" for j in range(d)]
        batched, loop = atomic_observable(u, labels), loop_atomic_observable(u, labels)
        assert batched.labels == loop.labels and np.array_equal(batched.stack, loop.stack)
        w = random_simplex(3, rng)
        ident = identity_observable(dict(zip("xyz", w)), d)
        assert np.array_equal(ident.stack, np.stack([wi * np.eye(d) for wi in w]))

    @pytest.mark.parametrize("d", DIMS)
    def test_vn_model_for_commutative(self, d, rng):
        for a in (random_commutative_observable(d, 3, rng), identity_observable({"0": 0.25, "1": 0.75}, d)):
            seed = int(rng.integers(1 << 30))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            model = vn_model_for_commutative(a, r1)
            basis, diagonals = loop_vn_model_for_commutative(a, r2)
            assert np.array_equal(model.base_basis, basis)
            assert np.abs(np.diagonal(model.pointer.stack, axis1=1, axis2=2) - diagonals).max() <= 1e-15
            assert r1.bit_generator.state == r2.bit_generator.state

    def test_luders_positivity_check(self, rng):
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        models = [dilate_instrument(luders_instrument(random_observable(d, 3, rng))) for d in (2, 3)]
        models += [dilate_instrument(kraus_instrument({"0": pauli_x / np.sqrt(2), "1": np.eye(2) / np.sqrt(2)}))]
        models += [dilate_instrument(random_instrument(d, 2, rng, 1)) for d in (2, 3)]
        for eps in (1e-9, 1e-6):  # an outcome with a slightly negative eigenvalue
            s = np.diag([1.0, -eps]) / np.sqrt(2)
            models.append(dilate_instrument(kraus_instrument({"0": s, "1": np.sqrt(np.eye(2) - s @ s)})))
        results = [luders_positivity_check(m) for m in models]
        assert results == [loop_luders_positivity_check(m) for m in models]
        assert results == [True, True, False, False, False, True, False]
