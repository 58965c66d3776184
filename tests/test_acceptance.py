"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance here is pinned; dims stay in 2-4 with at most four outcomes
and at most 200 random trials per criterion.
"""

import numpy as np

from qinstr.effects import (
    CoexistenceWitness,
    atom,
    binary_observables_from_coexistence,
    check_coexistence_witness,
    complement,
    ensure_effect,
    seq_product,
)
from qinstr.instruments import (
    induced_observable,
    instr_channel,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    luders_instrument,
    trivial_instrument,
)
from qinstr.linalg import frob, hermitian_part, spectral_norm
from qinstr.models import (
    FIMM,
    dilate_instrument,
    marginal_instruments,
    model_instrument,
    normal_fimm_kraus_extract,
    simultaneous_fimms,
    swap_unitary,
    trivial_fimm,
    vn_measured,
    vn_model_for_commutative,
)
from qinstr.observables import (
    Observable,
    atomic_observable,
    classify_observable,
    combine_labels,
    complementarity_residual,
    fourier_mub,
    joint_probability_then,
    obs_commute,
    obs_post_process,
    obs_seq_product,
)
from qinstr.rand import (
    random_commutative_observable,
    random_commuting_effect_pair,
    random_instrument,
    random_kraus_instrument,
    random_observable,
    random_simplex,
    random_state,
    random_stochastic,
    random_unitary,
)
from qinstr.verify import sharp_qubit_x, sharp_qubit_z, stored_trivial_instrument


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion-{number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_sequential_product_non_associative():
    e1 = np.array([1.0, 0.0], dtype=complex)
    beta = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    a, b, c = atom(e1), atom(beta), atom(e1)
    left = seq_product(a, seq_product(b, c))
    right = seq_product(seq_product(a, b), c)
    p = atom(e1)
    ok = (
        frob(left - 0.25 * p) <= 1e-10
        and frob(right - 0.5 * p) <= 1e-10
        and abs(spectral_norm(right - left) - 0.25) <= 1e-10
    )
    report(1, "rank-one closed forms give 1/4 vs 1/2 with gap exactly 1/4", ok)


def test_criterion_02_commuting_effects_coexist():
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for t in range(50):
        d = 2 + t % 3
        a, b = random_commuting_effect_pair(d, rng)
        ab = ensure_effect(hermitian_part(a @ b))
        w = CoexistenceWitness(a1=a - ab, b1=b - ab, c=ab)
        ok = ok and check_coexistence_witness(a, b, w)
        joint = binary_observables_from_coexistence(a, b, w)
        worst = max(
            worst,
            frob(joint[("1", "1")] + joint[("1", "2")] - a),
            frob(joint[("1", "1")] + joint[("2", "1")] - b),
            frob(joint[("2", "1")] + joint[("2", "2")] - complement(a)),
            frob(joint[("1", "2")] + joint[("2", "2")] - complement(b)),
        )
    report(2, f"50 commuting pairs validate with marginal residual {worst:.2e} <= 1e-8", ok and worst <= 1e-8)


def test_criterion_03_mub_complementarity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for d in (2, 3, 4, 5):
        b1, b2 = fourier_mub(d)
        worst = max(worst, complementarity_residual(atomic_observable(b1), atomic_observable(b2)))
    non_mub = complementarity_residual(
        atomic_observable(random_unitary(2, rng)), atomic_observable(random_unitary(2, rng))
    )
    ok = worst <= 1e-9 and non_mub >= 1e-3
    report(3, f"Fourier pairs complementary ({worst:.2e} <= 1e-9), generic pair misses by {non_mub:.2e}", ok)


def test_criterion_04_observable_instrument_round_trip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for t in range(100):
        d = 2 + t % 3
        a = random_observable(d, 2 + t % 3, rng)
        back = induced_observable(luders_instrument(a))
        worst = max(worst, max(frob(back[x] - a[x]) for x in a.labels))
    trivial = stored_trivial_instrument()
    rebuilt = luders_instrument(induced_observable(trivial))
    gap = max(frob(rebuilt[x].choi - trivial[x].choi) for x in trivial.labels)
    ok = worst <= 1e-9 and gap >= 1e-3
    report(4, f"JK round trip {worst:.2e} <= 1e-9; KJ misses stored trivial instrument by {gap:.2e}", ok)


def test_criterion_05_observable_map_affine_and_covariant():
    rng = np.random.default_rng(5)
    worst = 0.0
    for t in range(100):
        d = 2 + t % 3
        parts = [random_instrument(d, 2, rng) for _ in range(2)]
        weights = random_simplex(2, rng)
        mixed = instr_convex_combo(weights, parts)
        a_mixed = induced_observable(mixed)
        for x in a_mixed.labels:
            expected = sum(w * induced_observable(p)[x] for w, p in zip(weights, parts))
            worst = max(worst, frob(a_mixed[x] - expected))
        nu = random_stochastic(list(parts[0].labels), ["p", "q"], rng)
        lhs = induced_observable(instr_post_process(nu, parts[0]))
        rhs = obs_post_process(nu, induced_observable(parts[0]))
        worst = max(worst, max(frob(lhs[z] - rhs[z]) for z in lhs.labels))

    # stored counterexamples: the update map respects neither mixtures nor
    # post-processing
    z, x = sharp_qubit_z(), sharp_qubit_x()
    x_relabeled = Observable({"0": x["+"], "1": x["-"]})
    from qinstr.observables import obs_convex_combo

    mixed_obs = obs_convex_combo([0.5, 0.5], [z, x_relabeled])
    rho = np.diag([1.0, 0.0]).astype(complex)
    gap_mix = max(
        frob(
            luders_instrument(mixed_obs)[lab].apply(rho)
            - 0.5 * luders_instrument(z)[lab].apply(rho)
            - 0.5 * luders_instrument(x_relabeled)[lab].apply(rho)
        )
        for lab in ("0", "1")
    )
    from qinstr.observables import StochasticMatrix

    nu = StochasticMatrix(["0", "1"], ["0", "1"], np.full((2, 2), 0.5))
    rho2 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    mixed_a = obs_post_process(nu, z)
    gap_post = max(
        frob(
            luders_instrument(mixed_a)[y].apply(rho2)
            - sum(nu.value(xx, y) * luders_instrument(z)[xx].apply(rho2) for xx in ("0", "1"))
        )
        for y in ("0", "1")
    )
    ok = worst <= 1e-9 and gap_mix >= 1e-3 and gap_post >= 1e-3
    report(
        5,
        f"observable map affine/covariant ({worst:.2e} <= 1e-9); update-map gaps {gap_mix:.2e}, {gap_post:.2e} >= 1e-3",
        ok,
    )


def test_criterion_06_complementarity_levels_agree():
    from qinstr.verify import _public_complementary, _rng

    rng = _rng("acceptance-6", 6)
    disagreements = 0
    for t in range(50):
        lhs, rhs = _public_complementary(rng, t, 2 + t % 3)
        disagreements += lhs != rhs
    report(6, f"instrument vs observable complementarity agree on 50 pairs ({disagreements} disagreements)", disagreements == 0)


def test_criterion_07_single_kraus_dilation_obstruction():
    rng = np.random.default_rng(7)
    trivial = stored_trivial_instrument()
    ranks_ok = all(
        int(np.sum(np.linalg.eigvalsh(op.choi) > 1e-8 * np.linalg.eigvalsh(op.choi)[-1])) >= 2
        for _, op in trivial.items()
    )
    m_trivial = dilate_instrument(trivial)
    flags = classify_observable(m_trivial.pointer)
    obstruction_ok = flags.sharp and not flags.atomic

    atomic_ok = True
    extract_worst = 0.0
    for t in range(5):
        d = 2 + t % 2
        instr = random_kraus_instrument(d, 2 + t % 3, rng)
        m = dilate_instrument(instr)
        atomic_ok = atomic_ok and classify_observable(m.pointer).atomic
        extracted = normal_fimm_kraus_extract(m)
        for lab in instr.labels:
            s_orig = instr[lab].kraus_ops()[0]
            s_new = extracted[lab]
            extract_worst = max(extract_worst, frob(s_new.conj().T @ s_new - s_orig.conj().T @ s_orig))
    ok = ranks_ok and obstruction_ok and atomic_ok and extract_worst <= 1e-8
    report(
        7,
        f"trivial instrument Choi ranks >= 2, dilation pointer sharp non-atomic; Kraus dilations atomic with S*S residual {extract_worst:.2e}",
        ok,
    )


def test_criterion_08_update_instrument_probabilities_and_products():
    rng = np.random.default_rng(8)
    worst_prob = 0.0
    for t in range(100):
        d = 2 + t % 3
        a = random_observable(d, 2, rng)
        b = random_observable(d, 2, rng)
        rho = random_state(d, rng)
        x_set = [lab for k, lab in enumerate(a.labels) if k == 0 or rng.random() < 0.5]
        y_set = [lab for k, lab in enumerate(b.labels) if k == 0 or rng.random() < 0.5]
        from qinstr.instruments import joint_probability_instr

        p_instr = joint_probability_instr(rho, luders_instrument(a), x_set, luders_instrument(b), y_set)
        p_obs = joint_probability_then(rho, a, x_set, b, y_set)
        worst_prob = max(worst_prob, abs(p_instr - p_obs))

    worst_prod = 0.0
    for _ in range(20):
        a = random_observable(2, 2, rng)
        b = random_observable(2, 2, rng)
        lhs = induced_observable(instr_product(luders_instrument(a), luders_instrument(b)))
        rhs = obs_seq_product(a, b)
        worst_prod = max(worst_prod, max(frob(lhs[lab] - rhs[lab]) for lab in lhs.labels))

    u = random_unitary(2, rng)
    diag_a = np.stack([random_simplex(2, rng) for _ in range(2)])
    diag_b = np.stack([random_simplex(2, rng) for _ in range(2)])
    a_com = Observable({str(k): u @ np.diag(diag_a[:, k]).astype(complex) @ u.conj().T for k in range(2)})
    b_com = Observable({str(k): u @ np.diag(diag_b[:, k]).astype(complex) @ u.conj().T for k in range(2)})
    assert obs_commute(a_com, b_com)
    commuting_residual = 0.0
    k_joint = luders_instrument(obs_seq_product(a_com, b_com))
    k_split = instr_product(luders_instrument(a_com), luders_instrument(b_com))
    for lab in k_joint.labels:
        commuting_residual = max(commuting_residual, frob(k_joint[lab].choi - k_split[lab].choi))
    z, x = sharp_qubit_z(), sharp_qubit_x()
    k_joint_zx = luders_instrument(obs_seq_product(z, x))
    k_split_zx = instr_product(luders_instrument(z), luders_instrument(x))
    gap = max(frob(k_joint_zx[lab].choi - k_split_zx[lab].choi) for lab in k_joint_zx.labels)
    ok = (
        worst_prob <= 1e-10
        and worst_prod <= 1e-9
        and commuting_residual <= 1e-9
        and gap >= 1e-3
    )
    report(
        8,
        f"joint probabilities match ({worst_prob:.2e} <= 1e-10); product law {worst_prod:.2e} <= 1e-9; "
        f"update multiplicativity holds commuting ({commuting_residual:.2e}) and fails by {gap:.2e} otherwise",
        ok,
    )


def test_criterion_09_total_channel_compositions():
    rng = np.random.default_rng(9)
    worst = 0.0
    from qinstr.instruments import compose_operations

    for t in range(50):
        d = 2 + t % 2
        i = random_instrument(d, 2, rng)
        j = random_instrument(d, 2, rng)
        prod_hat = instr_channel(instr_product(i, j))
        cond_hat = instr_channel(instr_conditioned(i, j))
        composed = compose_operations(instr_channel(j), instr_channel(i))
        worst = max(
            worst,
            frob(prod_hat.choi - cond_hat.choi),
            frob(prod_hat.choi - composed.choi),
            frob(cond_hat.choi - composed.choi),
        )
    report(9, f"product/conditioned/composed total channels agree ({worst:.2e} <= 1e-9)", worst <= 1e-9)


def test_criterion_10_basis_pairing_models():
    rng = np.random.default_rng(10)
    from qinstr.models import VonNeumannModel

    worst = 0.0
    for t in range(10):
        d = 2 + t % 2
        model = VonNeumannModel(random_unitary(d, rng), random_unitary(d, rng), random_observable(d, 2, rng))
        instr, channel, obs = vn_measured(model)
        direct = model_instrument(model.to_fimm())
        worst = max(worst, max(frob(instr[x].choi - direct[x].choi) for x in instr.labels))
        if not classify_observable(obs).commutative:
            report(10, "measured observable must be commutative", False)
    round_trip_worst = 0.0
    for t in range(10):
        d = 2 + t % 2
        a = random_commutative_observable(d, 2 + t % 2, rng)
        model = vn_model_for_commutative(a, rng)
        _, _, measured = vn_measured(model)
        round_trip_worst = max(round_trip_worst, max(frob(measured[x] - a[x]) for x in a.labels))
    ok = worst <= 1e-8 and round_trip_worst <= 1e-8
    report(
        10,
        f"closed forms match models ({worst:.2e} <= 1e-8); commutative observables round-trip ({round_trip_worst:.2e} <= 1e-8)",
        ok,
    )


def test_criterion_11_swap_models_measure_state_preparations():
    rng = np.random.default_rng(11)
    worst = 0.0
    for t in range(10):
        d = 2 + t % 3
        a = random_observable(d, 2 + t % 3, rng)
        alpha = random_state(d, rng)
        instr = trivial_instrument(a, alpha)
        measured = model_instrument(trivial_fimm(alpha, a))
        worst = max(worst, max(frob(measured[x].choi - instr[x].choi) for x in a.labels))
        # swap model built directly: measured instrument is the preparation
        # of the probe state weighted by the pointer observable
        eta = random_state(d, rng)
        pointer = random_observable(d, 2, rng)
        m = FIMM(d, d, eta, swap_unitary(d), pointer)
        measured2 = model_instrument(m)
        expected2 = trivial_instrument(pointer, eta)
        worst = max(worst, max(frob(measured2[x].choi - expected2[x].choi) for x in pointer.labels))
    report(11, f"swap models measure exactly the state-preparation instruments ({worst:.2e} <= 1e-8)", worst <= 1e-8)


def test_criterion_12_simultaneous_models_from_joint_instruments():
    rng = np.random.default_rng(12)
    worst = 0.0
    commutator = 0.0
    for t in range(4):
        base = random_instrument(2, 4, rng, kraus_per_outcome=1 + t % 2)
        labels = [combine_labels(str(x), str(y)) for x in range(2) for y in range(2)]
        from qinstr.instruments import Instrument

        joint = Instrument(dict(zip(labels, (op for _, op in base.items()))))
        i, j = marginal_instruments(joint)
        m1, m2 = simultaneous_fimms(joint)
        assert m1.sharp and m2.sharp
        for x in m1.pointer.labels:
            for y in m2.pointer.labels:
                commutator = max(commutator, frob(m1.pointer[x] @ m2.pointer[y] - m2.pointer[y] @ m1.pointer[x]))
        meas1, meas2 = model_instrument(m1), model_instrument(m2)
        worst = max(worst, max(frob(meas1[x].choi - i[x].choi) for x in i.labels))
        worst = max(worst, max(frob(meas2[y].choi - j[y].choi) for y in j.labels))
    ok = commutator <= 1e-8 and worst <= 1e-7
    report(
        12,
        f"sharp pointers commute ({commutator:.2e} <= 1e-8) and models match the joint's marginals ({worst:.2e} <= 1e-7)",
        ok,
    )
