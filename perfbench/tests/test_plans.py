import filecmp
import json
import os
from collections import Counter

import numpy as np

from perfbench import catalog, cli_mix, large_d
from perfbench.common import MIN_OPS


def test_cli_mix_deck_is_seeded_with_fixed_class_counts():
    a, b, c = cli_mix.plan(1), cli_mix.plan(1), cli_mix.plan(2)
    assert a == b and a != c
    assert len(a) == MIN_OPS
    for deck in (a, c):
        classes = Counter(s.klass for s in deck)
        assert classes == {"small": 70, "large": 30}
        assert sum(s.kind.endswith("-bad") for s in deck) == 5
    assert Counter(a) == Counter(c)  # seeds change the order, never the mix
    kinds = {s.kind for s in a}
    for kind in ("seq-effect", "cond-instr", "convex-obs", "post-instr", "product", "j-map",
                 "k-map", "dilate", "model", "joint-obs", "validate", "random"):
        assert kind in kinds


def test_cli_mix_inputs_are_deterministic_per_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    sa = cli_mix.setup(3, str(first))
    sb = cli_mix.setup(3, str(second))
    names = sorted(n for n in os.listdir(first) if n.endswith(".json"))
    assert names == sorted(n for n in os.listdir(second) if n.endswith(".json"))
    _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors
    argv_a = [[x.replace(str(first), "") for x in c.argv] for c in sa.commands]
    argv_b = [[x.replace(str(second), "") for x in c.argv] for c in sb.commands]
    assert argv_a == argv_b
    large = [n for n in names if os.path.getsize(first / n) >= 500_000]
    assert len(large) >= 5


def test_large_d_deck_is_seeded_with_fixed_class_counts():
    a, c = large_d.plan(5), large_d.plan(6)
    assert a == large_d.plan(5) and a != c
    assert Counter(a) == Counter(c)
    assert len(a) >= MIN_OPS
    assert Counter(s.d for s in a) == {8: 30, 12: 40, 16: 27, 24: 3}


def test_large_d_inputs_are_deterministic_per_seed():
    first, second = large_d.setup(7, ""), large_d.setup(7, "")
    other = large_d.setup(8, "")
    for x, y, z in zip(first.tasks[:12], second.tasks[:12], other.tasks[:12]):
        assert x.spec == y.spec
        if x.spec.task == "vn":
            assert np.array_equal(x.inputs[0].base_basis, y.inputs[0].base_basis)
        else:
            assert all(np.array_equal(i[l].choi, j[l].choi) for i, j in zip(x.inputs, y.inputs) for l in i.labels)
    assert any(
        x.spec == z.spec and x.spec.task != "vn" and not np.array_equal(x.inputs[0]["0"].choi, z.inputs[0]["0"].choi)
        for x, z in zip(first.tasks, other.tasks)
    )


def test_catalog_round_is_seeded_and_large_enough():
    assert catalog.plan(4) == catalog.plan(4) != catalog.plan(5)
    assert len(set(catalog.plan(4))) == catalog.PASSES
    assert catalog.PASSES * len(catalog.SUITES) >= MIN_OPS


def test_catalog_suite_ids_match_the_library():
    from qinstr.verify import SUITES

    assert tuple(SUITES) == catalog.SUITES
    assert set(catalog.UNKNOWN) <= set(SUITES)


def test_catalog_counts_a_failing_suite_as_one_failed_op(tmp_path, monkeypatch):
    from perfbench.common import Child

    lines = [f"{s}: {'unknown' if s in catalog.UNKNOWN else 'pass'}  trials=1" for s in catalog.SUITES]
    lines[2] = lines[2].replace(": pass", ": fail")

    def fake_child(argv, workdir, env):
        out = argv[argv.index("--out") + 1]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"suite_ms": {s: 1.0 for s in catalog.SUITES}, "suite_scale": {}, "trace": None}, fh)
        return Child(1, 0.1, 1000, "\n".join(lines) + "\n")

    monkeypatch.setattr(catalog, "run_child", fake_child)
    state = catalog.State(str(tmp_path), [0], {})
    ops, _, _ = catalog.run_pass(state, 0)
    assert [op.ok for op in ops].count(False) == 1 and not ops[2].ok
    monkeypatch.setattr(catalog, "run_child", lambda *a: Child(2, 0.1, 1000, ""))
    ops, _, _ = catalog.run_pass(state, 0)
    assert not any(op.ok for op in ops) and len(ops) == len(catalog.SUITES)
