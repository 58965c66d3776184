import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qinstr
from qinstr.cli import _EXPRESSIONS, main
from qinstr.instruments import instruments_close
from qinstr.observables import observables_close
from qinstr.serialize import load_document, save_document

from conftest import DEEP_DOCUMENT, MALFORMED_DOCUMENTS, MALFORMED_KRAUS, P0, P1, P_PLUS, P_MINUS, kraus_document
from qinstr.observables import Observable


def run(argv):
    return main(argv)


def one_line_error(capsys, prefix: str) -> bool:
    """Nothing on stdout, and one line on stderr that starts with ``prefix``."""
    captured = capsys.readouterr()
    return captured.out == "" and captured.err.startswith(prefix) and captured.err.count("\n") == 1


@pytest.fixture
def z_files(tmp_path):
    sharp_z = Observable({"0": P0, "1": P1})
    sharp_x = Observable({"+": P_PLUS, "-": P_MINUS})
    z_path = tmp_path / "z.json"
    x_path = tmp_path / "x.json"
    mixed_path = tmp_path / "mixed.json"
    save_document(sharp_z, str(z_path))
    save_document(sharp_x, str(x_path))
    save_document(0.5 * np.eye(2, dtype=complex), str(mixed_path), kind="state")
    return z_path, x_path, mixed_path


class TestVerifyCommand:
    def test_selected_suite_passes(self, capsys):
        assert run(["verify", "--suite", "thm-2.1", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "thm-2.1: pass" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run(["verify", "--suite", "thm-9.9"]) == 2
        assert one_line_error(capsys, "error: unknown suite id(s): thm-9.9; known ids: ex-1, ")

    def test_repeated_suite_runs_once(self, capsys):
        assert run(["verify", "--suite", "ex-1", "--suite", "ex-1", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == ["ex-1"]
        assert lines[-1] == "1/1 suites without failure"

    def test_repeated_suites_run_in_first_appearance_order(self, capsys):
        assert run(["verify", "--suite", "ex-7", "--suite", "ex-1", "--suite", "ex-7", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == ["ex-7", "ex-1"]
        assert lines[-1] == "2/2 suites without failure"

    def test_fixed_count_suite_ignores_trials(self, capsys):
        assert run(["verify", "--suite", "thm-3.2", "--trials", "7"]) == 0
        assert "thm-3.2: pass  trials=1  " in capsys.readouterr().out

    def test_probe_reports_unknown_without_failing(self, capsys):
        assert run(["verify", "--suite", "conj-2.5-converse", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "unknown" in out and "no counterexample" in out

    def test_reproducible_output(self, capsys):
        run(["verify", "--suite", "lem-3.4", "--seed", "7"])
        first = capsys.readouterr().out
        run(["verify", "--suite", "lem-3.4", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_tolerance_scaling_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QINSTR_TOL", "1000.0")
        assert run(["verify", "--suite", "ex-8", "--seed", "3"]) == 0
        monkeypatch.delenv("QINSTR_TOL")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seed", "-1"], "error: seed must be nonnegative"),
            (["--trials", "-3"], "error: trials must be at least 1"),
            (["--trials", "0"], "error: trials must be at least 1"),
        ],
        ids=["negative-seed", "negative-trials", "zero-trials"],
    )
    def test_bad_seed_or_trials_is_usage_error(self, args, message, capsys):
        assert run(["verify", "--suite", "lem-1.1", *args]) == 2
        assert one_line_error(capsys, message)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_tolerance_scale_must_be_finite_and_positive(self, value, capsys, monkeypatch):
        monkeypatch.setenv("QINSTR_TOL", value)
        assert run(["verify", "--suite", "lem-1.1"]) == 2
        assert one_line_error(capsys, "error: QINSTR_TOL must be finite and positive")


class TestComputeCommand:
    def test_k_map_then_j_map_round_trip(self, tmp_path, z_files):
        z_path, _, _ = z_files
        instr_path = tmp_path / "lz.json"
        obs_path = tmp_path / "back.json"
        assert run(["compute", "k-map", str(z_path), "-o", str(instr_path)]) == 0
        assert run(["compute", "j-map", str(instr_path), "-o", str(obs_path)]) == 0
        back = load_document(str(obs_path)).obj
        z = load_document(str(z_path)).obj
        assert observables_close(back, z, 1e-9)

    def test_joint_prob_complementary_quarter(self, tmp_path, z_files):
        z_path, x_path, mixed_path = z_files
        out = tmp_path / "p.json"
        assert (
            run(
                [
                    "compute",
                    "joint-prob",
                    str(mixed_path),
                    str(z_path),
                    "0",
                    str(x_path),
                    "+",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        doc = load_document(str(out))
        assert doc.kind == "scalar"
        assert doc.obj == pytest.approx(0.25, abs=1e-10)

    def test_joint_prob_repeated_label_is_usage_error(self, tmp_path, z_files, capsys):
        z_path, _, mixed_path = z_files
        out = tmp_path / "p.json"
        argv = ["compute", "joint-prob", str(mixed_path), str(z_path), "0,0", str(z_path), "0", "-o", str(out)]
        assert run(argv) == 2
        assert "duplicate label" in capsys.readouterr().err
        assert not out.exists()
        argv[4] = "0"
        assert run(argv) == 0
        assert load_document(str(out)).obj == pytest.approx(0.5, abs=1e-15)

    def test_dilate_then_model_round_trip(self, tmp_path, rng):
        from qinstr.rand import random_instrument

        instr = random_instrument(2, 2, rng)
        instr_path = tmp_path / "instr.json"
        fimm_path = tmp_path / "fimm.json"
        back_path = tmp_path / "back.json"
        save_document(instr, str(instr_path))
        assert run(["compute", "dilate", str(instr_path), "-o", str(fimm_path)]) == 0
        assert run(["compute", "model-instr", str(fimm_path), "-o", str(back_path)]) == 0
        back = load_document(str(back_path)).obj
        assert instruments_close(back, instr, 1e-7)

    def test_dilate_is_deterministic_across_processes(self, tmp_path, rng):
        from qinstr.rand import random_instrument

        instr = random_instrument(3, 3, rng, 2)
        instr_path = tmp_path / "instr.json"
        save_document(instr, str(instr_path))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qinstr.__file__))}
        outputs = []
        for k in range(2):
            out = tmp_path / f"fimm{k}.json"
            cmd = [sys.executable, "-m", "qinstr.cli", "compute", "dilate", str(instr_path), "-o", str(out)]
            subprocess.run(cmd, env=env, check=True, capture_output=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        back_path = tmp_path / "back.json"
        assert run(["compute", "model-instr", str(tmp_path / "fimm0.json"), "-o", str(back_path)]) == 0
        assert instruments_close(load_document(str(back_path)).obj, instr, 1e-10)

    def test_seq_product_effects(self, tmp_path):
        a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "o.json"
        save_document(0.5 * np.eye(2, dtype=complex), str(a_path), kind="effect")
        save_document(P0, str(b_path), kind="effect")
        assert run(["compute", "seq-product", str(a_path), str(b_path), "-o", str(out)]) == 0
        got = load_document(str(out))
        assert got.kind == "effect"
        np.testing.assert_allclose(got.obj, 0.5 * P0, atol=1e-10)

    def test_conditioned_observables(self, tmp_path, z_files):
        z_path, x_path, _ = z_files
        out = tmp_path / "cond.json"
        assert run(["compute", "conditioned", str(z_path), str(x_path), "-o", str(out)]) == 0
        cond = load_document(str(out)).obj
        # conditioning on a complementary observable leaves complete noise
        for y in cond.labels:
            np.testing.assert_allclose(cond[y], 0.5 * np.eye(2), atol=1e-9)

    def test_convex_mixture(self, tmp_path, z_files):
        z_path, _, _ = z_files
        out = tmp_path / "mix.json"
        assert run(["compute", "convex", "0.5,0.5", str(z_path), str(z_path), "-o", str(out)]) == 0
        mixed = load_document(str(out)).obj
        z = load_document(str(z_path)).obj
        assert observables_close(mixed, z, 1e-10)

    def test_post_process_and_product_instr(self, tmp_path, z_files, rng):
        from qinstr.rand import random_stochastic
        from qinstr.instruments import luders_instrument

        z_path, _, _ = z_files
        z = load_document(str(z_path)).obj
        nu_path, out1 = tmp_path / "nu.json", tmp_path / "post.json"
        save_document(random_stochastic(["0", "1"], ["p", "q"], rng), str(nu_path))
        assert run(["compute", "post-process", str(nu_path), str(z_path), "-o", str(out1)]) == 0
        assert load_document(str(out1)).kind == "observable"

        instr_path, out2 = tmp_path / "lz.json", tmp_path / "prod.json"
        save_document(luders_instrument(z), str(instr_path))
        assert run(["compute", "product-instr", str(instr_path), str(instr_path), "-o", str(out2)]) == 0
        prod = load_document(str(out2))
        assert prod.kind == "instrument" and len(prod.obj) == 4

    def test_kind_mismatch_usage_error(self, tmp_path, z_files, capsys):
        z_path, _, mixed_path = z_files
        assert run(["compute", "j-map", str(z_path), "-o", str(tmp_path / "x.json")]) == 2
        assert one_line_error(capsys, "error: j-map needs (instrument)")

    def test_wrong_arity(self, tmp_path, z_files, capsys):
        z_path, x_path, _ = z_files
        assert run(["compute", "j-map", str(z_path), str(x_path), "-o", str(tmp_path / "x.json")]) == 2
        assert one_line_error(capsys, "error: j-map needs (instrument), got 2 inputs")

    def test_non_finite_stochastic_input_exit_code(self, tmp_path, z_files):
        z_path, _, _ = z_files
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps(MALFORMED_DOCUMENTS["stochastic-nan-entry"]))
        out = tmp_path / "post.json"
        assert run(["compute", "post-process", str(nu), str(z_path), "-o", str(out)]) == 3
        assert not out.exists()

    def test_invalid_input_document_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "state", "dim": 2, "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}')
        assert run(["compute", "j-map", str(bad), "-o", str(tmp_path / "x.json")]) == 3
        assert one_line_error(capsys, "invalid: trace-at-most-one, residual ")

    def test_unwritable_output_is_usage_error(self, tmp_path, z_files, capsys):
        z_path, _, _ = z_files
        lz_path = tmp_path / "lz.json"
        assert run(["compute", "k-map", str(z_path), "-o", str(lz_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "o.json"
        assert run(["compute", "j-map", str(lz_path), "-o", str(out)]) == 2
        assert one_line_error(capsys, f"error: cannot write {out}: ")
        assert run(["compute", "j-map", str(lz_path), "-o", str(tmp_path)]) == 2  # a directory
        assert one_line_error(capsys, f"error: cannot write {tmp_path}: ")


# Every (expression, form) of the compute table; a form's trailing ``...``
# repeats the kind before it.
_FORMS = [(expr, form) for expr, forms in _EXPRESSIONS.items() for form in forms]
_FORM_IDS = [f"{expr}:{','.join('...' if k is ... else k for k in form)}" for expr, form in _FORMS]
_PARSED = {"weights": "0.5,0.5", "labels": "0"}


def _spelled(form: tuple) -> tuple:
    """The form's kinds with a repeated kind given twice."""
    return form[:-1] + form[-2:-1] if form[-1] is ... else form


@pytest.fixture
def kind_files(tmp_path) -> dict:
    """One d = 2 document of every kind, outcome labels "0" and "1"."""
    from qinstr.rand import (
        random_effect,
        random_fimm,
        random_instrument,
        random_observable,
        random_state,
        random_stochastic,
    )

    rng = np.random.default_rng(5)
    objects = {
        "effect": random_effect(2, rng),
        "state": random_state(2, rng),
        "observable": random_observable(2, 2, rng),
        "instrument": random_instrument(2, 2, rng),
        "fimm": random_fimm(2, 2, 2, rng),
        "stochastic": random_stochastic(["0", "1"], ["0", "1"], rng),
        "scalar": 0.5,
    }
    paths = {}
    for kind, obj in objects.items():
        paths[kind] = str(tmp_path / f"{kind}.json")
        save_document(obj, paths[kind], kind)
    return paths


class TestExpressionTable:
    @pytest.mark.parametrize("expression, form", _FORMS, ids=_FORM_IDS)
    def test_every_form_computes(self, expression, form, kind_files, tmp_path):
        out = tmp_path / "out.json"
        inputs = [_PARSED.get(k) or kind_files[k] for k in _spelled(form)]
        assert run(["compute", expression, *inputs, "-o", str(out)]) == 0
        assert load_document(str(out)).kind in kind_files

    @pytest.mark.parametrize("expression, form", _FORMS, ids=_FORM_IDS)
    def test_wrong_kind_is_one_usage_line(self, expression, form, kind_files, tmp_path, capsys):
        out = tmp_path / "out.json"
        kinds = _spelled(form)
        accepted = {_spelled(f) for f in _EXPRESSIONS[expression]}
        cases = 0
        for i, kind in enumerate(kinds):
            if kind in _PARSED:
                continue
            for wrong in kind_files:
                swapped = kinds[:i] + (wrong,) + kinds[i + 1 :]
                if swapped in accepted:
                    continue
                inputs = [_PARSED.get(k) or kind_files[k] for k in swapped]
                assert run(["compute", expression, *inputs, "-o", str(out)]) == 2
                assert one_line_error(capsys, f"error: {expression} needs (")
                cases += 1
        assert cases > 0 and not out.exists()

    @pytest.mark.parametrize("expression", sorted(_EXPRESSIONS))
    def test_wrong_input_count_reads_no_document(self, expression, tmp_path, capsys):
        (form, *_) = _EXPRESSIONS[expression]
        counts = [len(form) - 2] if form[-1] is ... else [len(form) - 1, len(form) + 1]
        for count in filter(None, counts):
            missing = [str(tmp_path / f"missing{i}.json") for i in range(count)]
            assert run(["compute", expression, *missing, "-o", str(tmp_path / "out.json")]) == 2
            assert one_line_error(capsys, f"error: {expression} needs (")

    def test_document_error_is_one_invalid_line(self, kind_files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_DOCUMENTS["effect-unknown-field"]))
        assert run(["compute", "seq-product", kind_files["effect"], str(bad), "-o", str(tmp_path / "o.json")]) == 3
        assert one_line_error(capsys, "invalid: effect: unknown field 'matrx'")


class TestRandomCommand:
    @pytest.mark.parametrize("kind", ["effect", "state", "observable", "instrument", "fimm", "stochastic"])
    def test_generates_valid_documents(self, tmp_path, kind):
        out = tmp_path / f"{kind}.json"
        assert run(["random", kind, "--dim", "3", "--outcomes", "2", "--seed", "5", "-o", str(out)]) == 0
        doc = load_document(str(out))
        assert doc.kind == kind

    def test_deterministic_per_seed(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["random", "observable", "--dim", "3", "--outcomes", "4", "--seed", "11", "-o", str(out1)])
        run(["random", "observable", "--dim", "3", "--outcomes", "4", "--seed", "11", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["random", "state", "--dim", "2", "--seed", "1", "-o", str(out1)])
        run(["random", "state", "--dim", "2", "--seed", "2", "-o", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["random", "effect", "--dim", "2", "--seed", "-1", "-o", str(out)]) == 2
        assert one_line_error(capsys, "error: --seed must be nonnegative")
        assert not out.exists()

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run(["random", "observable", "--dim", "2", "--seed", "0", "-o", str(out)]) == 2
        assert one_line_error(capsys, f"error: cannot write {out}: ")

    def test_dim_range_enforced(self, tmp_path, capsys):
        assert run(["random", "state", "--dim", "9", "--seed", "0", "-o", str(tmp_path / "x.json")]) == 2
        assert one_line_error(capsys, "error: --dim must be in [2, 8], got 9")
        assert run(["random", "observable", "--dim", "2", "--outcomes", "9", "--seed", "0", "-o", str(tmp_path / "y.json")]) == 2
        assert one_line_error(capsys, "error: --outcomes must be in [1, 8], got 9")
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "y.json").exists()


class TestValidateCommand:
    def test_valid_document(self, tmp_path, z_files, capsys):
        z_path, _, _ = z_files
        assert run(["validate", str(z_path)]) == 0
        assert "valid observable" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(MALFORMED_KRAUS))
    def test_malformed_kraus_exit_code(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        bad.write_text(kraus_document(MALFORMED_KRAUS[case]))
        assert run(["validate", str(bad)]) == 3
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
    def test_malformed_document_exit_code(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_DOCUMENTS[case]))
        assert run(["validate", str(bad)]) == 3
        assert "invalid" in capsys.readouterr().err

    def test_deeply_nested_document_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text(DEEP_DOCUMENT)
        assert run(["validate", str(bad)]) == 3
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scale, invariant", [(-1.0, "choi-positive-semidefinite"), (1.01, "trace-non-increasing")]
    )
    def test_malformed_choi_names_its_invariant(self, tmp_path, capsys, scale, invariant):
        choi = scale * np.outer([1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0])
        pairs = [[[x, 0.0] for x in row] for row in choi.tolist()]
        payload = {"kind": "instrument", "dim": 2, "labels": ["a"], "operations": {"a": {"choi": pairs}}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["validate", str(bad)]) == 3
        assert f"invalid: {invariant}, residual" in capsys.readouterr().err

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        payload = {
            "kind": "observable",
            "dim": 2,
            "labels": ["0", "1"],
            "effects": {
                "0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "1": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
            },
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(["validate", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "sum-to-identity" in err and "0.1" in err


class TestLazyCatalogImport:
    def _run_python(self, code: str) -> str:
        src = os.path.dirname(os.path.dirname(qinstr.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_cli_import_leaves_catalog_unloaded(self):
        code = "import sys, qinstr.cli; print('qinstr.verify' in sys.modules)"
        assert self._run_python(code) == "False"

    def test_validate_leaves_catalog_unloaded(self, tmp_path, z_files):
        z_path, _, _ = z_files
        code = (
            "import sys, contextlib, io, qinstr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = qinstr.cli.main(['validate', {str(z_path)!r}])\n"
            "print(rc, 'qinstr.verify' in sys.modules)"
        )
        assert self._run_python(code) == "0 False"

    def test_cli_import_leaves_documents_unloaded(self):
        # ``qinstr verify`` reads and writes no document; the package still
        # serves the document names, loading that layer on first use.
        code = (
            "import sys, qinstr, qinstr.cli\n"
            "before = 'qinstr.serialize' in sys.modules\n"
            "print(before, qinstr.load_document.__module__, 'qinstr.serialize' in sys.modules)"
        )
        assert self._run_python(code) == "False qinstr.serialize True"

    def test_verify_leaves_documents_unloaded(self):
        code = (
            "import sys, contextlib, io, qinstr.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = qinstr.cli.main(['verify', '--suite', 'ex-1'])\n"
            "print(rc, 'qinstr.serialize' in sys.modules)"
        )
        assert self._run_python(code) == "0 False"

    def test_package_names_resolve_to_documents(self):
        import qinstr.serialize

        from qinstr import Document, load_document, save_document

        module = qinstr.serialize
        assert (Document, load_document, save_document) == (module.Document, module.load_document, module.save_document)

    def test_package_names_resolve_to_catalog(self):
        import qinstr.verify

        from qinstr import VerificationReport, run_suite, run_suites

        assert run_suites is qinstr.verify.run_suites
        assert run_suite is qinstr.verify.run_suite
        assert VerificationReport is qinstr.verify.VerificationReport

    def test_unknown_package_attribute(self):
        with pytest.raises(AttributeError):
            qinstr.no_such_name
        assert not hasattr(qinstr, "no_such_name")
