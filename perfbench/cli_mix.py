"""Workload ``cli-mix``: a fixed deck of ``python -m qinstr.cli`` commands.

The deck holds every ``compute`` expression, ``validate`` and ``random``.
70 of its 100 commands use small documents (d = 2..4); 30 read or write
documents of 0.5 MB or more (d = 8 instruments, or outputs of that size);
5 use documents built to violate an invariant and must exit 3.  The seed
picks the matrices and the order, never the mix.

Each command is one closed-loop child process; its latency is the child's
wall time.  Every output is reloaded with plain ``json`` and numpy, checked
for kind and dimension, and checked against an identity.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from . import npcheck as nc
from . import speed
from .common import OpResult, child_env, run_child

NAME = "cli-mix"

# (kind, size class, variants); each variant is one command of the deck.
SMALL: tuple[tuple[str, int], ...] = (
    ("validate", 11),
    ("validate-bad", 3),
    ("seq-bad", 1),
    ("seq-effect", 4),
    ("seq-obs", 3),
    ("cond-obs", 3),
    ("cond-instr", 3),
    ("convex-obs", 3),
    ("convex-instr", 3),
    ("post-obs", 2),
    ("post-instr", 2),
    ("product", 3),
    ("j-map", 4),
    ("k-map", 4),
    ("dilate", 3),
    ("model", 3),
    ("joint-obs", 3),
    ("joint-instr", 3),
    ("random", 9),
)
LARGE: tuple[tuple[str, tuple], ...] = (
    ("validate", ("I8a", "I8b", "I8x4")),
    ("validate-bad", ("bad8",)),
    ("j-map", ("I8a", "I8c")),
    ("dilate", ("I8a", "I8b")),
    ("post-instr", ("I8a", "I8c")),
    ("joint-instr", (("I8a", "I8b"), ("I8b", "I8c"))),
    ("random", (3, 3, 4)),
    ("k-map", ("A8a", "A8b", "A8a")),
    ("model", ("M8a", "M8b", "M8a")),
    ("cond-instr", (("I8a", "I8b"), ("I8b", "I8a"), ("I8a", "I8c"))),
    ("convex-instr", (("I8a", "I8b"), ("I8b", "I8c"), ("I8a", "I8b", "I8c"))),
    ("product", (("I8a", "I8b"), ("I8b", "I8c"), ("I8x4", "I8y4"))),
)
EXIT_INVARIANT = 3
SMALL_RANDOM_KINDS = ("effect", "state", "observable", "instrument", "fimm", "stochastic")
# Per-layer exponent fits this workload reports: metric -> (sample group, min size).
# Rounds over the deck per run.  One round of 100 children takes about 30 s,
# and scaled times are steady without a second.
ROUNDS = 1
FITS = {"serialize.encode_exp": ("serialize.encode", 0.0)}
NOOP_RUNS = 5


@dataclass(frozen=True)
class Spec:
    kind: str
    klass: str  # "small" or "large"
    variant: object  # small: index within its kind; large: document names


@dataclass
class Command:
    argv: list[str]
    expect_rc: int
    klass: str
    output: str | None
    check: Callable[[str], bool]  # stdout -> outputs correct


@dataclass
class State:
    workdir: str
    commands: list[Command]
    env: dict
    peak_rss_kb: int = 0


def plan(seed: int) -> list[Spec]:
    """The deck for ``seed``: fixed counts per kind and class, seeded order."""
    specs = [Spec(kind, "small", k) for kind, count in SMALL for k in range(count)]
    specs += [Spec(kind, "large", v) for kind, variants in LARGE for v in variants]
    order = np.random.default_rng([seed, 0]).permutation(len(specs))
    return [specs[i] for i in order]


def class_shares(specs: list[Spec]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in specs:
        key = s.klass + ("-invalid" if s.kind.endswith("-bad") else "")
        out[key] = out.get(key, 0.0) + 1.0 / len(specs)
    return out


# -- documents -------------------------------------------------------------------


class _Docs:
    """Writes input documents into the work directory."""

    def __init__(self, workdir: str):
        from qinstr.serialize import save_document

        self.workdir = workdir
        self._save = save_document
        self._n = 0

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, stem + ".json")

    def save(self, obj, kind: str | None = None, stem: str | None = None) -> str:
        if stem is None:
            self._n += 1
            stem = f"in{self._n}"
        path = self.path(stem)
        self._save(obj, path, kind)
        return path

    def save_raw(self, data: dict, stem: str) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _shared_docs(docs: _Docs, seed: int) -> dict[str, str]:
    from qinstr.models import dilate_instrument
    from qinstr.rand import random_instrument, random_observable, random_state, random_stochastic
    from qinstr.serialize import document_dict

    rng = np.random.default_rng([seed, 1])
    inst = {
        "I8a": random_instrument(8, 3, rng, 1),
        "I8b": random_instrument(8, 3, rng, 1),
        "I8c": random_instrument(8, 3, rng, 2),
        "I8x4": random_instrument(8, 4, rng, 1),
        "I8y4": random_instrument(8, 4, rng, 1),
    }
    paths = {name: docs.save(obj, stem=name) for name, obj in inst.items()}
    for name in ("A8a", "A8b"):
        paths[name] = docs.save(random_observable(8, 3, rng), stem=name)
    paths["M8a"] = docs.save(dilate_instrument(inst["I8a"]), stem="M8a")
    paths["M8b"] = docs.save(dilate_instrument(inst["I8b"]), stem="M8b")
    paths["r8"] = docs.save(random_state(8, rng), "state", stem="r8")
    labels = list(inst["I8a"].labels)
    paths["nu8"] = docs.save(random_stochastic(labels, ["a", "b"], rng), stem="nu8")
    bad = document_dict(inst["I8a"])
    first = bad["labels"][0]
    bad["operations"][first]["choi"] = (1.01 * np.asarray(bad["operations"][first]["choi"])).tolist()
    paths["bad8"] = docs.save_raw(bad, "bad8")
    return paths


# -- commands --------------------------------------------------------------------


def _compute(expr: str, args: list[str], out: str) -> list[str]:
    return ["-m", "qinstr.cli", "compute", expr, *args, "-o", out]


def _weights(rng: np.random.Generator, count: int) -> list[float]:
    """Short convex weights; the last one makes the sum one to 1e-12."""
    w = [round(float(x), 6) for x in rng.dirichlet(np.ones(count))]
    w[-1] = round(1.0 - sum(w[:-1]), 12)
    return w


def _build(spec: Spec, i: int, seed: int, docs: _Docs, shared: dict[str, str]) -> Command:
    from qinstr.models import dilate_instrument
    from qinstr.rand import (
        random_effect,
        random_instrument,
        random_observable,
        random_state,
        random_stochastic,
    )

    rng = np.random.default_rng([seed, 2, i])
    out = os.path.join(docs.workdir, f"out{i}.json")
    d = int(rng.integers(2, 5))
    m = int(rng.integers(2, 4))
    large = spec.klass == "large"
    kind = spec.kind

    def obs(dim=d, outcomes=m):
        return docs.save(random_observable(dim, outcomes, rng))

    def instr(dim=d, outcomes=m, kraus=1):
        return docs.save(random_instrument(dim, outcomes, rng, kraus))

    def out_doc(kind_: str, dim: int) -> dict | None:
        """The output document, if it has the expected kind and dimension."""
        doc = nc.read(out)
        return doc if doc.get("kind") == kind_ and doc.get("dim") == dim else None

    def command(argv, check, expect=0, output=out):
        return Command(argv, expect, spec.klass, output, check)

    if kind == "validate":
        if large:
            path = shared[spec.variant]
            want = "valid instrument (dim=8)"
        else:
            which = spec.variant % 5
            if which == 0:
                path, want = docs.save(random_effect(d, rng), "effect"), f"valid effect (dim={d})"
            elif which == 1:
                path, want = docs.save(random_state(d, rng), "state"), f"valid state (dim={d})"
            elif which == 2:
                path, want = obs(), f"valid observable (dim={d})"
            elif which == 3:
                path, want = instr(), f"valid instrument (dim={d})"
            else:
                model = dilate_instrument(random_instrument(d, m, rng, 1))
                path, want = docs.save(model), f"valid fimm (dim={d})"
        return command(["-m", "qinstr.cli", "validate", path], lambda so: so.strip() == want, output=None)

    if kind == "validate-bad":
        if large:
            path = shared["bad8"]
        else:
            path = _bad_doc(spec.variant, d, m, rng, docs, i)
        return command(["-m", "qinstr.cli", "validate", path], lambda so: so == "", EXIT_INVARIANT, None)

    if kind == "seq-bad":
        bad = docs.save_raw({"kind": "effect", "dim": d, "matrix": _pairs(1.5 * np.eye(d))}, f"bad{i}")
        good = docs.save(random_effect(d, rng), "effect")
        return command(_compute("seq-product", [bad, good], out), lambda so: not os.path.exists(out), EXIT_INVARIANT)

    if kind == "seq-effect":
        a, b = docs.save(random_effect(d, rng), "effect"), docs.save(random_effect(d, rng), "effect")

        def check(_):
            doc = out_doc("effect", d)
            ref = nc.seq(nc.mat(nc.read(a)["matrix"]), nc.mat(nc.read(b)["matrix"]))
            return doc is not None and nc.gap([nc.mat(doc["matrix"])], [ref]) <= nc.TOL

        return command(_compute("seq-product", [a, b], out), check)

    if kind in ("seq-obs", "cond-obs"):
        a, b = obs(), obs(outcomes=2)

        def check(_):
            doc = out_doc("observable", d)
            ea, eb = nc.effects(nc.read(a)), nc.effects(nc.read(b))
            if kind == "seq-obs":
                ref = [nc.seq(x, y) for x in ea for y in eb]
            else:
                ref = [sum(nc.seq(x, y) for x in ea) for y in eb]
            return doc is not None and nc.gap(nc.effects(doc), ref) <= nc.TOL and nc.sum_gap(ref, d) <= nc.TOL

        expr = "seq-product" if kind == "seq-obs" else "conditioned"
        return command(_compute(expr, [a, b], out), check)

    if kind == "cond-instr":
        a, b = (shared[v] for v in spec.variant) if large else (instr(), instr(outcomes=2))
        dim = 8 if large else d

        def check(_):
            doc = out_doc("instrument", dim)
            ca, cb = nc.chois(nc.read(a)), nc.chois(nc.read(b))
            ref = [nc.compose(y, sum(ca)) for y in cb]
            return doc is not None and nc.gap(nc.chois(doc), ref) <= nc.TOL

        return command(_compute("conditioned", [a, b], out), check)

    if kind in ("convex-obs", "convex-instr"):
        if large:
            inputs = [shared[v] for v in spec.variant]
        elif kind == "convex-obs":
            inputs = [docs.save(random_observable(d, m, rng)) for _ in range(2 + spec.variant % 2)]
        else:
            inputs = [docs.save(random_instrument(d, m, rng, 1)) for _ in range(2 + spec.variant % 2)]
        w = _weights(rng, len(inputs))
        dim = 8 if large else d
        doc_kind = "observable" if kind == "convex-obs" else "instrument"
        parts = nc.effects if kind == "convex-obs" else nc.chois

        def check(_):
            doc = out_doc(doc_kind, dim)
            ins = [parts(nc.read(p)) for p in inputs]
            ref = [sum(wk * mats[x] for wk, mats in zip(w, ins)) for x in range(len(ins[0]))]
            return doc is not None and nc.gap(parts(doc), ref) <= nc.TOL

        return command(_compute("convex", [",".join(repr(v) for v in w), *inputs], out), check)

    if kind in ("post-obs", "post-instr"):
        if large:
            target, nu = shared[spec.variant], shared["nu8"]
            dim = 8
        else:
            target = obs() if kind == "post-obs" else instr()
            labels = [str(x) for x in range(m)]
            nu = docs.save(random_stochastic(labels, ["a", "b"], rng))
            dim = d
        doc_kind = "observable" if kind == "post-obs" else "instrument"
        parts = nc.effects if kind == "post-obs" else nc.chois

        def check(_):
            doc = out_doc(doc_kind, dim)
            nu_doc, tdoc = nc.read(nu), nc.read(target)
            ins = dict(zip(tdoc["labels"], parts(tdoc)))
            mat = np.asarray(nu_doc["matrix"], dtype=float)
            rows = nu_doc["row_labels"]
            ref = [sum(mat[r, c] * ins[x] for r, x in enumerate(rows)) for c in range(mat.shape[1])]
            return doc is not None and nc.gap(parts(doc), ref) <= nc.TOL

        return command(_compute("post-process", [nu, target], out), check)

    if kind == "product":
        a, b = (shared[v] for v in spec.variant) if large else (instr(), instr(outcomes=2))
        dim = 8 if large else d

        def check(_):
            doc = out_doc("instrument", dim)
            ca, cb = nc.chois(nc.read(a)), nc.chois(nc.read(b))
            ref = [nc.compose(y, x) for x in ca for y in cb]
            return doc is not None and nc.gap(nc.chois(doc), ref) <= nc.TOL

        return command(_compute("product-instr", [a, b], out), check)

    if kind == "j-map":
        src = shared[spec.variant] if large else instr(kraus=1 + spec.variant % 2)
        dim = 8 if large else d

        def check(_):
            doc = out_doc("observable", dim)
            ref = [nc.induced(c) for c in nc.chois(nc.read(src))]
            return doc is not None and nc.gap(nc.effects(doc), ref) <= nc.TOL and nc.sum_gap(ref, dim) <= nc.TOL

        return command(_compute("j-map", [src], out), check)

    if kind == "k-map":
        src = shared[spec.variant] if large else obs()
        dim = 8 if large else d

        def check(_):
            doc = out_doc("instrument", dim)
            ea = nc.effects(nc.read(src))
            if doc is None:
                return False
            got = nc.chois(doc)
            # j-map o k-map returns A, and each outcome is the Lueders map.
            return (
                nc.gap([nc.induced(c) for c in got], ea) <= nc.TOL
                and nc.gap(got, [nc.luders_choi(a) for a in ea]) <= nc.TOL
            )

        return command(_compute("k-map", [src], out), check)

    if kind == "dilate":
        src = shared[spec.variant] if large else instr(kraus=1 + spec.variant % 2)
        dim = 8 if large else d

        def check(_):
            doc = out_doc("fimm", dim)
            if doc is None:
                return False
            # dilate then model-instr returns the instrument.
            u = nc.mat(doc["interaction"]["unitary"])
            return (
                nc.unitary_gap(u) <= nc.TOL
                and nc.gap(nc.model_chois(doc), nc.chois(nc.read(src))) <= nc.TOL
            )

        return command(_compute("dilate", [src], out), check)

    if kind == "model":
        src = shared[spec.variant] if large else docs.save(dilate_instrument(random_instrument(d, m, rng, 1)))
        dim = 8 if large else d

        def check(_):
            doc = out_doc("instrument", dim)
            ref = nc.model_chois(nc.read(src))
            return doc is not None and nc.gap(nc.chois(doc), ref) <= nc.TOL

        return command(_compute("model-instr", [src], out), check)

    if kind in ("joint-obs", "joint-instr"):
        if large:
            a, b = (shared[v] for v in spec.variant)
            rho = shared["r8"]
            outcomes = 3
        else:
            rho = docs.save(random_state(d, rng), "state")
            a, b = (obs(), obs()) if kind == "joint-obs" else (instr(), instr())
            outcomes = m
        x_idx = sorted(rng.choice(outcomes, size=int(rng.integers(1, outcomes + 1)), replace=False).tolist())
        y_idx = sorted(rng.choice(outcomes, size=int(rng.integers(1, outcomes + 1)), replace=False).tolist())
        parts = nc.effects if kind == "joint-obs" else nc.chois
        ref_fn = nc.joint_prob_obs if kind == "joint-obs" else nc.joint_prob_instr

        def check(_):
            doc = out_doc("scalar", 0)
            r = nc.mat(nc.read(rho)["matrix"])
            ref = ref_fn(r, parts(nc.read(a)), x_idx, parts(nc.read(b)), y_idx)
            return doc is not None and abs(float(doc["value"]) - min(1.0, max(0.0, ref))) <= nc.TOL

        x_set, y_set = (",".join(str(x) for x in idx) for idx in (x_idx, y_idx))
        return command(_compute("joint-prob", [rho, a, x_set, b, y_set], out), check)

    if kind == "random":
        if large:
            rkind, dim, outcomes = "instrument", 8, spec.variant
        else:
            rkind, dim, outcomes = SMALL_RANDOM_KINDS[spec.variant % 6], d, m
        argv = ["-m", "qinstr.cli", "random", rkind, "--dim", str(dim), "--outcomes", str(outcomes),
                "--seed", str(int(rng.integers(1 << 30))), "-o", out]
        doc_dim = 0 if rkind == "stochastic" else dim
        return command(argv, lambda _: _random_ok(out_doc(rkind, doc_dim), rkind, dim, outcomes))

    raise ValueError(f"unknown command kind {kind!r}")


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _bad_doc(variant: int, d: int, m: int, rng: np.random.Generator, docs: _Docs, i: int) -> str:
    """A small document that violates one invariant."""
    from qinstr.rand import random_instrument, random_observable
    from qinstr.serialize import document_dict

    if variant == 0:  # effects no longer sum to the identity
        data = document_dict(random_observable(d, m, rng))
        first = data["labels"][0]
        data["effects"][first] = _pairs(0.9 * nc.mat(data["effects"][first]))
    elif variant == 1:  # state with trace two
        data = {"kind": "state", "dim": d, "matrix": _pairs(2.0 * np.eye(d) / d)}
    else:  # outcome Choi matrix that is not positive
        data = document_dict(random_instrument(d, m, rng, 1))
        first = data["labels"][0]
        data["operations"][first]["choi"] = _pairs(-nc.mat(data["operations"][first]["choi"]))
    return docs.save_raw(data, f"bad{i}")


def _random_ok(doc: dict | None, kind: str, dim: int, outcomes: int) -> bool:
    if doc is None:
        return False
    if kind == "effect":
        return nc.effect_gap(nc.mat(doc["matrix"])) <= nc.TOL
    if kind == "state":
        return nc.state_gap(nc.mat(doc["matrix"])) <= nc.TOL
    if kind == "observable":
        e = nc.effects(doc)
        return len(e) == outcomes and nc.sum_gap(e, dim) <= nc.TOL
    if kind == "instrument":
        c = nc.chois(doc)
        return len(c) == outcomes and nc.sum_gap([nc.induced(x) for x in c], dim) <= nc.TOL
    if kind == "fimm":
        return (
            nc.unitary_gap(nc.mat(doc["interaction"]["unitary"])) <= nc.TOL
            and nc.state_gap(nc.mat(doc["probe_state"])) <= nc.TOL
            and nc.sum_gap(nc.effects(doc["pointer"]), doc["dim_probe"]) <= nc.TOL
        )
    rows = np.asarray(doc["matrix"], dtype=float)
    return rows.shape[0] == outcomes and float(np.max(np.abs(rows.sum(axis=1) - 1.0))) <= nc.TOL


# -- running ---------------------------------------------------------------------


def setup(seed: int, workdir: str) -> State:
    docs = _Docs(workdir)
    shared = _shared_docs(docs, seed)
    commands = [_build(spec, i, seed, docs, shared) for i, spec in enumerate(plan(seed))]
    env = child_env()
    # Warm the interpreter, the imports and the file cache once.
    run_child(["-m", "qinstr.cli", "--help"], workdir, env)
    return State(workdir, commands, env)


def _checked(cmd: Command, rc: int, stdout: str) -> bool:
    try:
        return rc == cmd.expect_rc and bool(cmd.check(stdout))
    except (OSError, ValueError, KeyError, TypeError, IndexError, np.linalg.LinAlgError):
        return False


def _clear(cmd: Command) -> None:
    if cmd.output is not None and os.path.exists(cmd.output):
        os.remove(cmd.output)


def deck(state: State) -> tuple[list[OpResult], float]:
    """One round: every command once, in deck order."""
    results = []
    for cmd in state.commands:
        _clear(cmd)
        scale = speed.factor()
        child = run_child(cmd.argv, state.workdir, state.env)
        state.peak_rss_kb = max(state.peak_rss_kb, child.maxrss_kb)
        ok = _checked(cmd, child.rc, child.stdout)
        ms = child.seconds * 1e3
        results.append(OpResult(ms * scale, ok, cmd.klass, ms))
    return results, 0.0


def peak_rss_mb(state: State) -> float:
    return state.peak_rss_kb / 1024.0


def _in_process(cmd: Command, tracer=None) -> tuple[int, str, float]:
    from qinstr.cli import main

    argv = cmd.argv[2:]  # drop "-m qinstr.cli"
    out, err = io.StringIO(), io.StringIO()
    _clear(cmd)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        if tracer is None:
            rc = main(argv)
        else:
            with tracer.op():
                rc = main(argv)
        seconds = perf_counter() - t0
    return rc, out.getvalue(), seconds


def traced(state: State, tracer, seconds: float) -> tuple[list[OpResult], dict]:
    """Each command as a child, then in process untraced, then traced."""
    noop = [run_child(["-m", "qinstr.cli", "--help"], state.workdir, state.env).seconds for _ in range(NOOP_RUNS)]
    results: list[OpResult] = []
    sub_s = plain_s = traced_s = 0.0
    t0 = perf_counter()
    while not results or perf_counter() - t0 < seconds:
        for cmd in state.commands:
            _clear(cmd)
            child = run_child(cmd.argv, state.workdir, state.env)
            ok = _checked(cmd, child.rc, child.stdout)
            rc, stdout, plain = _in_process(cmd)
            ok = ok and _checked(cmd, rc, stdout)
            tracer.install()
            try:
                rc, stdout, with_trace = _in_process(cmd, tracer)
            finally:
                tracer.uninstall()
            ok = ok and _checked(cmd, rc, stdout)
            sub_s += child.seconds
            plain_s += plain
            traced_s += with_trace
            results.append(OpResult(child.seconds * 1e3, ok, cmd.klass, child.seconds * 1e3))
    n = len(results)
    extras = {
        "cli.noop_ms": median(noop) * 1e3,
        "cli.overhead_ms": (sub_s - plain_s) / n * 1e3,
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    }
    return results, extras
