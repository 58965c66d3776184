"""Command-line surface: verification suites, computations, random objects,
and document validation.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
unwritable output), 3 invariant violation while loading a document.
``QINSTR_TOL``, finite and positive, scales the catalog's tolerances.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DocumentError, QinstrError
from .instruments import (
    induced_observable,
    instr_conditioned,
    instr_convex_combo,
    instr_post_process,
    instr_product,
    joint_probability_instr,
    luders_instrument,
)
from .models import dilate_instrument, model_instrument
from .observables import (
    joint_probability_then,
    obs_conditioned,
    obs_convex_combo,
    obs_post_process,
    obs_seq_product,
    parse_label,
)
from .rand import (
    random_effect,
    random_fimm,
    random_instrument,
    random_observable,
    random_state,
    random_stochastic,
)
from .effects import seq_product
from .serialize import load_document, save_document

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

# Each compute expression with its least and greatest number of inputs.
_ARITY = {
    "seq-product": (2, 2),
    "conditioned": (2, 2),
    "convex": (2, None),
    "post-process": (2, 2),
    "product-instr": (2, 2),
    "j-map": (1, 1),
    "k-map": (1, 1),
    "dilate": (1, 1),
    "model-instr": (1, 1),
    "joint-prob": (5, 5),
}


def _tol_scale() -> float:
    raw = os.environ.get("QINSTR_TOL", "1.0")
    try:
        value = float(raw)
    except ValueError:
        raise QinstrError(f"QINSTR_TOL must be a number, got {raw!r}")
    if not (np.isfinite(value) and value > 0):
        raise QinstrError(f"QINSTR_TOL must be finite and positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qinstr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append", default=None, help="suite id (repeatable); default: all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)

    p_compute = sub.add_parser("compute", help="evaluate a composition of documents")
    p_compute.add_argument("expression", choices=tuple(_ARITY))
    p_compute.add_argument("inputs", nargs="+", help="document paths (plus label sets or weights where needed)")
    p_compute.add_argument("-o", "--output", required=True)

    p_random = sub.add_parser("random", help="generate a random document")
    p_random.add_argument("kind", choices=("effect", "state", "observable", "instrument", "fimm", "stochastic"))
    p_random.add_argument("--dim", type=int, required=True)
    p_random.add_argument("--outcomes", type=int, default=2)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("-o", "--output", required=True)

    p_validate = sub.add_parser("validate", help="load a document and report its invariants")
    p_validate.add_argument("file")
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES, run_suites

    suites = args.suite
    if suites:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            print(f"unknown suite id(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"known ids: {', '.join(SUITES)}", file=sys.stderr)
            return EXIT_USAGE
    reports = run_suites(suites, seed=args.seed, trials=args.trials, tol_scale=_tol_scale())
    for report in reports:
        print(report.line())
    failed = [r for r in reports if r.status == "fail"]
    print(f"{len(reports) - len(failed)}/{len(reports)} suites without failure")
    return EXIT_FAIL if failed else EXIT_OK


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise QinstrError(f"expected comma-separated weights, got {text!r}")


def _parse_label_set(text: str) -> list:
    return [parse_label(part) for part in text.split(",") if part != ""]


def _compute(expression: str, inputs: list[str]):
    """Returns (object, kind) for the computed result."""
    if expression == "seq-product":
        a, b = load_document(inputs[0]), load_document(inputs[1])
        if a.kind == "effect" and b.kind == "effect":
            return seq_product(a.obj, b.obj), "effect"
        if a.kind == "observable" and b.kind == "observable":
            return obs_seq_product(a.obj, b.obj), None
        raise QinstrError("seq-product needs two effects or two observables")
    if expression == "conditioned":
        a, b = load_document(inputs[0]), load_document(inputs[1])
        if a.kind == "observable" and b.kind == "observable":
            return obs_conditioned(a.obj, b.obj), None
        if a.kind == "instrument" and b.kind == "instrument":
            return instr_conditioned(a.obj, b.obj), None
        raise QinstrError("conditioned needs two observables or two instruments")
    if expression == "convex":
        weights = _parse_weights(inputs[0])
        docs = [load_document(p) for p in inputs[1:]]
        kinds = {d.kind for d in docs}
        if kinds == {"observable"}:
            return obs_convex_combo(weights, [d.obj for d in docs]), None
        if kinds == {"instrument"}:
            return instr_convex_combo(weights, [d.obj for d in docs]), None
        raise QinstrError("convex needs weights then observables or instruments")
    if expression == "post-process":
        nu, target = load_document(inputs[0]), load_document(inputs[1])
        if nu.kind != "stochastic":
            raise QinstrError("post-process needs a stochastic matrix first")
        if target.kind == "observable":
            return obs_post_process(nu.obj, target.obj), None
        if target.kind == "instrument":
            return instr_post_process(nu.obj, target.obj), None
        raise QinstrError("post-process target must be an observable or instrument")
    if expression == "product-instr":
        i, j = load_document(inputs[0]), load_document(inputs[1])
        if i.kind == "instrument" and j.kind == "instrument":
            return instr_product(i.obj, j.obj), None
        raise QinstrError("product-instr needs two instruments")
    if expression == "j-map":
        i = load_document(inputs[0])
        if i.kind != "instrument":
            raise QinstrError("j-map needs an instrument")
        return induced_observable(i.obj), None
    if expression == "k-map":
        a = load_document(inputs[0])
        if a.kind != "observable":
            raise QinstrError("k-map needs an observable")
        return luders_instrument(a.obj), None
    if expression == "dilate":
        i = load_document(inputs[0])
        if i.kind != "instrument":
            raise QinstrError("dilate needs an instrument")
        return dilate_instrument(i.obj), None
    if expression == "model-instr":
        m = load_document(inputs[0])
        if m.kind != "fimm":
            raise QinstrError("model-instr needs a measurement model")
        return model_instrument(m.obj), None
    if expression == "joint-prob":
        rho = load_document(inputs[0])
        first = load_document(inputs[1])
        x_set = _parse_label_set(inputs[2])
        second = load_document(inputs[3])
        y_set = _parse_label_set(inputs[4])
        if rho.kind != "state":
            raise QinstrError("joint-prob needs a state first")
        if first.kind == "observable" and second.kind == "observable":
            return joint_probability_then(rho.obj, first.obj, x_set, second.obj, y_set), "scalar"
        if first.kind == "instrument" and second.kind == "instrument":
            return joint_probability_instr(rho.obj, first.obj, x_set, second.obj, y_set), "scalar"
        raise QinstrError("joint-prob needs two observables or two instruments")
    raise QinstrError(f"unknown expression {expression!r}")


def _cmd_compute(args: argparse.Namespace) -> int:
    low, high = _ARITY[args.expression]
    if len(args.inputs) < low or (high is not None and len(args.inputs) > high):
        print(f"{args.expression}: wrong number of inputs ({len(args.inputs)})", file=sys.stderr)
        return EXIT_USAGE
    try:
        result, kind = _compute(args.expression, args.inputs)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except QinstrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _save(result, args.output, kind)


def _save(obj: object, path: str, kind: str | None) -> int:
    try:
        save_document(obj, path, kind)
    except OSError as exc:
        raise QinstrError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_random(args: argparse.Namespace) -> int:
    if not (2 <= args.dim <= 8):
        print("--dim must be in [2, 8]", file=sys.stderr)
        return EXIT_USAGE
    if not (1 <= args.outcomes <= 8):
        print("--outcomes must be in [1, 8]", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        raise QinstrError(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    kind: str | None = None
    if args.kind == "effect":
        obj, kind = random_effect(args.dim, rng), "effect"
    elif args.kind == "state":
        obj, kind = random_state(args.dim, rng), "state"
    elif args.kind == "observable":
        obj = random_observable(args.dim, args.outcomes, rng)
    elif args.kind == "instrument":
        obj = random_instrument(args.dim, args.outcomes, rng)
    elif args.kind == "fimm":
        obj = random_fimm(args.dim, args.dim, args.outcomes, rng)
    else:
        labels = [str(k) for k in range(args.outcomes)]
        obj = random_stochastic(labels, labels, rng)
    return _save(obj, args.output, kind)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = load_document(args.file)
    except DocumentError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"valid {doc.kind} (dim={doc.dim})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "random":
            return _cmd_random(args)
        return _cmd_validate(args)
    except DocumentError as exc:
        print(f"invalid document: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except QinstrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
