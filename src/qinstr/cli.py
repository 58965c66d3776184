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
    default_labels,
    random_effect,
    random_fimm,
    random_instrument,
    random_observable,
    random_state,
    random_stochastic,
)
from .effects import seq_product

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

# Each compute expression's accepted forms: a tuple of input kinds mapped to
# the function of those inputs and the output document kind (None: the
# result's own).  A kind is a document kind, or ``weights`` or ``labels`` for
# a comma-separated list given on the command line.  A trailing ``...``
# repeats the kind before it, one or more times.
_EXPRESSIONS = {
    "seq-product": {
        ("effect", "effect"): (seq_product, "effect"),
        ("observable", "observable"): (obs_seq_product, None),
    },
    "conditioned": {
        ("observable", "observable"): (obs_conditioned, None),
        ("instrument", "instrument"): (instr_conditioned, None),
    },
    "convex": {
        ("weights", "observable", ...): (lambda w, *obs: obs_convex_combo(w, obs), None),
        ("weights", "instrument", ...): (lambda w, *instrs: instr_convex_combo(w, instrs), None),
    },
    "post-process": {
        ("stochastic", "observable"): (obs_post_process, None),
        ("stochastic", "instrument"): (instr_post_process, None),
    },
    "product-instr": {("instrument", "instrument"): (instr_product, None)},
    "j-map": {("instrument",): (induced_observable, None)},
    "k-map": {("observable",): (luders_instrument, None)},
    "dilate": {("instrument",): (dilate_instrument, None)},
    "model-instr": {("fimm",): (model_instrument, None)},
    "joint-prob": {
        ("state", "observable", "labels", "observable", "labels"): (joint_probability_then, "scalar"),
        ("state", "instrument", "labels", "instrument", "labels"): (joint_probability_instr, "scalar"),
    },
}

# Each random kind's generator of (dim, outcomes, rng); the kind names the
# output document.
_RANDOM = {
    "effect": lambda d, m, rng: random_effect(d, rng),
    "state": lambda d, m, rng: random_state(d, rng),
    "observable": random_observable,
    "instrument": random_instrument,
    "fimm": lambda d, m, rng: random_fimm(d, d, m, rng),
    "stochastic": lambda d, m, rng: random_stochastic(default_labels(m), default_labels(m), rng),
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


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES, run_suites

    unknown = [s for s in args.suite or () if s not in SUITES]
    if unknown:
        raise QinstrError(f"unknown suite id(s): {', '.join(unknown)}; known ids: {', '.join(SUITES)}")
    reports = run_suites(args.suite, seed=args.seed, trials=args.trials, tol_scale=_tol_scale())
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


_PARSERS = {"weights": _parse_weights, "labels": _parse_label_set}


def _spelled_out(form: tuple, count: int) -> tuple:
    """The form's kinds for ``count`` inputs, its repeated kind written out;
    the result is shorter or longer than ``count`` when the form cannot take
    that many inputs."""
    if form[-1] is not ...:
        return form
    return form[:-1] + form[-2:-1] * (count - len(form) + 1)


def _cmd_compute(args: argparse.Namespace) -> int:
    from .serialize import Document, load_document

    forms = _EXPRESSIONS[args.expression]
    count = len(args.inputs)
    needs = f"{args.expression} needs " + " or ".join(
        "(" + ", ".join("..." if k is ... else k for k in form) + ")" for form in forms
    )
    shapes = {_spelled_out(form, count): entry for form, entry in forms.items()}
    shape = next((s for s in shapes if len(s) == count), None)
    if shape is None:
        raise QinstrError(f"{needs}, got {count} inputs")
    docs = [
        Document(kind, 0, _PARSERS[kind](text)) if kind in _PARSERS else load_document(text)
        for text, kind in zip(args.inputs, shape)
    ]
    entry = shapes.get(tuple(doc.kind for doc in docs))
    if entry is None:
        raise QinstrError(needs)
    fn, kind = entry
    return _save(fn(*(doc.obj for doc in docs)), args.output, kind)


def _save(obj: object, path: str, kind: str | None) -> int:
    from .serialize import save_document

    try:
        save_document(obj, path, kind)
    except OSError as exc:
        raise QinstrError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_random(args: argparse.Namespace) -> int:
    if not (2 <= args.dim <= 8):
        raise QinstrError(f"--dim must be in [2, 8], got {args.dim}")
    if not (1 <= args.outcomes <= 8):
        raise QinstrError(f"--outcomes must be in [1, 8], got {args.outcomes}")
    if args.seed < 0:
        raise QinstrError(f"--seed must be nonnegative, got {args.seed}")
    obj = _RANDOM[args.kind](args.dim, args.outcomes, np.random.default_rng(args.seed))
    return _save(obj, args.output, args.kind)


def _cmd_validate(args: argparse.Namespace) -> int:
    from .serialize import load_document

    doc = load_document(args.file)
    print(f"valid {doc.kind} (dim={doc.dim})")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qinstr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append", default=None, help="suite id (repeatable); default: all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(run=_cmd_verify)

    p_compute = sub.add_parser("compute", help="evaluate a composition of documents")
    p_compute.add_argument("expression", choices=tuple(_EXPRESSIONS))
    p_compute.add_argument("inputs", nargs="+", help="document paths (plus label sets or weights where needed)")
    p_compute.add_argument("-o", "--output", required=True)
    p_compute.set_defaults(run=_cmd_compute)

    p_random = sub.add_parser("random", help="generate a random document")
    p_random.add_argument("kind", choices=tuple(_RANDOM))
    p_random.add_argument("--dim", type=int, required=True)
    p_random.add_argument("--outcomes", type=int, default=2)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("-o", "--output", required=True)
    p_random.set_defaults(run=_cmd_random)

    p_validate = sub.add_parser("validate", help="load a document and report its invariants")
    p_validate.add_argument("file")
    p_validate.set_defaults(run=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DocumentError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except QinstrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
