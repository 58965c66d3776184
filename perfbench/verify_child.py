"""One ``qinstr verify`` pass with a clock around each suite.

Usage: python verify_child.py --seed N --out PATH [--trace]

Runs ``qinstr.cli.main(["verify", "--seed", N])`` exactly as the console
script does; ``run_suite`` is rebound in ``qinstr.verify`` so each suite's
wall time is recorded, with the machine-speed factor (``speed.factor``)
measured just before it.  Writes ``{"suite_ms": {id: ms}, "suite_scale":
{id: factor}, "trace": ...}`` to PATH, where ``trace`` is the exported span
tracer under ``--trace`` and null otherwise.  Exits with the CLI's exit
code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import qinstr.cli as cli
    import qinstr.verify as verify

    from perfbench.speed import factor
    from perfbench.tracer import Tracer

    # Each suite is one op, so the CLI entry point itself stays untraced.
    cli_main = cli.main
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    inner = verify.run_suite
    suite_ms: dict[str, float] = {}
    suite_scale: dict[str, float] = {}

    def timed(result_id, *rest, **kwargs):
        suite_scale[result_id] = factor()
        t0 = perf_counter()
        if tracer is None:
            report = inner(result_id, *rest, **kwargs)
        else:
            with tracer.op():
                report = inner(result_id, *rest, **kwargs)
        suite_ms[result_id] = (perf_counter() - t0) * 1e3
        return report

    verify.run_suite = timed
    try:
        rc = cli_main(["verify", "--seed", str(args.seed)])
    finally:
        verify.run_suite = inner
        if tracer is not None:
            tracer.uninstall()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"suite_ms": suite_ms, "suite_scale": suite_scale, "trace": tracer.export() if tracer else None}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
