"""Benchmark for qinstr: three closed-loop, single-client workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-mix,catalog,large-d} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run sets up its inputs five times (``setup_s`` is
the median), then runs rounds over a deck of at least 100 ops until it has
lasted ``--seconds`` and made the workload's number of rounds, checking
every op's output.  Times are scaled to a reference machine speed (see
``speed.py``) and an op's latency is its fastest round.  It prints each
end-to-end metric with its unit and sample count, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` it runs each op untraced and traced and reports the per-layer
metrics instead.  At most one child process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
WORKLOADS = ("cli-mix", "catalog", "large-d")
# (name, unit, better) of the end-to-end metrics, each per workload.
END_TO_END = (
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _workload(name: str):
    from perfbench import catalog, cli_mix, large_d

    return {"cli-mix": cli_mix, "catalog": catalog, "large-d": large_d}[name]


def _git_rev() -> str:
    """Commit of the checkout from ``.git`` files, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(wl, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "seed": seed,
        "class_shares": {k: round(v, 4) for k, v in wl.class_shares(wl.plan(seed)).items()},
    }


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(wl, seed: int, seconds: float, work: str) -> tuple[dict, int, int, list[str]]:
    """Set up SETUP_REPEATS times, then run rounds over the deck.

    Every op of the deck runs once per round, and a run makes at least
    ``wl.ROUNDS`` rounds and lasts at least ``seconds``.  Op and set-up times
    are scaled to the reference speed, and an op's latency is its fastest
    round, which drops what the scaling leaves of a slow phase.
    """
    from perfbench import speed
    from perfbench.common import MAX_RUN_S, MIN_OPS
    from perfbench.stats import latency_summary

    setup_s = []
    for k in range(SETUP_REPEATS):
        workdir = _fresh(os.path.join(work, f"setup{k}"))
        before = speed.factor()
        t0 = perf_counter()
        state = wl.setup(seed, workdir)
        setup_s.append((perf_counter() - t0) * (before + speed.factor()) / 2)
    rounds, overheads = [], []
    t0 = perf_counter()
    while True:
        ops, overhead_s = wl.deck(state)
        rounds.append(ops)
        overheads.append(overhead_s)
        elapsed = perf_counter() - t0
        if elapsed >= seconds and len(rounds) >= wl.ROUNDS:
            break
        if elapsed * (len(rounds) + 1) / len(rounds) > MAX_RUN_S:
            break  # another round would not end in time
    n = len(rounds[0])
    if n < MIN_OPS:
        raise RuntimeError(f"a deck of {n} ops is too small: p90 needs {MIN_OPS}")
    best_ms = [min(r[i].ms for r in rounds) for i in range(n)]
    raw_ms = [min(r[i].raw_ms for r in rounds) for i in range(n)]
    attempted = n * len(rounds)
    failed = sum(not op.ok for r in rounds for op in r)
    lat = latency_summary(best_ms)
    values = {
        **lat,
        "ops_per_s": n / (sum(best_ms) / 1e3 + min(overheads)),
        "peak_rss_mb": wl.peak_rss_mb(state),
        "setup_s": median(setup_s),
    }
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    lines = [
        f"{wl.NAME} {name} = {value:.6g} {unit} (n={len(setup_s) if name == 'setup_s' else n})"
        for name, (value, unit) in metrics.items()
    ]
    raw = latency_summary(raw_ms)
    lines.append(f"{wl.NAME} unscaled op_ms.p50 = {raw['op_ms.p50']:.6g} ms, op_ms.p90 = {raw['op_ms.p90']:.6g} ms")
    lines.append(f"{wl.NAME} fail_frac = {failed / attempted:.6g} (n={attempted})")
    lines.append(f"{wl.NAME} rounds = {len(rounds)} in {elapsed:.1f} s")
    by_class: dict[str, list[float]] = {}
    for op, ms in zip(rounds[0], best_ms):
        by_class.setdefault(op.klass, []).append(ms)
    for klass, times in sorted(by_class.items()):
        lines.append(f"{wl.NAME} class {klass}: n={len(times)} median {median(times):.4g} ms")
    return metrics, attempted, failed, lines


def measure_traced(wl, seed: int, seconds: float, work: str) -> tuple[dict, int, int, list[str]]:
    from perfbench.layers import UNITS, layer_metrics
    from perfbench.tracer import Tracer

    state = wl.setup(seed, _fresh(os.path.join(work, "traced")))
    tracer = Tracer()
    results, extras = wl.traced(state, tracer, seconds)
    values = layer_metrics(tracer, wl.FITS, extras)
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    failed = sum(not r.ok for r in results)
    lines = [f"{wl.NAME} {name} = {value:.6g} {unit} (traced ops={tracer.ops})" for name, (value, unit) in metrics.items()]
    return metrics, len(results), failed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qinstr", "__init__.py")):
        print(f"perfbench: no qinstr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.common import pin_threads

    pin_threads(os.environ)  # before numpy is imported

    wl = _workload(args.workload)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = _fresh(os.path.join(work_root, f"{args.workload}-{os.getpid()}"))
    try:
        print("conditions " + json.dumps(conditions(wl, args.seed), sort_keys=True))
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, lines = run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
