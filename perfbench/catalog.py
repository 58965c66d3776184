"""Workload ``catalog``: repeated ``qinstr verify`` passes, one child each.

One op is one verification suite inside a pass, timed by the child (see
``verify_child.py``).  A round is eight passes with eight verify seeds
derived from the run's seed, so it holds 240 ops and p90 has ten samples
beyond it.  ``ops_per_s`` also counts the passes' time outside the suites,
so it includes interpreter start and imports.  Each pass must exit 0 with
28 ``pass``, 2 ``unknown`` and 0 ``fail`` lines; each suite that reports
another status than expected is one failed op.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter

from . import speed
from .common import OpResult, child_env, run_child

NAME = "catalog"
SUITES = (
    "ex-1", "lem-1.1", "lem-1.2", "thm-2.1", "thm-2.2", "thm-2.3", "lem-2.4", "cor-2.5",
    "lem-2.6", "ex-2", "ex-3", "ex-4", "ex-5", "ex-6", "ex-7", "ex-8", "lem-3.1", "thm-3.2",
    "cor-3.3", "lem-3.4", "thm-4.1", "lem-4.2", "cor-4.3", "thm-4.4", "cor-4.5", "thm-4.6",
    "cor-4.7", "thm-4.8", "conj-2.5-converse", "conj-3.3-converse",
)
UNKNOWN = ("conj-2.5-converse", "conj-3.3-converse")
# Passes per round, each with its own verify seed: 8 x 30 = 240 ops.  More
# seeds in one round steady p90 better than more rounds of fewer seeds.
PASSES = 8
# Rounds over the deck per run.
ROUNDS = 1
FITS: dict = {}


@dataclass
class State:
    workdir: str
    seeds: list[int]
    env: dict
    peak_rss_kb: int = 0


def plan(seed: int) -> list[int]:
    """Verify seeds of the passes of one round."""
    return [(seed * 7919 + k) % (1 << 31) for k in range(PASSES)]


def class_shares(seeds: list[int]) -> dict[str, float]:
    return {"suite": 1.0}


def setup(seed: int, workdir: str) -> State:
    state = State(workdir, plan(seed), child_env())
    # Warm the interpreter, the imports and the file cache once.
    run_child(["-m", "qinstr.cli", "--help"], workdir, state.env)
    return state


def _statuses(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        head, sep, rest = line.partition(": ")
        if sep and rest:
            out[head] = rest.split()[0]
    return out


def run_pass(state: State, seed: int, trace: bool = False) -> tuple[list[OpResult], float, dict | None]:
    """One verify pass; returns its ops in suite order, the pass's wall time
    outside the suites, and the child's trace."""
    timings = os.path.join(state.workdir, "suites.json")
    if os.path.exists(timings):
        os.remove(timings)
    argv = [os.path.join(os.path.dirname(__file__), "verify_child.py"), "--seed", str(seed), "--out", timings]
    if trace:
        argv.append("--trace")
    scale = speed.factor()
    child = run_child(argv, state.workdir, state.env)
    state.peak_rss_kb = max(state.peak_rss_kb, child.maxrss_kb)
    try:
        with open(timings, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {"suite_ms": {}, "suite_scale": {}, "trace": None}
    statuses = _statuses(child.stdout)
    # The CLI exits 1 exactly when a suite reports "fail"; any other exit
    # code fails every suite of the pass.
    exit_ok = child.rc == (1 if "fail" in statuses.values() else 0)
    results = []
    for suite in SUITES:
        want = "unknown" if suite in UNKNOWN else "pass"
        # A suite that never reported counts as failed, with the whole pass's time.
        ms = data["suite_ms"].get(suite, child.seconds * 1e3)
        suite_scale = data["suite_scale"].get(suite, scale)
        results.append(OpResult(ms * suite_scale, exit_ok and statuses.get(suite) == want, "suite", ms))
    outside_s = max(child.seconds - sum(data["suite_ms"].values()) / 1e3, 0.0)
    return results, outside_s * scale, data["trace"]


def deck(state: State) -> tuple[list[OpResult], float]:
    """One round: a pass per verify seed; the overhead is the passes' wall
    time outside the suites (interpreter start, imports, output)."""
    results, outside_s = [], 0.0
    for seed in state.seeds:
        ops, outside, _ = run_pass(state, seed)
        results += ops
        outside_s += outside
    return results, outside_s


def peak_rss_mb(state: State) -> float:
    return state.peak_rss_kb / 1024.0


def traced(state: State, tracer, seconds: float) -> tuple[list[OpResult], dict]:
    """Each pass untraced, then traced on the same seed, until ``seconds``
    have passed."""
    results: list[OpResult] = []
    plain_ms = traced_ms = 0.0
    t0 = perf_counter()
    while not results or perf_counter() - t0 < seconds:
        for seed in state.seeds:
            plain, _, _ = run_pass(state, seed)
            with_trace, _, data = run_pass(state, seed, trace=True)
            if data is not None:
                tracer.merge(data)
            plain_ms += sum(r.raw_ms for r in plain)
            traced_ms += sum(r.raw_ms for r in with_trace)
            results += [OpResult(p.raw_ms, p.ok and t.ok, p.klass, p.raw_ms) for p, t in zip(plain, with_trace)]
            if perf_counter() - t0 >= seconds:
                break
    return results, {"trace.overhead_pct": (traced_ms / plain_ms - 1.0) * 100.0}
