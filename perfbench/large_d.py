"""Workload ``large-d``: in-process library tasks at d = 8, 12, 16 and 24.

Three kinds of task, each one op:

- ``roundtrip``: ``dilate_instrument`` then ``model_instrument`` on a random
  3-outcome instrument with 1 or 2 Kraus operators per outcome; the result
  must equal the input within 1e-10.
- ``vn``: ``vn_measured`` against ``model_instrument(vn.to_fimm())``, which
  must agree within 1e-8 (the thm-4.4 tolerance).  The probe of a von
  Neumann model has dimension d, so its model costs about d**8: one call
  takes 320 ms at d = 12 and would take seconds at d = 16, so this task
  runs at d = 8 only.
- ``conditioned``: ``instr_conditioned``, whose Kraus counts grow through
  the eigendecomposition of the channel's Choi matrix; checked against a
  numpy composition of the Choi matrices within 1e-10.

The deck has fixed counts per class so that the median falls inside the
d = 12 round trips and p90 inside the d = 16 two-Kraus round trips, never
at a class boundary.  Three d = 24 ops per deck keep a Choi working set
(5.3 MiB) above the L2 cache in the mix; more would not fit the run time.
"""

from __future__ import annotations

import resource
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import npcheck as nc
from . import speed
from .common import OpResult

NAME = "large-d"

# (d, task, Kraus operators per outcome, count).  Sorted by latency, the
# d = 12 one-Kraus round trips hold ranks 38..61 of 100 and the d = 16
# two-Kraus round trips ranks 83..96.
DECK: tuple[tuple[int, str, int, int], ...] = (
    (8, "roundtrip", 1, 8),
    (8, "roundtrip", 2, 5),
    (8, "vn", 0, 10),
    (8, "conditioned", 1, 7),
    (12, "conditioned", 1, 8),
    (12, "roundtrip", 1, 24),
    (12, "roundtrip", 2, 8),
    (16, "conditioned", 1, 5),
    (16, "roundtrip", 1, 8),
    (16, "roundtrip", 2, 14),
    (24, "roundtrip", 1, 3),
)
# Distinct seeded inputs per line of the deck; ops of a line share them in
# turn, which keeps set-up short (a d = 24 instrument takes 0.4 s to build).
POOL = 2
ROUNDTRIP_TOL = 1e-10
VN_TOL = 1e-8
# Rounds over the deck per run.  Many ops here take milliseconds, so one
# speed reading fits them less well; the fastest of two rounds halves the
# run-to-run spread of the median.
ROUNDS = 2
FITS = {
    "models.model_instrument_exp": ("models.model_instrument", 0.0),
    "instruments.op_construct_exp": ("instruments.op_construct", 8.0),
    "linalg.eig_exp": ("linalg.eig", 32.0),
}


@dataclass(frozen=True)
class Spec:
    d: int
    task: str
    kraus: int


@dataclass
class Task:
    spec: Spec
    inputs: tuple


@dataclass
class State:
    tasks: list[Task]


def plan(seed: int) -> list[Spec]:
    specs = [Spec(d, task, k) for d, task, k, count in DECK for _ in range(count)]
    order = np.random.default_rng([seed, 0]).permutation(len(specs))
    return [specs[i] for i in order]


def class_shares(specs: list[Spec]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in specs:
        key = f"d{s.d}"
        out[key] = out.get(key, 0.0) + 1.0 / len(specs)
    return out


def _inputs(spec: Spec, rng: np.random.Generator) -> tuple:
    from qinstr.models import VonNeumannModel
    from qinstr.rand import random_instrument, random_observable, random_unitary

    if spec.task == "roundtrip":
        return (random_instrument(spec.d, 3, rng, spec.kraus),)
    if spec.task == "vn":
        base, probe = random_unitary(spec.d, rng), random_unitary(spec.d, rng)
        return (VonNeumannModel(base, probe, random_observable(spec.d, 3, rng)),)
    return (random_instrument(spec.d, 2, rng, spec.kraus), random_instrument(spec.d, 3, rng, spec.kraus))


def setup(seed: int, workdir: str) -> State:
    pools: dict[Spec, list[tuple]] = {}
    tasks = []
    for spec in plan(seed):
        pool = pools.setdefault(spec, [])
        k = sum(t.spec == spec for t in tasks)
        if len(pool) < POOL:
            line = next(i for i, row in enumerate(DECK) if row[:3] == (spec.d, spec.task, spec.kraus))
            pool.append(_inputs(spec, np.random.default_rng([seed, 1, line, len(pool)])))
        tasks.append(Task(spec, pool[k % POOL]))
    # Warm numpy and LAPACK with one small op of each kind.
    warm = [Task(Spec(4, t, 1), _inputs(Spec(4, t, 1), np.random.default_rng(0))) for t in ("roundtrip", "vn", "conditioned")]
    for task in warm:
        _run(task)
    return State(tasks)


def _run(task: Task):
    from qinstr.instruments import instr_conditioned
    from qinstr.models import dilate_instrument, model_instrument, vn_measured

    if task.spec.task == "roundtrip":
        return model_instrument(dilate_instrument(task.inputs[0]))
    if task.spec.task == "vn":
        vn = task.inputs[0]
        return vn_measured(vn)[0], model_instrument(vn.to_fimm())
    return instr_conditioned(*task.inputs)


def _check(task: Task, out) -> bool:
    if task.spec.task == "roundtrip":
        src = task.inputs[0]
        return out.labels == src.labels and nc.gap(
            [out[x].choi for x in out.labels], [src[x].choi for x in src.labels]
        ) <= ROUNDTRIP_TOL
    if task.spec.task == "vn":
        closed, model = out
        return closed.labels == model.labels and nc.gap(
            [closed[x].choi for x in closed.labels], [model[x].choi for x in model.labels]
        ) <= VN_TOL
    first, second = task.inputs
    channel = sum(first[x].choi for x in first.labels)
    ref = [nc.compose(second[y].choi, channel) for y in second.labels]
    return out.labels == second.labels and nc.gap([out[y].choi for y in out.labels], ref) <= nc.TOL


def _op(task: Task, tracer=None) -> tuple[float, bool]:
    t0 = perf_counter()
    try:
        if tracer is None:
            out = _run(task)
        else:
            with tracer.op():
                out = _run(task)
    except Exception:  # a failing op is reported and counted, with its time
        seconds = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, False
    seconds = perf_counter() - t0
    return seconds, _check(task, out)


def deck(state: State) -> tuple[list[OpResult], float]:
    """One round: every task once, in deck order."""
    results = []
    for task in state.tasks:
        scale = speed.factor()
        seconds, ok = _op(task)
        results.append(OpResult(seconds * 1e3 * scale, ok, f"d{task.spec.d}", seconds * 1e3))
    return results, 0.0


def peak_rss_mb(state: State) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(state: State, tracer, seconds: float) -> tuple[list[OpResult], dict]:
    """Each task untraced, then traced, until ``seconds`` have passed."""
    results: list[OpResult] = []
    plain_s = traced_s = 0.0
    t0 = perf_counter()
    while not results or perf_counter() - t0 < seconds:
        for task in state.tasks:
            plain, ok = _op(task)
            tracer.install()
            try:
                with_trace, traced_ok = _op(task, tracer)
            finally:
                tracer.uninstall()
            plain_s += plain
            traced_s += with_trace
            results.append(OpResult(plain * 1e3, ok and traced_ok, f"d{task.spec.d}", plain * 1e3))
    extras = {
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    }
    return results, extras
