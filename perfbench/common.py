"""Shared pieces of the workloads: paths, the child environment, and child runs."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread everywhere: with two threads on two cores the same call
# varied sevenfold between runs.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A deck holds at least this many ops, so p90 has ten samples beyond it.
MIN_OPS = 100
# A run starts no round over its deck that would end after this long, so it
# exits within the 180 s a run may take even on a machine running slow.
MAX_RUN_S = 120.0


def pin_threads(env: dict) -> None:
    for var in THREAD_VARS:
        env[var] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class OpResult:
    ms: float  # scaled to the reference speed (see speed.py)
    ok: bool
    klass: str
    raw_ms: float


@dataclass
class Child:
    rc: int
    seconds: float
    maxrss_kb: int
    stdout: str


def run_child(argv: list[str], workdir: str, env: dict) -> Child:
    """Run one child to completion; its stdout goes through a file in
    ``workdir`` so ``wait4`` can report the child's own peak RSS."""
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=workdir
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Child(proc.returncode, seconds, usage.ru_maxrss, stdout)
