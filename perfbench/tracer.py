"""In-memory span tracer that wraps calls into each ``qinstr`` module.

Spans are recorded around calls from the benchmark into the library, not by
the library itself: ``Tracer.install`` replaces chosen functions, methods
and numpy's Hermitian eigensolvers with timing wrappers and
``Tracer.uninstall`` puts the originals back.

Modules import functions by name (``from .linalg import herm_sqrt``), so a
wrapper is bound under every name in every loaded ``qinstr`` module that
holds the original object.  Constructors and classmethods are wrapped on
their class.

Each span group aggregates calls, inclusive time and self time (the span's
duration minus the time covered by its child spans).  ``Tracer.op`` opens the
root span of one benchmark operation; its self time is harness glue.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span group, counts as a call).  Groups are named
# "<qinstr module>.<metric stem>".  Recursive helpers such as
# ``canonical_json`` are not wrapped: their top-level callers are.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("qinstr.linalg", "as_matrix", "linalg.coerce", True),
    ("qinstr.linalg", "ensure_hermitian", "linalg.coerce", True),
    ("qinstr.linalg", "herm_eig", "linalg.eig", False),
    ("qinstr.linalg", "partial_trace_first", "linalg.ptrace", True),
    ("qinstr.linalg", "partial_trace_second", "linalg.ptrace", True),
    ("qinstr.linalg", "herm_sqrt", "linalg.other", True),
    ("qinstr.linalg", "psd_part", "linalg.other", True),
    ("qinstr.linalg", "tensor_product", "linalg.other", True),
    ("qinstr.linalg", "complete_to_unitary", "linalg.other", True),
    ("qinstr.linalg", "is_unitary", "linalg.other", True),
    ("qinstr.effects", "ensure_effect", "effects.validate", True),
    ("qinstr.effects", "ensure_partial_state", "effects.validate", True),
    ("qinstr.effects", "ensure_state", "effects.validate", True),
    ("qinstr.effects", "seq_product", "effects.seq_product", True),
    ("qinstr.effects", "complement", "effects.other", True),
    ("qinstr.effects", "atom", "effects.other", True),
    ("qinstr.effects", "occurrence_probability", "effects.other", True),
    ("qinstr.effects", "conditioned_partial_state", "effects.other", True),
    ("qinstr.effects", "check_coexistence_witness", "effects.other", True),
    ("qinstr.effects", "binary_observables_from_coexistence", "effects.other", True),
    ("qinstr.effects", "find_coexistence_witness", "effects.other", True),
    ("qinstr.observables", "Observable.__init__", "observables.construct", True),
    ("qinstr.observables", "StochasticMatrix.__init__", "observables.construct", True),
    ("qinstr.observables", "obs_seq_product", "observables.combine", True),
    ("qinstr.observables", "obs_conditioned", "observables.combine", True),
    ("qinstr.observables", "obs_convex_combo", "observables.combine", True),
    ("qinstr.observables", "obs_post_process", "observables.combine", True),
    ("qinstr.observables", "obs_effect_of_subset", "observables.combine", True),
    ("qinstr.observables", "joint_probability_then", "observables.combine", True),
    ("qinstr.observables", "classify_observable", "observables.other", True),
    ("qinstr.observables", "obs_commute", "observables.other", True),
    ("qinstr.observables", "obs_complementary", "observables.other", True),
    ("qinstr.observables", "complementarity_residual", "observables.other", True),
    ("qinstr.observables", "obs_coexist_verify", "observables.other", True),
    ("qinstr.observables", "obs_triple_joint", "observables.other", True),
    ("qinstr.observables", "find_joint_observable", "observables.other", True),
    ("qinstr.observables", "observables_close", "observables.other", True),
    ("qinstr.observables", "fourier_mub", "observables.other", True),
    ("qinstr.observables", "atomic_observable", "observables.other", True),
    ("qinstr.observables", "identity_observable", "observables.other", True),
    ("qinstr.instruments", "Operation.__init__", "instruments.op_construct", True),
    ("qinstr.instruments", "Operation.from_kraus", "instruments.op_construct", False),
    ("qinstr.instruments", "Operation.from_choi", "instruments.op_construct", False),
    ("qinstr.instruments", "Operation.identity", "instruments.op_construct", False),
    ("qinstr.instruments", "Operation.from_unitary", "instruments.op_construct", False),
    ("qinstr.instruments", "Instrument.__init__", "instruments.instr_construct", True),
    ("qinstr.instruments", "compose_operations", "instruments.compose", True),
    ("qinstr.instruments", "Operation.apply", "instruments.apply", True),
    ("qinstr.instruments", "op_apply", "instruments.apply", False),
    ("qinstr.instruments", "instr_product", "instruments.combine", True),
    ("qinstr.instruments", "instr_conditioned", "instruments.combine", True),
    ("qinstr.instruments", "instr_convex_combo", "instruments.combine", True),
    ("qinstr.instruments", "instr_post_process", "instruments.combine", True),
    ("qinstr.instruments", "instr_channel", "instruments.combine", True),
    ("qinstr.instruments", "induced_observable", "instruments.combine", True),
    ("qinstr.instruments", "luders_instrument", "instruments.combine", True),
    ("qinstr.instruments", "trivial_instrument", "instruments.combine", True),
    ("qinstr.instruments", "identity_instrument", "instruments.combine", True),
    ("qinstr.instruments", "kraus_instrument", "instruments.combine", True),
    ("qinstr.instruments", "kraus_instrument_from_channel", "instruments.combine", True),
    ("qinstr.instruments", "joint_probability_instr", "instruments.combine", True),
    ("qinstr.instruments", "Operation.kraus_ops", "instruments.other", True),
    ("qinstr.instruments", "ensure_channel", "instruments.other", True),
    ("qinstr.instruments", "operations_close", "instruments.other", True),
    ("qinstr.instruments", "instruments_close", "instruments.other", True),
    ("qinstr.instruments", "is_single_kraus", "instruments.other", True),
    ("qinstr.instruments", "is_identity_instrument", "instruments.other", True),
    ("qinstr.instruments", "instr_complementary", "instruments.other", True),
    ("qinstr.instruments", "instr_coexist_verify", "instruments.other", True),
    ("qinstr.models", "model_instrument", "models.model_instrument", True),
    ("qinstr.models", "dilate_instrument", "models.dilate", True),
    ("qinstr.models", "vn_measured", "models.vn_measured", True),
    ("qinstr.models", "FIMM.__init__", "models.fimm_construct", True),
    ("qinstr.models", "VonNeumannModel.to_fimm", "models.other", True),
    ("qinstr.models", "von_neumann_unitary", "models.other", True),
    ("qinstr.models", "swap_unitary", "models.other", True),
    ("qinstr.models", "trivial_fimm", "models.other", True),
    ("qinstr.models", "vn_model_for_commutative", "models.other", True),
    ("qinstr.models", "normal_fimm_kraus_extract", "models.other", True),
    ("qinstr.models", "luders_positivity_check", "models.other", True),
    ("qinstr.models", "simultaneous_fimms", "models.other", True),
    ("qinstr.models", "marginal_instruments", "models.other", True),
    ("qinstr.serialize", "load_document", "serialize.decode", False),
    ("qinstr.serialize", "loads_document", "serialize.decode", True),
    ("qinstr.serialize", "save_document", "serialize.encode", False),
    ("qinstr.serialize", "dumps_document", "serialize.encode", True),
    ("qinstr.rand", "random_effect", "rand.generate", True),
    ("qinstr.rand", "random_state", "rand.generate", True),
    ("qinstr.rand", "random_observable", "rand.generate", True),
    ("qinstr.rand", "random_instrument", "rand.generate", True),
    ("qinstr.rand", "random_fimm", "rand.generate", True),
    ("qinstr.rand", "random_stochastic", "rand.generate", True),
    ("qinstr.cli", "main", "cli.main", True),
    ("qinstr.verify", "run_suite", "verify.suite", True),
)

# numpy eigensolvers are timed only inside a qinstr span.
NUMPY_EIG = ("eigh", "eigvalsh")


class Tracer:
    """Aggregates span statistics for one process.

    ``stats[group] = [calls, inclusive_s, self_s]``; ``counters`` holds
    additive extras (bytes, Kraus counts, per-suite time); ``samples[group]``
    holds ``(size, inclusive_s)`` pairs for scaling fits.  ``clock`` may be
    replaced by a test.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.ops = 0
        self.op_s = 0.0
        self.harness_self_s = 0.0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, group: str, size: float, seconds: float) -> None:
        self.samples.setdefault(group, []).append((float(size), seconds))

    def _close(self, stat: list[float], t0: float, count: bool) -> float:
        dur = self.clock() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        stat[0] += count
        stat[1] += dur
        stat[2] += dur - child
        return dur

    def wrap(self, fn, group: str, count: bool = True, observe=None, on_error=None):
        """Timing wrapper for ``fn``; ``observe(tracer, args, result, dur)``
        runs after a normal return, ``on_error(tracer, args, exc)`` after a
        raise."""
        stat = self.stats.setdefault(group, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(stat, t0, count)
                if on_error is not None:
                    on_error(self, args, exc)
                raise
            dur = self._close(stat, t0, count)
            if observe is not None:
                observe(self, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def op(self):
        """Root span of one benchmark operation."""
        if self._stack:
            raise RuntimeError("benchmark operations may not nest")
        self._stack.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            dur = self.clock() - t0
            child = self._stack.pop()
            self.ops += 1
            self.op_s += dur
            self.harness_self_s += dur - child

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the loaded ``qinstr`` modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import numpy

        from qinstr.errors import DocumentError

        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(mod_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "qinstr" or n.startswith("qinstr.")]
        observers = _observers(DocumentError)
        for mod_name, path, group, count in TARGETS:
            module = sys.modules[mod_name]
            observe, on_error = observers.get(path, (None, None))
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, group, count, observe, on_error))
                else:
                    new = self.wrap(raw, group, count, observe, on_error)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, path)
            wrapper = self.wrap(original, group, count, observe, on_error)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for name in NUMPY_EIG:
            original = getattr(numpy.linalg, name)
            self._restore.append((numpy.linalg, name, original))
            setattr(numpy.linalg, name, self._numpy_eig(original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _numpy_eig(self, fn):
        traced = self.wrap(fn, "linalg.eig", True, _observe_eig)
        stack = self._stack

        def dispatch(a, *args, **kwargs):
            if not stack:
                return fn(a, *args, **kwargs)
            return traced(a, *args, **kwargs)

        return dispatch

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "samples": self.samples,
            "ops": self.ops,
            "op_s": self.op_s,
            "harness_self_s": self.harness_self_s,
        }

    def merge(self, data: dict) -> None:
        """Add an exported tracer (for example from a child process)."""
        for group, (calls, incl, self_s) in data["stats"].items():
            stat = self.stats.setdefault(group, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += incl
            stat[2] += self_s
        for name, value in data["counters"].items():
            self.add(name, value)
        for group, pairs in data["samples"].items():
            self.samples.setdefault(group, []).extend(tuple(p) for p in pairs)
        self.ops += data["ops"]
        self.op_s += data["op_s"]
        self.harness_self_s += data["harness_self_s"]


# -- observers -----------------------------------------------------------------


def _observe_eig(tracer: Tracer, args, result, dur: float) -> None:
    n = len(args[0])
    tracer.add("linalg.eig_n3", float(n) ** 3)
    tracer.counters["linalg.eig_max_n"] = max(tracer.counters.get("linalg.eig_max_n", 0.0), n)
    tracer.sample("linalg.eig", n, dur)


def _observe_op_init(tracer: Tracer, args, result, dur: float) -> None:
    tracer.sample("instruments.op_construct", args[0].dim, dur)


def _observe_compose(tracer: Tracer, args, result, dur: float) -> None:
    tracer.add("instruments.compose_kraus_out", len(result.kraus_ops()))


def _observe_model(tracer: Tracer, args, result, dur: float) -> None:
    tracer.sample("models.model_instrument", args[0].dim_base, dur)


def _observe_loads(tracer: Tracer, args, result, dur: float) -> None:
    tracer.add("serialize.bytes_in", len(args[0]))


def _observe_dumps(tracer: Tracer, args, result, dur: float) -> None:
    tracer.add("serialize.bytes_out", len(result))
    tracer.sample("serialize.encode", len(result), dur)


def _observe_suite(tracer: Tracer, args, result, dur: float) -> None:
    tracer.add(f"verify.suite_ms.{args[0]}", dur * 1e3)
    tracer.add(f"verify.suite_calls.{args[0]}", 1)


def _observers(document_error: type) -> dict:
    def reject(tracer: Tracer, args, exc: BaseException) -> None:
        tracer.add("serialize.bytes_in", len(args[0]))
        if isinstance(exc, document_error):
            tracer.add("serialize.rejects", 1)

    return {
        "Operation.__init__": (_observe_op_init, None),
        "compose_operations": (_observe_compose, None),
        "model_instrument": (_observe_model, None),
        "loads_document": (_observe_loads, reject),
        "dumps_document": (_observe_dumps, None),
        "run_suite": (_observe_suite, None),
    }
