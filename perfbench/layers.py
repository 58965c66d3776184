"""Per-layer metrics computed from a traced run.

Layers are the ``qinstr`` modules.  Times are self times (span minus child
spans) in ms per traced op; counts are per traced op.  A layer that a
workload does not reach reads 0, as does an exponent fit the workload does
not report.
"""

from __future__ import annotations

from .catalog import SUITES
from .stats import fit_exponent
from .tracer import Tracer

MODULES = ("linalg", "effects", "observables", "instruments", "models", "serialize", "rand", "cli", "verify")

# (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("linalg.eig_calls", "calls/op", "lower"),
    ("linalg.eig_ms", "ms/op", "lower"),
    ("linalg.eig_n3", "n3/op", "lower"),
    ("linalg.eig_max_n", "n", "lower"),
    ("linalg.eig_exp", "1", "lower"),
    ("linalg.ptrace_calls", "calls/op", "lower"),
    ("linalg.ptrace_ms", "ms/op", "lower"),
    ("linalg.coerce_calls", "calls/op", "lower"),
    ("linalg.coerce_ms", "ms/op", "lower"),
    ("effects.validate_calls", "calls/op", "lower"),
    ("effects.validate_ms", "ms/op", "lower"),
    ("effects.seq_product_ms", "ms/op", "lower"),
    ("observables.construct_calls", "calls/op", "lower"),
    ("observables.construct_ms", "ms/op", "lower"),
    ("observables.combine_ms", "ms/op", "lower"),
    ("instruments.op_construct_calls", "calls/op", "lower"),
    ("instruments.op_construct_ms", "ms/op", "lower"),
    ("instruments.op_construct_exp", "1", "lower"),
    ("instruments.instr_construct_ms", "ms/op", "lower"),
    ("instruments.compose_calls", "calls/op", "lower"),
    ("instruments.compose_kraus_out", "ops/op", "lower"),
    ("instruments.compose_ms", "ms/op", "lower"),
    ("instruments.apply_calls", "calls/op", "lower"),
    ("instruments.apply_ms", "ms/op", "lower"),
    ("instruments.combine_ms", "ms/op", "lower"),
    ("models.model_instrument_calls", "calls/op", "lower"),
    ("models.model_instrument_ms", "ms/op", "lower"),
    ("models.model_instrument_exp", "1", "lower"),
    ("models.dilate_ms", "ms/op", "lower"),
    ("models.vn_measured_ms", "ms/op", "lower"),
    ("models.fimm_construct_ms", "ms/op", "lower"),
    ("serialize.decode_ms", "ms/op", "lower"),
    ("serialize.encode_ms", "ms/op", "lower"),
    ("serialize.bytes_in", "B/op", "lower"),
    ("serialize.bytes_out", "B/op", "lower"),
    ("serialize.decode_mb_per_s", "MB/s", "higher"),
    ("serialize.encode_mb_per_s", "MB/s", "higher"),
    ("serialize.encode_exp", "1", "lower"),
    ("serialize.rejects", "1/op", "lower"),
    ("cli.noop_ms", "ms", "lower"),
    ("cli.overhead_ms", "ms/op", "lower"),
    *((f"{m}.self_ms", "ms/op", "lower") for m in MODULES),
    *((f"verify.suite_ms.{s}", "ms/pass", "lower") for s in SUITES),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.accounted_pct", "%", "higher"),
    ("trace.ops", "count", "higher"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer: Tracer, fits: dict, extras: dict) -> dict[str, float]:
    """Every per-layer metric, from the tracer, the workload's exponent fits
    and the workload's extras (CLI timings and tracing overhead)."""
    ops = max(tracer.ops, 1)

    def calls(group: str) -> float:
        return tracer.stats.get(group, [0, 0.0, 0.0])[0] / ops

    def ms(group: str) -> float:
        return tracer.stats.get(group, [0, 0.0, 0.0])[2] * 1e3 / ops

    def count(name: str) -> float:
        return tracer.counters.get(name, 0.0) / ops

    def rate(byte_name: str, group: str) -> float:
        seconds = tracer.stats.get(group, [0, 0.0, 0.0])[2]
        return tracer.counters.get(byte_name, 0.0) / 1e6 / seconds if seconds > 0 else 0.0

    out = {
        "linalg.eig_calls": calls("linalg.eig"),
        "linalg.eig_ms": ms("linalg.eig"),
        "linalg.eig_n3": count("linalg.eig_n3"),
        "linalg.eig_max_n": tracer.counters.get("linalg.eig_max_n", 0.0),
        "linalg.ptrace_calls": calls("linalg.ptrace"),
        "linalg.ptrace_ms": ms("linalg.ptrace"),
        "linalg.coerce_calls": calls("linalg.coerce"),
        "linalg.coerce_ms": ms("linalg.coerce"),
        "effects.validate_calls": calls("effects.validate"),
        "effects.validate_ms": ms("effects.validate"),
        "effects.seq_product_ms": ms("effects.seq_product"),
        "observables.construct_calls": calls("observables.construct"),
        "observables.construct_ms": ms("observables.construct"),
        "observables.combine_ms": ms("observables.combine"),
        "instruments.op_construct_calls": calls("instruments.op_construct"),
        "instruments.op_construct_ms": ms("instruments.op_construct"),
        "instruments.instr_construct_ms": ms("instruments.instr_construct"),
        "instruments.compose_calls": calls("instruments.compose"),
        "instruments.compose_kraus_out": count("instruments.compose_kraus_out"),
        "instruments.compose_ms": ms("instruments.compose"),
        "instruments.apply_calls": calls("instruments.apply"),
        "instruments.apply_ms": ms("instruments.apply"),
        "instruments.combine_ms": ms("instruments.combine"),
        "models.model_instrument_calls": calls("models.model_instrument"),
        "models.model_instrument_ms": ms("models.model_instrument"),
        "models.dilate_ms": ms("models.dilate"),
        "models.vn_measured_ms": ms("models.vn_measured"),
        "models.fimm_construct_ms": ms("models.fimm_construct"),
        "serialize.decode_ms": ms("serialize.decode"),
        "serialize.encode_ms": ms("serialize.encode"),
        "serialize.bytes_in": count("serialize.bytes_in"),
        "serialize.bytes_out": count("serialize.bytes_out"),
        "serialize.decode_mb_per_s": rate("serialize.bytes_in", "serialize.decode"),
        "serialize.encode_mb_per_s": rate("serialize.bytes_out", "serialize.encode"),
        "serialize.rejects": count("serialize.rejects"),
        "cli.noop_ms": extras.get("cli.noop_ms", 0.0),
        "cli.overhead_ms": extras.get("cli.overhead_ms", 0.0),
        "trace.overhead_pct": extras["trace.overhead_pct"],
        "trace.ops": float(tracer.ops),
    }
    for name, _, _ in PER_LAYER:
        if name.endswith("_exp"):
            group, min_size = fits.get(name, (None, 0.0))
            out[name] = fit_exponent(tracer.samples.get(group, []), min_size) if group else 0.0
    layer_self = 0.0
    for module in MODULES:
        module_ms = sum(s[2] for g, s in tracer.stats.items() if g.split(".")[0] == module) * 1e3 / ops
        out[f"{module}.self_ms"] = module_ms
        layer_self += module_ms
    for suite in SUITES:
        n = tracer.counters.get(f"verify.suite_calls.{suite}", 0.0)
        out[f"verify.suite_ms.{suite}"] = tracer.counters.get(f"verify.suite_ms.{suite}", 0.0) / n if n else 0.0
    # Layer self times plus the CLI's process overhead against the op time.
    overhead = out["cli.overhead_ms"]
    op_ms = tracer.op_s * 1e3 / ops
    out["trace.accounted_pct"] = 100.0 * (layer_self + overhead) / (op_ms + overhead) if op_ms > 0 else 0.0
    return out
