import numpy as np
import pytest

import qinstr.instruments as instruments
import qinstr.linalg as linalg
import qinstr.serialize as serialize
from qinstr.errors import DocumentError
from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    traced_leaf = tracer.wrap(leaf, "a.leaf")

    def middle():
        clock.t += 1.0
        traced_leaf()
        traced_leaf()
        clock.t += 3.0

    traced_middle = tracer.wrap(middle, "a.middle")

    def top():
        traced_middle()
        clock.t += 0.25

    traced_top = tracer.wrap(top, "b.top")
    with tracer.op():
        clock.t += 0.5
        traced_top()
    assert tracer.stats["a.leaf"] == [2, 4.0, 4.0]
    assert tracer.stats["a.middle"] == [1, 8.0, 4.0]
    assert tracer.stats["b.top"] == [1, 8.25, 0.25]
    assert tracer.ops == 1
    assert tracer.op_s == 8.75
    assert tracer.harness_self_s == 0.5
    # Self times partition the op.
    total_self = sum(s[2] for s in tracer.stats.values()) + tracer.harness_self_s
    assert total_self == tracer.op_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    traced = tracer.wrap(boom, "a.boom")
    with tracer.op():
        with pytest.raises(ValueError):
            traced()
    assert tracer.stats["a.boom"] == [1, 1.0, 1.0]
    assert tracer.harness_self_s == 0.0
    with tracer.op():  # the stack is balanced again
        pass


def test_install_rebinds_every_name_and_uninstall_restores():
    original = linalg.herm_sqrt
    original_eigh = np.linalg.eigh
    original_init = instruments.Operation.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert instruments.herm_sqrt is linalg.herm_sqrt is not original
        assert instruments.herm_sqrt.__wrapped__ is original
        with tracer.op():
            op = instruments.Operation.from_kraus([np.eye(3) / np.sqrt(2)])
        np.linalg.eigh(np.eye(2))  # outside a span: not counted
    finally:
        tracer.uninstall()
    assert linalg.herm_sqrt is original and instruments.herm_sqrt is original
    assert np.linalg.eigh is original_eigh
    assert instruments.Operation.__init__ is original_init
    assert op.dim == 3
    assert tracer.stats["instruments.op_construct"][0] == 1
    assert tracer.stats["linalg.eig"][0] == 2  # Choi and induced effect
    assert tracer.counters["linalg.eig_max_n"] == 9
    assert tracer.samples["instruments.op_construct"][0][0] == 3


def test_rejected_document_is_counted():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op():
            with pytest.raises(DocumentError):
                serialize.loads_document('{"kind": "effect", "matrix": [[[2, 0]]]}')
    finally:
        tracer.uninstall()
    assert tracer.counters["serialize.rejects"] == 1
    assert tracer.counters["serialize.bytes_in"] > 0


def test_merge_adds_exports():
    clock = FakeClock()
    a, b = Tracer(clock=clock), Tracer(clock=clock)
    for tracer in (a, b):
        traced = tracer.wrap(lambda: None, "a.x")
        with tracer.op():
            clock.t += 1.0
            traced()
        tracer.add("a.count", 2)
    a.merge(b.export())
    assert a.stats["a.x"][0] == 2
    assert a.counters["a.count"] == 4
    assert a.ops == 2 and a.op_s == 2.0
