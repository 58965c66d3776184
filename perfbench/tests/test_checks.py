"""The numpy reference checks agree with qinstr and reject wrong outputs."""

import json
import os

import numpy as np

from perfbench import npcheck as nc
from qinstr.instruments import compose_operations, induced_observable, luders_instrument
from qinstr.models import dilate_instrument, model_instrument
from qinstr.rand import random_instrument, random_observable
from qinstr.serialize import document_dict


def test_references_match_the_library():
    rng = np.random.default_rng(11)
    i, j = random_instrument(3, 2, rng, 2), random_instrument(3, 2, rng, 1)
    ref = nc.compose(j["0"].choi, i["1"].choi)
    assert nc.gap([compose_operations(j["0"], i["1"]).choi], [ref]) <= nc.TOL
    assert nc.gap([nc.induced(i[x].choi) for x in i.labels], [e for _, e in induced_observable(i).items()]) <= nc.TOL
    a = random_observable(3, 3, rng)
    lud = luders_instrument(a)
    assert nc.gap([nc.luders_choi(e) for _, e in a.items()], [op.choi for _, op in lud.items()]) <= nc.TOL
    doc = document_dict(dilate_instrument(i))
    assert nc.gap(nc.model_chois(doc), [op.choi for _, op in model_instrument(dilate_instrument(i)).items()]) <= nc.TOL


def pair(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def test_a_wrong_output_fails_its_check(tmp_path):
    from perfbench import cli_mix

    state = cli_mix.setup(5, str(tmp_path))
    spec_of = dict(zip(map(id, state.commands), cli_mix.plan(5)))
    cmd = next(c for c in state.commands if spec_of[id(c)].kind == "convex-instr")
    inputs = [p for p in cmd.argv if p.endswith(".json") and p != cmd.output]
    weights = [float(w) for w in cmd.argv[cmd.argv.index("convex") + 1].split(",")]
    docs = [nc.read(p) for p in inputs]
    out = dict(docs[0])
    mixed = [sum(w * nc.chois(d)[x] for w, d in zip(weights, docs)) for x in range(len(docs[0]["labels"]))]
    out["operations"] = {x: {"choi": pair(m)} for x, m in zip(out["labels"], mixed)}
    with open(cmd.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    assert cmd.check("")
    mixed[0] = mixed[0] * (1 + 1e-8)
    out["operations"] = {x: {"choi": pair(m)} for x, m in zip(out["labels"], mixed)}
    with open(cmd.output, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    assert not cmd.check("")
    os.remove(cmd.output)
    assert not cli_mix._checked(cmd, 0, "")
