import json
import os

from perfbench.common import ROOT
from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS


def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
