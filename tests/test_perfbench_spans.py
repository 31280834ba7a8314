"""The traced benchmark times the package by patching its functions under
the names the program looks them up by (``labeling.ks_statistic``,
``metric.training_mrr``, ...) and by placing proxies on a built network's
stem, stages and head.  Deleting or rebinding one of those names, or
reshaping the network's modules, breaks the traced run, so this installs
and removes the patches here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from embnum import embnet

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_patches_and_restores(spans):
    with spans.Instrumented(spans.Recorder()) as inst:
        pass
    assert inst.broken == []


def test_a_built_network_records_every_layer_span(spans):
    rec = spans.Recorder()
    with spans.Instrumented(rec) as inst:
        arch = embnet.ArchConfig(h=16, k=4, stem_channels=2)
        model = embnet.build_model(arch, seed=0)
        embnet.embed(model, embnet.preprocess(np.arange(5.0), arch))
    assert inst.broken == []
    # stem_conv and stem_bn, two blocks per stage, one head
    assert {name: rec.calls[f"embnet.{name}"]
            for name in ("stem", "stage0", "stage1", "stage2", "stage3", "fc")} == {
        "stem": 2, "stage0": 2, "stage1": 2, "stage2": 2, "stage3": 2, "fc": 1}
