"""The traced benchmark times the package by patching its functions under
the names the program looks them up by (``labeling.ks_statistic``,
``metric.training_mrr``, ...).  Deleting or rebinding one of those names
breaks the traced run, so this installs and removes the patches here.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_patches_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Instrumented(spans.Recorder()) as inst:
        pass
    assert inst.broken == []
