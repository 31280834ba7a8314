"""The traced benchmark times the package by patching its functions under
the names the program looks them up by (``labeling.ks_statistic``,
``metric.training_mrr``, ...) and by placing proxies on a built network's
stem, stages and head.  Deleting or rebinding one of those names, or
reshaping the network's modules, breaks the traced run, so this installs
and removes the patches here.  The benchmark's workloads also read package
names and ranking fields directly; those are checked here too.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from embnum import baselines, dataset, embnet, fixtures, labeling, metric
from embnum.nn import Tensor, ops
from embnum.baselines import LogisticModel
from oracles import store_of

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def taped_forward(model, x):
    """The taped forward that training runs; embed runs a frozen plan that
    the per-layer proxies and op wrappers do not see."""
    return model.net(Tensor(np.atleast_2d(x)[:, None, :]))


def test_a_built_network_records_every_layer_span(spans):
    rec = spans.Recorder()
    with spans.Instrumented(rec) as inst:
        arch = embnet.ArchConfig(h=16, k=4, stem_channels=2)
        model = embnet.build_model(arch, seed=0)
        taped_forward(model, embnet.preprocess([np.arange(5.0)], arch))
    assert inst.broken == []
    # stem_conv and stem_bn, two blocks per stage, one head
    assert {name: rec.calls[f"embnet.{name}"]
            for name in ("stem", "stage0", "stage1", "stage2", "stage3", "fc")} == {
        "stem": 2, "stage0": 2, "stage1": 2, "stage2": 2, "stage3": 2, "fc": 1}


def test_a_traced_forward_counts_every_conv_product(spans, monkeypatch):
    # _op_cost reads conv1d's operands from its positional arguments, so a
    # forward through a small network must count 2 * B * C_out * L_out *
    # C_in * K for each conv it runs, from the shapes each call saw
    shapes = []
    conv1d = ops.conv1d

    def seen(x, weight, **kwargs):
        out = conv1d(x, weight, **kwargs)
        shapes.append((x.data.shape, weight.data.shape, out.data.shape))
        return out

    monkeypatch.setattr(ops, "conv1d", seen)
    rec = spans.Recorder()
    with spans.Instrumented(rec) as inst:
        arch = embnet.ArchConfig(h=16, k=4, stem_channels=2)
        model = embnet.build_model(arch, seed=0)
        taped_forward(model, embnet.preprocess([np.arange(n, dtype=float) for n in (5, 9, 12)],
                                               arch))
    assert inst.broken == []
    convs = sum(p.data.ndim == 3 for p in model.net.named_params().values())
    assert len(shapes) == rec.calls["nn.ops.conv1d"] == convs
    assert rec.counts["nn.ops.conv1d.flop"] == sum(
        2.0 * b * c_out * l_out * c_in * k
        for (b, _, _), (c_out, c_in, k), (_, _, l_out) in shapes)


def test_every_package_name_the_benchmark_reads_exists():
    modules = {"baselines": baselines, "dataset": dataset, "embnet": embnet,
               "fixtures": fixtures, "labeling": labeling, "metric": metric}
    read = {(node.value.id, node.attr)
            for path in PERFBENCH.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("labeling", "rank_of_first_correct") in read
    assert {m for m, _ in read} == set(modules)
    assert [f"{m}.{name}" for m, name in sorted(read) if not hasattr(modules[m], name)] == []


def test_a_ranking_reads_as_label_source_score_entries():
    store = store_of("semantictyper", [("far", "s1", np.array([9.0])),
                                       ("near", "s0", np.array([1.0]))])
    ranking = labeling.rank(store, [1.0])
    assert [(e.label, e.source, e.score) for e in ranking.entries] == [
        ("near", "s0", 1.0), ("far", "s1", 0.0)]
    assert labeling.rank_of_first_correct(ranking, "far") == 2


@pytest.mark.parametrize("method", labeling.METHODS)
def test_store_records_read_as_the_benchmark_gates_read_them(method, tmp_path):
    """The serve gates walk `store.records` by attribute index and compare
    each embnum row with the column embedded alone; a view out of order, or
    of other bytes, would make every serve run come out incorrect."""
    ds = dataset.generate_synthetic(dataset.SyntheticSpec(
        label_count=4, source_count=3, rows_min=5, rows_max=12, seed=5))
    arch = embnet.ArchConfig(h=16, k=4, stem_channels=2)
    model = embnet.build_model(arch, seed=0)
    dsl_model = LogisticModel(weights=np.array([-4.0, 0.5, 1.0]), bias=0.25)
    indexed = labeling.index_labeled(ds, method, model=model, dsl_model=dsl_model)
    labeling.save_store(indexed, tmp_path / "store.bin")
    keep = np.array([a.source != "s1" for a in ds.attributes])
    for store, attrs in [(indexed, ds.attributes),
                         (labeling.load_store(tmp_path / "store.bin"), ds.attributes),
                         (indexed.subset(keep), [a for a in ds.attributes if a.source != "s1"])]:
        assert len(store.records) == len(attrs)
        for record, attr in zip(store.records, attrs):
            assert (record.label, record.source) == (attr.label, attr.source)
            if method == "embnum":
                alone = embnet.embed(model, embnet.preprocess(attr.values, arch))
                assert record.feature.dtype == np.float32
                assert record.feature.tobytes() == alone.tobytes()
            else:
                assert np.array_equal(record.feature, np.sort(attr.values))
