import re
import time

import pytest

from embnum.baselines import dsl_train, make_training_pairs
from embnum.dataset import generate_synthetic
from embnum.fixtures import desk_arch, desk_spec, desk_train_config
from embnum.labeling import run_benchmark
from embnum.metric import train


@pytest.fixture(scope="session")
def desk_dataset():
    return generate_synthetic(desk_spec())


@pytest.fixture(scope="session")
def desk_training(desk_dataset):
    """(model, history, wall_seconds) for the canonical desk run."""
    t0 = time.perf_counter()
    model, history = train(desk_dataset, desk_arch(), desk_train_config())
    return model, history, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_model(desk_training):
    return desk_training[0]


@pytest.fixture(scope="session")
def desk_reports(desk_dataset, desk_model):
    """Leave-one-source-out reports for embnum and the KS baseline."""
    return {
        "embnum": run_benchmark(desk_dataset, "embnum", model=desk_model),
        "semantictyper": run_benchmark(desk_dataset, "semantictyper"),
    }


@pytest.fixture(scope="session")
def desk_dsl_model(desk_dataset):
    return dsl_train(make_training_pairs(desk_dataset))


# ---------------------------------------------------------------------------
# acceptance reporting: one visible line per criterion at session end

CRITERIA = {
    1: "sampling matches brute-force inverse-CDF oracle exactly",
    2: "all layers and full network pass finite-difference gradient checks",
    3: "KS/MW/Jaccard match definitional oracles to 1e-9",
    4: "benchmark runs 75 experiments for d=5 and 5,110 for d=10",
    5: "desk training < 10 min, MRR@5 sources >= 0.90, >= KS baseline everywhere",
    6: "embedding labeling >= 10x faster than DSL and faster than KS baseline",
    7: "seeded training is byte-reproducible (checkpoint and history)",
    8: "MRR hand cases exact; self-retrieval holds on every store",
}

_outcomes: dict[int, str] = {}
_notes: dict[int, str] = {}


def record_note(criterion: int, note: str) -> None:
    _notes[criterion] = note


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        _outcomes[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        outcome = _outcomes.get(num)
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, "NOT RUN"
        )
        note = f"  [{_notes[num]}]" if num in _notes else ""
        terminalreporter.write_line(
            f"criterion {num} {status}: {CRITERIA[num]}{note}"
        )
