#!/usr/bin/env python3
"""End-to-end desk experiment: train the embedding metric on the frozen
desk dataset, benchmark it against the statistical baselines under the
leave-one-source-out protocol, and print a per-count MRR table.

Everything is seeded; two runs produce identical numbers.  With --hard the
overlapping fixture is used instead, where the labels share location and an
untrained network measurably trails a trained one.

    python3 scripts/run_desk_experiment.py --out results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from embnum._serial import atomic_write_text
from embnum.dataset import generate_synthetic
from embnum.fixtures import desk_arch, desk_spec, desk_train_config, overlapping_spec
from embnum.labeling import METHODS, expected_experiments, report_to_json, run_benchmark
from embnum.metric import history_to_csv, train
from embnum.embnet import save_model


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for checkpoint, history and reports")
    ap.add_argument("--hard", action="store_true",
                    help="use the overlapping fixture instead of the desk one")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = overlapping_spec() if args.hard else desk_spec()
    dataset = generate_synthetic(spec)
    print(f"dataset: {len(dataset.labels)} labels x {len(dataset.sources)} "
          f"sources, {len(dataset.attributes)} attributes")
    print(f"protocol: {expected_experiments(len(dataset.sources))} experiments "
          f"per method\n")

    cfg = desk_train_config()
    t0 = time.perf_counter()
    model, history = train(dataset, desk_arch(), cfg)
    train_s = time.perf_counter() - t0
    best = model.training_meta["best_mrr"]
    print(f"trained {cfg.epochs} epochs in {train_s:.1f}s, best in-sample MRR "
          f"{best:.4f} at epoch {model.training_meta['epochs_seen']}")

    reports = {}
    for method in METHODS:
        t0 = time.perf_counter()
        reports[method] = run_benchmark(dataset, method, model=model)
        print(f"benchmarked {method:14s} in {time.perf_counter() - t0:6.1f}s")

    print("\nMRR by number of labeled sources")
    print("labeled  " + "  ".join(f"{m:>14s}" for m in METHODS))
    for row in zip(*(reports[m].per_count for m in METHODS)):
        print(f"{row[0].labeled_sources:7d}  " + "  ".join(f"{pc.mean_mrr:14.4f}" for pc in row))
    row = "  ".join(f"{reports[m].overall_mrr:14.4f}" for m in METHODS)
    print(f"overall  {row}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        save_model(model, args.out / "metric.bin")
        atomic_write_text(args.out / "history.csv", history_to_csv(history))
        for method, report in reports.items():
            atomic_write_text(args.out / f"report_{method}.json", report_to_json(report))
        print(f"\nartifacts written to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
