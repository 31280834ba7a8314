"""Command-line interface.

Exit codes: 0 success, 1 domain error (named on stderr; a failed read or
write is IoError, an allocation the host refuses OutOfMemory), 2 usage error.
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from . import baselines, dataset, embnet, fixtures, labeling, metric, sampling
from ._serial import atomic_write_text
from .errors import EmbnumError, MissingDirectory


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["desk"], default=None,
                   help="start from a fixture's configs; 'desk' is "
                        "embnum.fixtures.desk_arch() and desk_train_config()")
    for f in dataclasses.fields(embnet.ArchConfig) + dataclasses.fields(metric.TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)


def _configs(args) -> tuple[embnet.ArchConfig, metric.TrainConfig]:
    """The dataclass defaults, or the desk fixture's configs under --preset
    desk, with every explicit flag applied on top."""
    if args.preset == "desk":
        configs = (fixtures.desk_arch(), fixtures.desk_train_config())
    else:
        configs = (embnet.ArchConfig(), metric.TrainConfig())
    return tuple(
        dataclasses.replace(c, **{f.name: getattr(args, f.name)
                                  for f in dataclasses.fields(c)
                                  if getattr(args, f.name, None) is not None})
        for c in configs)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embnum",
        description="Semantic labeling of numerical table columns by "
                    "embedding similarity, with statistical baselines.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("spec", help="SyntheticSpec JSON file")
    p.add_argument("out", help="output dataset directory (must not already hold data)")

    p = sub.add_parser("sample", help="reduce a CSV column to an h-length quantile vector")
    p.add_argument("csv", help="one numeric value per line")
    p.add_argument("--h", type=int, default=embnet.ArchConfig.h)

    p = sub.add_parser("train", help="train the embedding model on a dataset")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", default=None,
                   help="history CSV path (default: <out>.history.csv)")
    _add_model_flags(p)

    p = sub.add_parser("index", help="build a feature store from labeled data")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--method", choices=list(labeling.METHODS), required=True)
    p.add_argument("--out", required=True, help="store output path")
    p.add_argument("--model", default=None, help="embnum checkpoint")
    p.add_argument("--dsl-model", default=None,
                   help="dsl weights JSON; trained on the indexed data when omitted")

    p = sub.add_parser("label", help="rank store records against a query column")
    p.add_argument("store", help="feature store file")
    p.add_argument("query", help="query CSV, one numeric value per line")
    p.add_argument("--top", type=_positive_int, default=5, help="entries to print (>= 1)")

    p = sub.add_parser("benchmark", help="run the leave-one-source-out protocol")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--method", choices=list(labeling.METHODS), required=True)
    p.add_argument("--model", default=None, help="embnum checkpoint")
    p.add_argument("--dsl-model", default=None,
                   help="dsl weights JSON; trained on the dataset when omitted")
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")

    p = sub.add_parser("export-embeddings", help="dump every attribute's embedding as CSV")
    p.add_argument("model", help="embnum checkpoint")
    p.add_argument("data", help="dataset directory")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _cmd_gen(args) -> int:
    spec = dataset.spec_from_json(Path(args.spec).read_bytes())
    out = Path(args.out)
    if out.exists() and any(out.iterdir()):
        raise MissingDirectory(f"refusing to write into non-empty directory {out}")
    ds = dataset.generate_synthetic(spec)
    dataset.write_dataset(ds, out)
    print(f"wrote {len(ds.attributes)} attributes "
          f"({len(ds.labels)} labels x {len(ds.sources)} sources) to {out}")
    return 0


def _cmd_sample(args) -> int:
    attr = dataset.load_attribute_csv(args.csv)
    vec = sampling.sample_inverse_transform([attr.values], args.h)[0]
    print(",".join(dataset.format_values(vec)))
    return 0


def _cmd_train(args) -> int:
    arch, cfg = _configs(args)
    ds = dataset.load_dataset(args.data)
    model, history = metric.train(ds, arch, cfg)
    out = Path(args.out)
    embnet.save_model(model, out)
    history_path = Path(args.history) if args.history else out.with_name(out.name + ".history.csv")
    atomic_write_text(history_path, metric.history_to_csv(history))
    print(f"best train MRR {model.training_meta['best_mrr']:.4f} "
          f"after epoch {model.training_meta['epochs_seen']}; "
          f"checkpoint {out}, history {history_path}")
    return 0


def _load_scorers(args):
    model = embnet.load_model(args.model) if args.model else None
    dsl_model = baselines.load_dsl_model(args.dsl_model) if args.dsl_model else None
    return model, dsl_model


def _cmd_index(args) -> int:
    ds = dataset.load_dataset(args.data)
    model, dsl_model = _load_scorers(args)
    store = labeling.index_labeled(ds, args.method, model=model, dsl_model=dsl_model)
    labeling.save_store(store, Path(args.out))
    print(f"indexed {len(store.labels)} attributes ({args.method}) into {args.out}")
    return 0


def _cmd_label(args) -> int:
    store = labeling.load_store(Path(args.store))
    query = dataset.load_attribute_csv(args.query)
    ranking = labeling.rank(store, query)
    csv.writer(sys.stdout, lineterminator="\n").writerows(
        [e.label, e.source, repr(e.score)] for e in ranking.entries[: args.top])
    return 0


def _cmd_benchmark(args) -> int:
    ds = dataset.load_dataset(args.data)
    model, dsl_model = _load_scorers(args)
    report = labeling.run_benchmark(ds, args.method, model=model, dsl_model=dsl_model)
    text = labeling.report_to_json(report)
    if args.out:
        atomic_write_text(Path(args.out), text)
        print(f"{report.total_experiments} experiments ({args.method}) -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    model = embnet.load_model(args.model)
    ds = dataset.load_dataset(args.data)
    text = labeling.export_embeddings_csv(model, ds)
    if args.out:
        atomic_write_text(Path(args.out), text)
        print(f"wrote embeddings for {len(ds.attributes)} attributes to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "sample": _cmd_sample,
    "train": _cmd_train,
    "index": _cmd_index,
    "label": _cmd_label,
    "benchmark": _cmd_benchmark,
    "export-embeddings": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except EmbnumError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"OutOfMemory: {str(exc) or 'the host refused an allocation'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
