#!/usr/bin/env python3
"""Benchmark command for embnum.

    python3 perfbench/run.py --workload {serve,loso} --seed N --seconds S --trace {0,1}

Run from the repository root.  The workloads are described in
``perfbench/workloads.py`` and declared, with every metric, in
``BENCHMARK.json``; ``perfbench/predictions.json`` says which end-to-end
metric each per-layer metric should move.

With ``--trace 0`` the command times one untraced pass and prints the
end-to-end metrics, every timing scaled to the reference machine's quiet
speed by ``perfbench/pace.py``; the unscaled values are on the line before.
With ``--trace 1`` it runs the workload at its minimum length twice,
untraced and then traced, checks that both passes produced the same outputs,
and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the environment, sample
counts and gate tallies.  The exit code is 0 only when every operation and
every correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("serve", "loso"))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 reproduces the frozen fixtures")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="run the stages for at least this long; each stage also has a "
                         "minimum length, which usually takes longer")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def pin_environment() -> None:
    """Single-threaded BLAS and at most nproc loader threads; before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["EMBNUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))


def _git_sha() -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads_reported():
    """What OpenBLAS itself says, when its library can be found next to numpy."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads_reported(),
        "loader_threads_max": int(os.environ["EMBNUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def end_to_end_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "embnum" / "__init__.py").is_file():
        print(f"embnum sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    import spans
    import workloads

    inputs = workloads.Inputs(args.seed)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            t0 = time.perf_counter()
            plain = workloads.run_workload(args.workload, inputs, work, 0.0, setup_repeats=1)
            plain_s = time.perf_counter() - t0
            rec = spans.Recorder()
            t0 = time.perf_counter()
            with spans.Instrumented(rec) as inst:
                traced = workloads.run_workload(args.workload, inputs, work, 0.0,
                                                setup_repeats=1, rec=rec)
            traced_s = time.perf_counter() - t0
            traced.check("trace.restored", not inst.broken)
            traced.check("trace.identical_outputs", traced.outputs == plain.outputs)
            if inst.broken:
                print(f"not restored: {inst.broken}", file=sys.stderr)
            runs = (plain, traced)
            metrics = {name: {"value": value, "unit": spans.PER_LAYER[name][0]}
                       for name, value in spans.layer_metrics(rec, traced_s / plain_s).items()}
            detail["untraced_s"], detail["traced_s"] = plain_s, traced_s
        else:
            run = workloads.run_workload(args.workload, inputs, work, args.seconds, paced=True)
            runs = (run,)
            values = run.end_to_end()
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = end_to_end_units()
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in units.items()}
            detail["setup_samples_s"] = [run.pace.wall(*t) for t in run.setup_s]
            detail["unscaled"] = run.end_to_end(scaled=False)
            detail["slowdown_median"] = run.pace.median()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail["environment"] = environment(args.seed)
    detail["samples"] = runs[-1].sample_counts()
    detail["gates"] = {}
    for r in runs:
        for gate, (passed, checked) in r.gates.items():
            tally = detail["gates"].setdefault(gate, {"passed": 0, "checked": 0})
            tally["passed"] += passed
            tally["checked"] += checked
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
