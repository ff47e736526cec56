"""Run one warden benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline-train --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: whether every check
passed, the operations attempted and failed, and the metrics. With
``--trace 0`` these are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the per-layer metrics, which come from spans recorded around
warden's public functions. Generated inputs live under ``perfbench/.work``
and are removed at the end; results and span files go to
``perfbench/results``. A failed check or an error raised by warden ends the
run with ``correct: false``, the round under way counted as failed, and exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_warden() -> None:
    """Use the warden in this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import warden
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import warden from {SRC}: {exc}") from None
    if not os.path.abspath(warden.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: warden was imported from {warden.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def workloads():
    from ingest import CoordinatorIngest
    from offline import OfflineTrain
    from online import OnlineDetect

    return {w.name: w for w in (OfflineTrain, OnlineDetect, CoordinatorIngest)}


def spare_setup_s(workload) -> float:
    """Time the set-up of a spare copy of the workload in a directory of its own, then remove the copy."""
    directory = os.path.join(workload.workdir, "spare")
    os.makedirs(directory)
    spare = type(workload)(directory, workload.seed, workload.sizes)
    try:
        start = time.perf_counter()
        spare.setup()
        return time.perf_counter() - start
    finally:
        spare.close()
        shutil.rmtree(directory, ignore_errors=True)


def execute(workload, seconds: float, tracer, progress: dict | None = None) -> dict:
    """Set up, then run whole rounds until ``seconds`` of rounds are measured.

    Set-up is timed ``sizes.setups`` times: once for the workload itself and
    then on spare copies between rounds, spread over the run, so that a slow
    spell of the machine moves some of the samples rather than all of them.
    A traced run sets up once, traced. In a traced run, rounds alternate
    between untraced and traced, so the tracing overhead is measured on the
    same inputs in the same process; workload-level figures then come from
    the untraced rounds. ``progress`` holds the operations attempted and
    failed by the rounds checked so far, for a run that stops on an error.
    """
    progress = {} if progress is None else progress
    sizes = workload.sizes
    setups = 1 if tracer else sizes.setups
    setup_mark = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        setup_s = [time.perf_counter() - start]
    finally:
        if tracer:
            tracer.uninstall()
    workload.prepare()

    mark = len(tracer.spans) if tracer else 0
    plain, traced = [], []  # (seconds, result) per round
    attempted = failed = 0
    index = 0
    while True:
        tracing = tracer is not None and index % 2 == 1
        if tracing:
            tracer.install()
        try:
            start = time.perf_counter()
            result = workload.round(index)
            elapsed = time.perf_counter() - start
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append((elapsed, result))
        ops, bad = workload.ops(result)
        workload.check(index, result)
        attempted, failed = attempted + ops, failed + bad
        progress.update(attempted=attempted, failed=failed)
        index += 1
        measured = sum(s for s, _ in plain) + sum(s for s, _ in traced)
        while len(setup_s) < setups and measured >= seconds * len(setup_s) / setups:
            setup_s.append(spare_setup_s(workload))
        if index >= sizes.min_rounds and measured >= seconds and (tracer is None or traced):
            break
    workload.finish()

    if tracer is None:
        metrics = {"setup_s": statistics.median(setup_s), **workload.end_to_end(plain)}
    else:
        metrics = workload.per_layer(tracer, mark, len(traced), setup_mark, plain)
        base = statistics.median(s for s, _ in plain)
        metrics["trace.overhead_pct"] = (statistics.median(s for s, _ in traced) - base) / base * 100.0
        metrics["trace.missing_wrappers"] = len(tracer.missing)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def attempt(workload, seconds: float, tracer) -> tuple[bool, str, dict]:
    """``execute``, with a failed check or an error raised by warden turned into a failed result."""
    from checks import CheckFailed

    progress = {"attempted": 0, "failed": 0}
    try:
        return True, "passed", execute(workload, seconds, tracer, progress)
    except Exception as exc:
        message = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
        # the operations of the rounds checked so far, and the round under way as one failed operation
        return False, message, {"attempted": progress["attempted"] + 1, "failed": progress["failed"] + 1, "metrics": {}}


def report(spec: dict, trace: bool, measured: dict) -> dict:
    table = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {unknown}")
    if not trace and set(measured) != set(units):
        raise SystemExit(f"perfbench: end-to-end metrics not measured: {sorted(set(units) - set(measured))}")
    # a traced run reports every per-layer metric; layers this workload leaves out read 0
    return {name: {"value": float(measured.get(name, 0.0)), "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_warden()
    sys.path.insert(0, HERE)
    from tracing import Tracer

    kinds = workloads()
    if args.workload not in kinds:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(kinds)}")
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    tracer = Tracer() if args.trace else None
    workload = kinds[args.workload](workdir, args.seed)
    try:
        correct, message, measured = attempt(workload, args.seconds, tracer)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: checks {message}", file=sys.stderr)
    if tracer is not None:
        tracer.write(os.path.join(results, f"spans-{args.workload}-seed{args.seed}.json"))
        for name in tracer.missing:
            print(f"traced function missing: {name}", file=sys.stderr)
    result = {"correct": correct, "attempted": measured["attempted"], "failed": measured["failed"]}
    if correct:
        result["metrics"] = report(spec, bool(args.trace), measured["metrics"])
        for name, m in result["metrics"].items():
            print(f"{name:42s} {m['value']:.6g} {m['unit']}")
        print(f"operations attempted {result['attempted']}, failed {result['failed']}")
    else:
        result["metrics"] = {}
    line = json.dumps(result)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
