"""The `warden` command suite: dataset generation through live detection.

A training hyperparameter flag that is left out keeps the estimator's own
default, and `--epochs 0` saves the untrained model.

Exit codes are a stable scripting contract: 0 success, 2 usage or malformed
input, 3 insufficient data (single-class training set), 4 fingerprint,
format-version or dimension mismatch (a feature CSV or a model scaler whose
width is not that of the feature config), 5 spawn failure, 10 a detector
Terminate fired during `detect`, and 10+reason for jobs killed under `run`
(11 policy, 12 detector, 13 wallclock). A coordinator that rejects the
node's registration is a usage error (2), not an outage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from functools import partial

import numpy as np

from . import __version__
from .coordinator import LEDGER_ENV_VAR, CoordinatorClient, CoordinatorUnavailable, Rejected, field_problem, serve_forever
from .datagen import ScenarioSpec, gen_dataset
from .detector import (
    Alert,
    AlertSpool,
    DetectorConfig,
    FingerprintMismatch,
    ResponseAction,
    flush_spool,
    read_alert_log,
    run_pipeline,
    serialize_alert_line,
)
from .features import DimensionMismatch, FeatureConfig, Scaler, read_feature_csv, write_feature_csv
from .hashing import SplitMix64, fnv1a64
from .ml import (
    MlpClassifier,
    ModelBundle,
    RnnClassifier,
    SingleClass,
    SvmClassifier,
    VersionMismatch,
    evaluate_scores,
    grad_check,
    group_mean_scores,
    load_model,
    roc_points,
    save_model,
)
from .ml.data import build_feature_dataset, build_sequence_dataset, load_manifest
from .ml.io import KIND_CLASSES
from .records import MalformedLine
from .sandbox import (
    JobDescriptor,
    ProcessBackend,
    SandboxError,
    SandboxPolicy,
    SpawnFailure,
    replay_job,
    validate_policy,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FINGERPRINT = 4
EXIT_SPAWN = 5
EXIT_TERMINATED = 10

# exception type -> exit code, first match wins; any other error a command reports is a usage error
_EXIT_CODES = (
    (SingleClass, EXIT_DATA),
    (DimensionMismatch, EXIT_FINGERPRINT),
    (VersionMismatch, EXIT_FINGERPRINT),
    (SpawnFailure, EXIT_SPAWN),
)

# traces that `detect` replays and scores at once; each also runs one replay thread
DETECT_WORKERS = 4

METRICS_HEADER = ("model", "accuracy", "precision", "recall", "f1", "fpr", "auc")


def _fail(cmd: str, exc: Exception) -> int:
    """Report ``exc`` on stderr as ``cmd``'s error; returns its exit code."""
    detail = f"malformed input: {exc}" if isinstance(exc, MalformedLine) else exc
    print(f"{cmd}: {detail}", file=sys.stderr)
    return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), EXIT_USAGE)


def _banner(seed, feature_config: FeatureConfig, detector_config: DetectorConfig | None = None) -> None:
    payload = json.dumps(
        {
            "features": feature_config.to_dict(),
            "detector": None
            if detector_config is None
            else {
                "tau": detector_config.tau,
                "k": detector_config.k,
                "n": detector_config.n,
                "policy": [[t, a.wire] for t, a in detector_config.action_policy],
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    print(f"warden {__version__} seed={seed} config={fnv1a64(payload):016x}", file=sys.stderr)


def _load_config_overrides(path) -> dict:
    """key=value lines overriding feature/detector parameters."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            overrides[key.strip()] = value.strip()
    return overrides


def parse_policy_spec(spec: str) -> tuple[tuple[int, ResponseAction], ...]:
    """Grammar: action:threshold[,action:threshold]... with actions alert|terminate."""
    aliases = {"alert": ResponseAction.RAISE_ALERT, "raise_alert": ResponseAction.RAISE_ALERT, "terminate": ResponseAction.TERMINATE}
    rules = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, threshold = part.partition(":")
        if name.lower() not in aliases or not threshold:
            raise ValueError(f"bad policy rule {part!r}; expected action:threshold")
        rules.append((int(threshold), aliases[name.lower()]))
    rules.sort(key=lambda r: r[0])
    if not rules:
        raise ValueError("policy spec is empty")
    return tuple(rules)


# config key (also the flag's dest) -> (constructor field, parser of the value)
_FEATURE_KEYS = {
    "window_s": ("window_s", float),
    "hop_s": ("hop_s", float),
    "ngram_orders": ("ngram_orders", lambda text: tuple(int(x) for x in text.split(",") if x)),
    "hash_dim": ("hash_dim", int),
}
_DETECTOR_KEYS = {
    "tau": ("tau", float),
    "k": ("k", int),
    "n": ("n", int),
    "policy": ("action_policy", parse_policy_spec),
}


def _merged_config(args, cls, keys: dict, **params):
    """``cls(**params)`` with each key from a --config line, overridden by its flag if given (an empty flag is not)."""
    lines = _load_config_overrides(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) not in (None, "")}
    for given in (lines, flags):
        for key, (field, parse) in keys.items():
            if key in given:
                params[field] = parse(given[key])
    return cls(**params)


# --- subcommands ---------------------------------------------------------------

def cmd_gen_dataset(args) -> int:
    _banner(args.seed, FeatureConfig())
    try:
        mix = {}
        for item in args.mix or []:
            name, _, weight = item.partition("=")
            mix[name] = float(weight) if weight else 1.0
        spec = ScenarioSpec(
            n_normal=args.normal,
            n_malicious=args.malicious,
            duration_s=args.duration,
            seed=args.seed,
            profile_mix=mix,
        )
        manifest = gen_dataset(spec, args.out)
    except (ValueError, OSError) as exc:
        return _fail("gen-dataset", exc)
    print(f"wrote {len(manifest['entries'])} traces to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    try:
        config = _merged_config(args, FeatureConfig, _FEATURE_KEYS)
    except (ValueError, OSError) as exc:
        return _fail("extract", exc)
    _banner(args.seed, config)
    try:
        manifest = load_manifest(args.manifest)
        vectors = build_feature_dataset(args.manifest, config)[1] if manifest["entries"] else []
        labels = {e["job_id"]: e["label"] for e in manifest["entries"]}
        rows = write_feature_csv(args.out, vectors, labels, config.dim)
    except (ValueError, OSError) as exc:
        return _fail("extract", exc)
    print(f"wrote {rows} feature rows")
    return EXIT_OK


def _estimator(args, config: FeatureConfig):
    """The --kind estimator with the hyperparameter flags given; the others keep the class's defaults."""
    model = KIND_CLASSES[args.kind]()
    given = {name: getattr(args, name, None) for name in model.get_params()}
    if "vocab" in given:
        given["vocab"] = config.hash_dim
    return model.set_params(**{name: value for name, value in given.items() if value is not None})


def _load_corpus(args, config: FeatureConfig, model):
    """(inputs, y, groups) to train or score ``model`` on.

    The RNN reads token sequences from --manifest, and its groups are None.
    The other kinds read window features from --features, else --manifest,
    grouped by job id; a feature CSV must be as wide as ``config``. In
    `train`, a feature CSV must hold a row and the RNN may not be given one.
    """
    training = args.command == "train"
    sequences = isinstance(model, RnnClassifier)
    if sequences and training and args.features:
        raise ValueError(f"--kind {model.kind} needs a manifest (token sequences), not a feature CSV")
    if sequences and not training and not args.manifest:
        raise ValueError(f"{model.kind} models need a manifest")
    if not args.features and not args.manifest:
        raise ValueError("provide --manifest or --features")
    if sequences:
        data = build_sequence_dataset(args.manifest, config, t_max=model.t_max)
        return data.sequences, data.y, None
    if not args.features:
        data, _ = build_feature_dataset(args.manifest, config)
        return data.X, data.y, data.groups
    X, y, job_ids, _ = read_feature_csv(args.features)
    if training and X.shape[0] == 0:
        raise SingleClass("feature CSV is empty")
    if X.shape[1] != config.dim:
        raise DimensionMismatch(f"feature CSV dimension {X.shape[1]} != model dimension {config.dim}")
    return X, y, tuple(job_ids)


def cmd_train(args) -> int:
    try:
        config = _merged_config(args, FeatureConfig, _FEATURE_KEYS)
    except (ValueError, OSError) as exc:
        return _fail("train", exc)
    _banner(args.seed, config)
    try:
        model = _estimator(args, config)
        inputs, y, groups = _load_corpus(args, config, model)
        scaler = None if groups is None else Scaler().fit(inputs)
        model.fit(inputs if scaler is None else scaler.transform(inputs), y)
        bundle = ModelBundle(kind=model.kind, model=model, feature_config=config, scaler=scaler)
        scores = bundle.score(inputs)
    except (ValueError, OSError) as exc:
        return _fail("train", exc)
    model_id = save_model(bundle, args.out)
    metrics = evaluate_scores(scores, y)
    auc = "" if metrics.auc is None else f"{metrics.auc:.6f}"
    print(
        f"kind={args.kind} model_id={model_id} n={metrics.n} accuracy={metrics.accuracy:.6f} "
        f"precision={metrics.precision:.6f} recall={metrics.recall:.6f} f1={metrics.f1:.6f} "
        f"fpr={metrics.fpr:.6f} auc={auc}"
    )
    return EXIT_OK


def _metric_row(name: str, metrics) -> str:
    auc = "" if metrics.auc is None else repr(metrics.auc)
    return (
        f"{name},{repr(metrics.accuracy)},{repr(metrics.precision)},{repr(metrics.recall)},"
        f"{repr(metrics.f1)},{repr(metrics.fpr)},{auc}"
    )


def cmd_eval(args) -> int:
    try:
        bundle = load_model(args.model)
    except (OSError, ValueError) as exc:
        return _fail("eval", exc)
    _banner(args.seed, bundle.feature_config)
    try:
        inputs, y, groups = _load_corpus(args, bundle.feature_config, bundle.model)
        scores = bundle.score(inputs)
        rows = [(bundle.kind, evaluate_scores(scores, y))]
        if groups is not None:  # window rows: add the per-trace row
            _, trace_scores, trace_labels = group_mean_scores(scores, y, groups)
            rows.append((f"{bundle.kind}-trace", evaluate_scores(trace_scores, trace_labels)))
    except (ValueError, OSError) as exc:
        return _fail("eval", exc)

    lines = [",".join(METRICS_HEADER)] + [_metric_row(n, m) for n, m in rows]
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("threshold,fpr,tpr\n")
            for thr, fpr, tpr in roc_points(scores, y):
                fh.write(f"{repr(thr)},{repr(fpr)},{repr(tpr)}\n")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    _banner(args.seed, FeatureConfig())
    thresholds = {"svm": 1e-6, "mlp": 1e-4, "rnn": 1e-4}
    worst = dict.fromkeys(thresholds, 0.0)
    for s in range(args.seeds):
        seed = args.seed + s
        rng = SplitMix64(fnv1a64(f"gradcheck-{seed}"))
        x = np.array([rng.gauss() for _ in range(6)])
        y = seed % 2
        mlp = MlpClassifier(hidden=4, epochs=0, seed=seed)
        mlp.fit(np.vstack([x, -x]), np.array([0, 1]))

        seq = np.array([rng.randrange(8) for _ in range(12)])
        rnn = RnnClassifier(hidden=4, embed=3, epochs=0, seed=seed, vocab=8)
        rnn.fit([seq, seq[:5]], np.array([0, 1]))

        svm = SvmClassifier(lambda_=1e-2, epochs=0, seed=seed)
        svm.w_ = np.array([rng.gauss() for _ in range(6)])
        svm.b_ = rng.gauss()
        margin = (1.0 if y == 1 else -1.0) * (float(x @ svm.w_) + svm.b_)
        if abs(margin - 1.0) < 0.1:
            svm.b_ += 0.5  # stay away from the hinge kink where the subgradient is not unique
        for model, example in ((mlp, (x, y)), (rnn, (seq, y)), (svm, (x, y))):
            worst[model.kind] = max(worst[model.kind], grad_check(model, example))
    ok = True
    for kind, threshold in thresholds.items():
        passed = worst[kind] < threshold
        ok = ok and passed
        print(f"gradcheck {kind}: max relative error {worst[kind]:.3e} (threshold {threshold:.0e}) "
              f"{'ok' if passed else 'FAIL'}")
    return EXIT_OK if ok else 1


def _node_agent(args, cmd: str, work, flush: bool = False) -> int:
    """Load the window model, register with --coordinator; return ``work(bundle, detector_config, client, node_id)``.

    A registration the coordinator rejects is a usage error. An unreachable
    coordinator leaves the client None (node id "local"), so alerts spool.
    With ``flush``, the --spool file is redelivered right after registering.
    The client is closed when ``work`` returns.
    """
    try:
        bundle = load_model(args.model)
        if bundle.scaler is None:
            raise ValueError("online window scoring needs an svm or mlp model")
        if bundle.scaler.mean_.shape[0] != bundle.feature_config.dim:
            raise DimensionMismatch(f"{args.model}: scaler dimension {bundle.scaler.mean_.shape[0]} "
                                    f"!= feature config dimension {bundle.feature_config.dim}")
        detector_config = _merged_config(args, DetectorConfig, _DETECTOR_KEYS, model_id=bundle.model_id)
    except (OSError, ValueError) as exc:
        return _fail(cmd, exc)
    _banner(args.seed, bundle.feature_config, detector_config)
    coordinator = client = CoordinatorClient(args.coordinator) if args.coordinator else None
    node_id = "local"
    try:
        if coordinator is not None:
            try:
                node_id = coordinator.register(args.hostname, idempotency_key=args.hostname)
                if flush and args.spool:
                    flush_spool(AlertSpool(args.spool), coordinator, node_id)
            except Rejected as exc:
                print(f"{cmd}: coordinator {exc}", file=sys.stderr)
                return EXIT_USAGE
            except CoordinatorUnavailable:
                client = None  # alerts spool; the exit code still reflects detection
        return work(bundle, detector_config, client, node_id)
    finally:
        if coordinator is not None:
            coordinator.close()


def cmd_detect(args) -> int:
    return _node_agent(args, "detect", partial(_detect_traces, args), flush=True)


def _detect_traces(args, bundle, detector_config, client, node_id) -> int:
    spool = AlertSpool(args.spool) if args.spool else None

    def detect_one(trace_path: str):
        """(result, spooled alerts, None), or (None, None, the error) for an unreadable trace."""
        job_id = os.path.splitext(os.path.basename(trace_path))[0]
        if problem := field_problem("job_id", job_id, "id"):  # a name with bytes that are not UTF-8, say
            return None, None, ValueError(f"{trace_path!r}: {problem}")
        try:
            handle = replay_job(trace_path, job_id, speed=args.replay_speed)
        except (SandboxError, OSError, ValueError) as exc:
            return None, None, exc
        # each pipeline spools into its own list; the lists reach the file in
        # argument order, so the spool does not depend on thread timing
        spooled = [] if spool is not None else None
        result = run_pipeline(handle, bundle, detector_config, client=client, node_id=node_id, spool=spooled)
        return result, spooled, None

    with ThreadPoolExecutor(max_workers=DETECT_WORKERS) as pool:
        outcomes = list(pool.map(detect_one, args.traces))
    failed = terminated = False
    for result, spooled, error in outcomes:  # deterministic grouping: input order
        if error is not None:
            _fail("detect", error)
            failed = True
            continue
        for alert in spooled or ():
            spool.append(alert)
        for alert in result.alerts:
            print(serialize_alert_line(alert))
        terminated = terminated or result.terminated
    if failed:
        return EXIT_USAGE
    return EXIT_TERMINATED if terminated else EXIT_OK


def _json_field(data: dict, key: str, kind: type, default, of_strings: bool = False):
    """``data[key]``, or ``default`` if absent; ValueError unless it is a ``kind`` (list or dict) of strings, if asked."""
    value = data.get(key, default)
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or of_strings and not all(isinstance(item, str) for item in items):
        raise ValueError(f"{key} must be a JSON {'array' if kind is list else 'object'}{' of strings' * of_strings}, got {value!r}")
    return value


def _policy_from_dict(data: dict) -> SandboxPolicy:
    """The fields present in ``data``; the rest keep SandboxPolicy's defaults, unknown keys are ignored."""
    params = {f.name: data[f.name] for f in fields(SandboxPolicy) if f.name in data}
    if "fs_hidden_paths" in params:
        params["fs_hidden_paths"] = tuple(_json_field(params, "fs_hidden_paths", list, ()))
    return SandboxPolicy(**params)


def cmd_run(args) -> int:
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            job_spec = json.load(fh)
        if not isinstance(job_spec, dict):
            raise ValueError("a job file holds one JSON object")
        if "job_id" not in job_spec:
            raise ValueError("the job file has no job_id field")
        policy = _policy_from_dict(_json_field(job_spec, "policy", dict, {}))
        if args.wallclock_limit_s is not None:
            policy = replace(policy, wallclock_limit_s=args.wallclock_limit_s)
        descriptor = JobDescriptor(
            job_id=job_spec["job_id"],
            command=tuple(_json_field(job_spec, "command", list, None, of_strings=True)),
            env=dict(_json_field(job_spec, "env", dict, {}, of_strings=True)),
            policy=policy,
        )
        problems = validate_policy(policy)
        if problems:
            print(f"run: invalid policy: {problems}", file=sys.stderr)
            return EXIT_USAGE
    except (OSError, ValueError) as exc:
        return _fail("run", exc)
    return _node_agent(args, "run", partial(_run_job, args, descriptor, policy))


def _run_job(args, descriptor, policy, bundle, detector_config, client, node_id) -> int:
    backend = ProcessBackend(sample_interval_ms=args.sample_interval_ms)
    try:
        handle = backend.launch(descriptor)
    except SpawnFailure as exc:
        return _fail("run", exc)
    spool = AlertSpool(args.spool) if args.spool else None
    result = run_pipeline(
        handle,
        bundle,
        detector_config,
        client=client,
        node_id=node_id,
        spool=spool,
        policy=policy,
    )
    status = handle.wait(timeout=10.0)
    for alert in result.alerts:
        print(serialize_alert_line(alert))
    if status.phase == "completed":
        return status.exit_code
    if status.phase == "killed":
        return EXIT_TERMINATED + int(status.kill_reason)
    print(f"run: job did not reach a terminal state ({status.phase})", file=sys.stderr)
    return EXIT_USAGE


def cmd_serve(args) -> int:
    ledger = args.ledger or os.environ.get(LEDGER_ENV_VAR)
    if not ledger:
        print(f"serve: provide --ledger or set {LEDGER_ENV_VAR}", file=sys.stderr)
        return EXIT_USAGE
    _banner(args.seed, FeatureConfig())
    serve_forever(args.listen, ledger)
    return EXIT_OK


def cmd_report(args) -> int:
    _banner(args.seed, FeatureConfig())
    rows = []
    try:
        for path in args.metrics or []:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().strip()
                if header != ",".join(METRICS_HEADER):
                    print(f"report: {path}: not a metrics CSV", file=sys.stderr)
                    return EXIT_USAGE
                for line in fh:
                    line = line.strip()
                    if line:
                        parts = line.split(",")
                        if len(parts) != len(METRICS_HEADER):
                            print(f"report: {path}: bad row {line!r}", file=sys.stderr)
                            return EXIT_USAGE
                        rows.append(parts)
        alerts = []
        for path in args.alerts or []:
            for alert in read_alert_log(path):
                if isinstance(alert, ValueError):
                    raise alert
                alerts.append(alert)
    except (OSError, ValueError) as exc:
        return _fail("report", exc)

    if rows:
        rows.sort(key=lambda r: r[0])
        widths = [max(len(r[i]) for r in rows + [METRICS_HEADER]) for i in range(len(METRICS_HEADER))]
        print("  ".join(h.ljust(w) for h, w in zip(METRICS_HEADER, widths)))
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if args.alerts is not None:
        if not alerts:
            print("0 alerts")
        else:
            print(f"{len(alerts)} alerts")
            by_job: dict[str, list[Alert]] = {}
            for alert in alerts:
                by_job.setdefault(alert.job_id, []).append(alert)
            for job_id in sorted(by_job):
                job_alerts = by_job[job_id]
                worst = max(a.action_taken for a in job_alerts)
                print(f"  {job_id}: {len(job_alerts)} alert(s), max action {worst.wire}")
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="warden", description=__doc__)
    parser.add_argument("--version", action="version", version=f"warden {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, features=False, detector=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value overrides for feature/detector parameters")
        if features:
            p.add_argument("--window-s", dest="window_s", type=float)
            p.add_argument("--hop-s", dest="hop_s", type=float)
            p.add_argument("--ngram-orders", dest="ngram_orders", help="comma list, e.g. 1,2")
            p.add_argument("--hash-dim", dest="hash_dim", type=int)
        if detector:
            p.add_argument("--tau", type=float)
            p.add_argument("--k", type=int)
            p.add_argument("--n", type=int)
            p.add_argument("--policy", help="action:threshold[,action:threshold]...")

    p = sub.add_parser("gen-dataset", help="generate a labeled synthetic corpus")
    p.add_argument("--normal", type=int, required=True)
    p.add_argument("--malicious", type=int, required=True)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--out", required=True)
    p.add_argument("--mix", action="append", help="profile=weight (repeatable)")
    common(p)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("extract", help="extract window features to CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    common(p, features=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--kind", choices=tuple(KIND_CLASSES), required=True)
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--out", required=True)
    # hyperparameters: each dest is the estimator's parameter name; one left out keeps the class default
    p.add_argument("--lambda", dest="lambda_", metavar="SVM_LAMBDA", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--embed", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--clip", type=float)
    common(p, features=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model; writes metrics/ROC CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--metrics-out", dest="metrics_out")
    p.add_argument("--roc-out", dest="roc_out")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seeds", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("detect", help="replay traces through the detection pipeline")
    p.add_argument("traces", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--coordinator")
    p.add_argument("--spool")
    p.add_argument("--hostname", default=os.uname().nodename if hasattr(os, "uname") else "localhost")
    p.add_argument("--replay-speed", dest="replay_speed", type=float, default=0.0,
                   help="0 = max speed, 1 = real time")
    common(p, detector=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("run", help="run a live job under sandbox plus detection")
    p.add_argument("--job", required=True, help="job descriptor JSON file")
    p.add_argument("--model", required=True)
    p.add_argument("--coordinator")
    p.add_argument("--spool")
    p.add_argument("--hostname", default=os.uname().nodename if hasattr(os, "uname") else "localhost")
    p.add_argument("--wallclock-limit-s", dest="wallclock_limit_s", type=float)
    p.add_argument("--sample-interval-ms", dest="sample_interval_ms", type=int, default=1000)
    common(p, detector=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="run the coordinator service")
    p.add_argument("--listen", default="127.0.0.1:7700")
    p.add_argument("--ledger")
    common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="render metrics tables and alert summaries")
    p.add_argument("--metrics", action="append")
    p.add_argument("--alerts", action="append")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FingerprintMismatch as exc:
        print(f"warden: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
