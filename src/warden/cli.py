"""The `warden` command suite: dataset generation through live detection.

Exit codes are a stable scripting contract: 0 success, 2 usage or malformed
input, 3 insufficient data (single-class training set), 4 fingerprint or
format-version mismatch, 5 spawn failure, 10 a detector Terminate fired
during `detect`, and 10+reason for jobs killed under `run` (11 policy,
12 detector, 13 wallclock). A coordinator that rejects the node's
registration is a usage error (2), not an outage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .coordinator import LEDGER_ENV_VAR, CoordinatorClient, CoordinatorUnavailable, Rejected, serve_forever
from .datagen import InvalidSpec, ScenarioSpec, gen_dataset
from .detector import (
    Alert,
    AlertSpool,
    DetectorConfig,
    FingerprintMismatch,
    ResponseAction,
    flush_spool,
    parse_alert_line,
    run_pipeline,
    serialize_alert_line,
)
from .features import DimensionMismatch, FeatureConfig, Scaler, write_feature_csv
from .hashing import fnv1a64
from .ml import (
    Dataset,
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

# traces that `detect` replays and scores at once; each also runs one replay thread
DETECT_WORKERS = 4


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


def _feature_config(args) -> FeatureConfig:
    params = {}
    overrides = _load_config_overrides(args.config) if getattr(args, "config", None) else {}
    if "window_s" in overrides:
        params["window_s"] = float(overrides["window_s"])
    if "hop_s" in overrides:
        params["hop_s"] = float(overrides["hop_s"])
    if "ngram_orders" in overrides:
        params["ngram_orders"] = tuple(int(x) for x in overrides["ngram_orders"].split(",") if x)
    if "hash_dim" in overrides:
        params["hash_dim"] = int(overrides["hash_dim"])
    for flag, key in (("window_s", "window_s"), ("hop_s", "hop_s"), ("hash_dim", "hash_dim")):
        value = getattr(args, flag, None)
        if value is not None:
            params[key] = value
    if getattr(args, "ngram_orders", None):
        params["ngram_orders"] = tuple(int(x) for x in args.ngram_orders.split(",") if x)
    return FeatureConfig(**params)


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


def _detector_config(args, model_id: str = "") -> DetectorConfig:
    overrides = _load_config_overrides(args.config) if getattr(args, "config", None) else {}
    params = {"model_id": model_id}
    if "tau" in overrides:
        params["tau"] = float(overrides["tau"])
    if "k" in overrides:
        params["k"] = int(overrides["k"])
    if "n" in overrides:
        params["n"] = int(overrides["n"])
    if "policy" in overrides:
        params["action_policy"] = parse_policy_spec(overrides["policy"])
    if getattr(args, "tau", None) is not None:
        params["tau"] = args.tau
    if getattr(args, "k", None) is not None:
        params["k"] = args.k
    if getattr(args, "n", None) is not None:
        params["n"] = args.n
    if getattr(args, "policy", None):
        params["action_policy"] = parse_policy_spec(args.policy)
    return DetectorConfig(**params)


# --- subcommands ---------------------------------------------------------------

def cmd_gen_dataset(args) -> int:
    _banner(args.seed, FeatureConfig())
    mix = {}
    for item in args.mix or []:
        name, _, weight = item.partition("=")
        mix[name] = float(weight) if weight else 1.0
    try:
        spec = ScenarioSpec(
            n_normal=args.normal,
            n_malicious=args.malicious,
            duration_s=args.duration,
            seed=args.seed,
            profile_mix=mix,
        )
        manifest = gen_dataset(spec, args.out)
    except (InvalidSpec, OSError) as exc:
        print(f"gen-dataset: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(manifest['entries'])} traces to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    try:
        config = _feature_config(args)
    except (ValueError, OSError) as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _banner(args.seed, config)
    try:
        manifest = load_manifest(args.manifest)
        if not manifest["entries"]:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                from .features import csv_header

                fh.write(csv_header(config.dim) + "\n")
            print("wrote 0 feature rows")
            return EXIT_OK
        _, vectors = build_feature_dataset(args.manifest, config)
        labels = {e["job_id"]: e["label"] for e in manifest["entries"]}
        rows = write_feature_csv(args.out, vectors, labels, config.dim)
    except MalformedLine as exc:
        print(f"extract: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {rows} feature rows")
    return EXIT_OK


def _train_window_model(args, config: FeatureConfig):
    if args.features:
        from .features import read_feature_csv

        X, y, job_ids, _ = read_feature_csv(args.features)
        if X.shape[0] == 0:
            raise SingleClass("feature CSV is empty")
        dataset = Dataset(X, y, tuple(job_ids))
    else:
        dataset, _ = build_feature_dataset(args.manifest, config)
    scaler = Scaler().fit(dataset.X)
    if args.kind == "svm":
        model = SvmClassifier(lambda_=args.svm_lambda, epochs=args.epochs or 20, seed=args.seed)
    else:
        model = MlpClassifier(
            hidden=args.hidden, lr=args.lr if args.lr is not None else 0.05,
            epochs=args.epochs or 50, batch=args.batch, seed=args.seed,
        )
    model.fit(scaler.transform(dataset.X), dataset.y)
    return ModelBundle(kind=args.kind, model=model, feature_config=config, scaler=scaler), dataset.X, dataset.y


def cmd_train(args) -> int:
    try:
        config = _feature_config(args)
    except (ValueError, OSError) as exc:
        print(f"train: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _banner(args.seed, config)
    if args.kind == "rnn" and args.features:
        print("train: --kind rnn needs a manifest (token sequences), not a feature CSV", file=sys.stderr)
        return EXIT_USAGE
    if not args.features and not args.manifest:
        print("train: provide --manifest or --features", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.kind == "rnn":
            seqdata = build_sequence_dataset(args.manifest, config, t_max=args.t_max)
            model = RnnClassifier(
                hidden=args.hidden,
                embed=args.embed,
                lr=args.lr if args.lr is not None else 0.01,
                epochs=args.epochs or 30,
                t_max=args.t_max,
                clip=args.clip,
                seed=args.seed,
                vocab=config.hash_dim,
            )
            model.fit(seqdata.sequences, seqdata.y)
            bundle = ModelBundle(kind="rnn", model=model, feature_config=config, scaler=None)
            inputs, y = seqdata.sequences, seqdata.y
        else:
            bundle, inputs, y = _train_window_model(args, config)
        scores = bundle.score(inputs)
    except SingleClass as exc:
        print(f"train: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MalformedLine as exc:
        print(f"train: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"train: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    except VersionMismatch as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except (OSError, ValueError) as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = bundle.feature_config
    _banner(args.seed, config)
    try:
        if bundle.kind == "rnn":
            if not args.manifest:
                print("eval: rnn models need a manifest", file=sys.stderr)
                return EXIT_USAGE
            seqdata = build_sequence_dataset(args.manifest, config, t_max=bundle.model.t_max)
            scores, y = bundle.score(seqdata.sequences), seqdata.y
            rows = [("rnn", evaluate_scores(scores, y))]
            roc_scores, roc_labels = scores, y
        else:
            if args.features:
                from .features import read_feature_csv

                X, y, job_ids, _ = read_feature_csv(args.features)
                if X.shape[1] != config.dim:
                    raise DimensionMismatch(f"feature CSV dimension {X.shape[1]} != model dimension {config.dim}")
                groups = tuple(job_ids)
            else:
                dataset, _ = build_feature_dataset(args.manifest, config)
                X, y, groups = dataset.X, dataset.y, dataset.groups
            scores = bundle.score(X)
            _, trace_scores, trace_labels = group_mean_scores(scores, y, groups)
            rows = [
                (bundle.kind, evaluate_scores(scores, y)),
                (f"{bundle.kind}-trace", evaluate_scores(trace_scores, trace_labels)),
            ]
            roc_scores, roc_labels = scores, y
    except DimensionMismatch as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except MalformedLine as exc:
        print(f"eval: malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = ["model,accuracy,precision,recall,f1,fpr,auc"] + [_metric_row(n, m) for n, m in rows]
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.roc_out:
        with open(args.roc_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("threshold,fpr,tpr\n")
            for thr, fpr, tpr in roc_points(roc_scores, roc_labels):
                fh.write(f"{repr(thr)},{repr(fpr)},{repr(tpr)}\n")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    _banner(args.seed, FeatureConfig())
    from .hashing import SplitMix64

    thresholds = {"mlp": 1e-4, "rnn": 1e-4, "svm": 1e-6}
    worst = {"mlp": 0.0, "rnn": 0.0, "svm": 0.0}
    for s in range(args.seeds):
        seed = args.seed + s
        rng = SplitMix64(fnv1a64(f"gradcheck-{seed}"))
        x = np.array([rng.gauss() for _ in range(6)])
        y = seed % 2
        mlp = MlpClassifier(hidden=4, epochs=0, seed=seed)
        mlp.fit(np.vstack([x, -x]), np.array([0, 1]))
        worst["mlp"] = max(worst["mlp"], grad_check(mlp, (x, y)))

        seq = np.array([rng.randrange(8) for _ in range(12)])
        rnn = RnnClassifier(hidden=4, embed=3, epochs=0, seed=seed, vocab=8)
        rnn.fit([seq, seq[:5]], np.array([0, 1]))
        worst["rnn"] = max(worst["rnn"], grad_check(rnn, (seq, y)))

        svm = SvmClassifier(lambda_=1e-2, epochs=0, seed=seed)
        svm.w_ = np.array([rng.gauss() for _ in range(6)])
        svm.b_ = rng.gauss()
        margin = (1.0 if y == 1 else -1.0) * (float(x @ svm.w_) + svm.b_)
        if abs(margin - 1.0) < 0.1:
            svm.b_ += 0.5  # stay away from the hinge kink where the subgradient is not unique
        worst["svm"] = max(worst["svm"], grad_check(svm, (x, y)))
    ok = True
    for kind in ("svm", "mlp", "rnn"):
        passed = worst[kind] < thresholds[kind]
        ok = ok and passed
        print(f"gradcheck {kind}: max relative error {worst[kind]:.3e} (threshold {thresholds[kind]:.0e}) "
              f"{'ok' if passed else 'FAIL'}")
    return EXIT_OK if ok else 1


def _load_online_model(args, cmd: str):
    """(bundle, detector config) for `detect` and `run`, or an exit code once the error is printed."""
    try:
        bundle = load_model(args.model)
        if bundle.scaler is None:
            raise ValueError("online window scoring needs an svm or mlp model")
        detector_config = _detector_config(args, model_id=bundle.model_id)
    except VersionMismatch as exc:
        print(f"{cmd}: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except (OSError, ValueError) as exc:
        print(f"{cmd}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _banner(args.seed, bundle.feature_config, detector_config)
    return bundle, detector_config


def cmd_detect(args) -> int:
    loaded = _load_online_model(args, "detect")
    if isinstance(loaded, int):
        return loaded
    coordinator = CoordinatorClient(args.coordinator) if args.coordinator else None
    try:
        return _detect_traces(args, *loaded, coordinator)
    finally:
        if coordinator is not None:
            coordinator.close()


def _detect_traces(args, bundle, detector_config, client) -> int:
    node_id = "local"
    spool = AlertSpool(args.spool) if args.spool else None
    if client is not None:
        try:
            node_id = client.register(args.hostname, idempotency_key=args.hostname)
            if spool is not None:
                flush_spool(spool, client, node_id)
        except Rejected as exc:
            print(f"detect: coordinator {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CoordinatorUnavailable:
            client = None  # alerts spool; exit code still reflects detection

    def detect_one(trace_path: str):
        """(result, spooled alerts, None), or (None, None, error) for an unreadable trace."""
        job_id = os.path.splitext(os.path.basename(trace_path))[0]
        try:
            handle = replay_job(trace_path, job_id, speed=args.replay_speed)
        except MalformedLine as exc:
            return None, None, f"malformed input: {exc}"
        except (SandboxError, OSError, ValueError) as exc:
            return None, None, str(exc)
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
            print(f"detect: {error}", file=sys.stderr)
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    loaded = _load_online_model(args, "run")
    if isinstance(loaded, int):
        return loaded
    coordinator = CoordinatorClient(args.coordinator) if args.coordinator else None
    try:
        return _run_job(args, descriptor, policy, *loaded, coordinator)
    finally:
        if coordinator is not None:
            coordinator.close()


def _run_job(args, descriptor, policy, bundle, detector_config, client) -> int:
    node_id = "local"
    if client is not None:
        try:
            node_id = client.register(args.hostname, idempotency_key=args.hostname)
        except Rejected as exc:
            print(f"run: coordinator {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CoordinatorUnavailable:
            client = None

    backend = ProcessBackend(sample_interval_ms=args.sample_interval_ms)
    try:
        handle = backend.launch(descriptor)
    except SpawnFailure as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_SPAWN
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
                if header != "model,accuracy,precision,recall,f1,fpr,auc":
                    print(f"report: {path}: not a metrics CSV", file=sys.stderr)
                    return EXIT_USAGE
                for line in fh:
                    line = line.strip()
                    if line:
                        parts = line.split(",")
                        if len(parts) != 7:
                            print(f"report: {path}: bad row {line!r}", file=sys.stderr)
                            return EXIT_USAGE
                        rows.append(parts)
        alerts = []
        for path in args.alerts or []:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        alerts.append(parse_alert_line(line))
    except (OSError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if rows:
        rows.sort(key=lambda r: r[0])
        widths = [max(len(r[i]) for r in rows + [["model", "accuracy", "precision", "recall", "f1", "fpr", "auc"]]) for i in range(7)]
        header = ["model", "accuracy", "precision", "recall", "f1", "fpr", "auc"]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
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
    p.add_argument("--kind", choices=("svm", "mlp", "rnn"), required=True)
    p.add_argument("--manifest")
    p.add_argument("--features")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", dest="svm_lambda", type=float, default=1e-4)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--embed", type=int, default=16)
    p.add_argument("--t-max", dest="t_max", type=int, default=512)
    p.add_argument("--clip", type=float, default=5.0)
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
