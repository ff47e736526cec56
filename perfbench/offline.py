"""offline-train: `.trc` corpus on disk to three trained models scored on a held-out split."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from warden import features, records
from warden.ml import MlpClassifier, RnnClassifier, SvmClassifier, auc_score, group_mean_scores
from warden.ml import data as mdata

from checks import RawTrace, all_pairs_auc, require
from common import gen_corpus, manifest_traces, median, rate

TRAIN_FRAC = 0.7


@dataclass(frozen=True)
class Sizes:
    # 60-s traces and the first 128 syscalls per RNN sequence keep a round near 3 s, so that a
    # 20-s run holds six rounds or more and its median round is steady on a noisy machine
    duration_s: float = 60.0
    per_profile: int = 2
    rnn_epochs: int = 30
    t_max: int = 128
    quality_per_profile: int = 3  # traces per profile of the quality corpus, scored untimed
    setups: int = 5
    min_rounds: int = 1


TINY = Sizes(duration_s=30.0, per_profile=1, rnn_epochs=2, quality_per_profile=1, setups=1)


@dataclass
class Models:
    dataset: mdata.Dataset
    vectors: list
    sequences: mdata.SequenceDataset
    test_groups: tuple
    trace_scores: dict  # model kind -> (scores, labels) per held-out trace
    window_scores: list  # every probability the models produced
    fitted: dict  # model kind -> fitted model, and "scaler"


def _concat(parts_ds, parts_seq, hash_dim):
    """Join per-profile datasets; job ids repeat across profiles, so groups get the profile prefix."""
    X = np.vstack([ds.X for _, ds in parts_ds])
    y = np.concatenate([ds.y for _, ds in parts_ds])
    groups = tuple(f"{p}/{g}" for p, ds in parts_ds for g in ds.groups)
    seqs = tuple(s for _, sq in parts_seq for s in sq.sequences)
    sy = np.concatenate([sq.y for _, sq in parts_seq])
    sgroups = tuple(f"{p}/{g}" for p, sq in parts_seq for g in sq.groups)
    return mdata.Dataset(X, y, groups), mdata.SequenceDataset(seqs, sy, sgroups, vocab=hash_dim)


def _trace_auc(scores, dataset):
    _, means, labels = group_mean_scores(scores, dataset.y, dataset.groups)
    return means, labels


class OfflineTrain:
    name = "offline-train"

    def __init__(self, workdir, seed: int, sizes: Sizes = Sizes()):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.config = features.FeatureConfig()
        self.parts: list = []
        self.reference: dict | None = None
        self.corpus_records = 0

    # --- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        s = self.sizes
        self.parts = gen_corpus(os.path.join(self.workdir, "corpus"), self.seed, "offline", s.per_profile, s.duration_s)

    def prepare(self) -> None:
        """Read every trace with plain json, for the checks, and build the quality corpus (not timed).

        The held-out split of a round has one normal and two malicious traces,
        too few for a trace AUC that can move; the models are also scored on a
        larger corpus of their own seed, so a loss of accuracy shows.
        """
        self.raw = {}
        for profile, _, manifest in self.parts:
            for job_id, path in manifest_traces(manifest):
                self.raw[f"{profile}/{job_id}"] = (RawTrace(path), path)
        self.corpus_records = sum(raw.records for raw, _ in self.raw.values())
        s, cfg = self.sizes, self.config
        self.quality_parts = gen_corpus(
            os.path.join(self.workdir, "quality"), self.seed, "offline-quality", s.quality_per_profile, s.duration_s
        )
        self.quality_set = _concat(
            [(p, mdata.build_feature_dataset(m, cfg)[0]) for p, _, m in self.quality_parts],
            [(p, mdata.build_sequence_dataset(m, cfg, t_max=s.t_max)) for p, _, m in self.quality_parts],
            cfg.hash_dim,
        )

    # --- one round ---------------------------------------------------------------

    def round(self, index: int) -> Models:
        cfg, s = self.config, self.sizes
        parts_ds, vectors = [], []
        for profile, _, manifest in self.parts:
            ds, vecs = mdata.build_feature_dataset(manifest, cfg)
            parts_ds.append((profile, ds))
            vectors.extend((profile, v) for v in vecs)
        parts_seq = [(p, mdata.build_sequence_dataset(m, cfg, t_max=s.t_max)) for p, _, m in self.parts]
        dataset, sequences = _concat(parts_ds, parts_seq, cfg.hash_dim)

        train, test = mdata.split(dataset, TRAIN_FRAC, self.seed)
        seq_train, seq_test = mdata.split(sequences, TRAIN_FRAC, self.seed)
        scaler = features.Scaler().fit(train.X)
        X_train, X_test = scaler.transform(train.X), scaler.transform(test.X)
        svm = SvmClassifier(seed=self.seed).fit(X_train, train.y)
        mlp = MlpClassifier(seed=self.seed).fit(X_train, train.y)
        rnn = RnnClassifier(seed=self.seed, vocab=cfg.hash_dim, epochs=s.rnn_epochs, t_max=s.t_max)
        rnn.fit(seq_train.sequences, seq_train.y)

        svm_p, mlp_p, rnn_p = svm.proba(X_test), mlp.proba(X_test), rnn.proba(seq_test.sequences)
        return Models(
            dataset=dataset,
            vectors=vectors,
            sequences=sequences,
            test_groups=tuple(sorted(set(test.groups))),
            trace_scores={
                "svm": _trace_auc(svm_p, test),
                "mlp": _trace_auc(mlp_p, test),
                "rnn": (rnn_p, seq_test.y),
            },
            window_scores=[svm_p, mlp_p, rnn_p],
            fitted={"scaler": scaler, "svm": svm, "mlp": mlp, "rnn": rnn},
        )

    def ops(self, models: Models) -> tuple[int, int]:
        return 1, 0

    # --- quality and checks (not timed) ---------------------------------------------

    def quality_scores(self, models: Models) -> dict:
        """Trace scores on the quality corpus: each model of the round, and leave-one-profile-out MLPs.

        A leave-one-profile-out MLP is trained on the round's training split
        without one malicious profile and scored on the quality corpus's
        normal traces and its traces of that profile.
        """
        dataset, sequences = self.quality_set
        fitted = models.fitted
        X = fitted["scaler"].transform(dataset.X)
        out = {kind: _trace_auc(fitted[kind].proba(X), dataset) for kind in ("svm", "mlp")}
        out["rnn"] = (fitted["rnn"].proba(sequences.sequences), sequences.y)
        models.window_scores.extend(scores for scores, _ in out.values())

        train_set, groups = models.dataset, np.array(models.dataset.groups)
        train_profiles = np.array([g.split("/", 1)[0] for g in groups])
        in_train = ~np.isin(groups, models.test_groups)
        test_profiles = np.array([g.split("/", 1)[0] for g in dataset.groups])
        for profile, label, _ in self.parts:
            if label != "malicious":
                continue
            train = train_set.subset(np.flatnonzero(in_train & (train_profiles != profile)))
            test = dataset.subset(np.flatnonzero((dataset.y == 0) | (test_profiles == profile)))
            scaler = features.Scaler().fit(train.X)
            mlp = MlpClassifier(seed=self.seed).fit(scaler.transform(train.X), train.y)
            scores = mlp.proba(scaler.transform(test.X))
            models.window_scores.append(scores)
            out[f"lopo:{profile}"] = _trace_auc(scores, test)
        return out

    def check(self, index: int, models: Models) -> None:
        cfg = self.config
        quality = self.quality_scores(models)
        named = [(f"held-out:{k}", v) for k, v in models.trace_scores.items()] + list(quality.items())
        aucs = {}
        for kind, (scores, labels) in named:
            auc = auc_score(scores, labels)
            require(auc is not None and abs(auc - all_pairs_auc(list(scores), list(labels))) <= 1e-12,
                    f"{kind}: auc_score {auc} differs from the all-pairs AUC")
            aucs[kind] = auc
        for scores in models.window_scores:
            require(bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
                    "a model score is not finite or lies outside [0, 1]")
        if self.reference is not None:
            require(aucs == self.reference, f"round {index}: AUCs differ from round 0 on the same corpus")
            return
        self.reference = aucs

        ngram = models.dataset.X[:, : cfg.hash_dim].sum(axis=1)
        require(bool(np.all(np.abs(ngram - 1.0) <= 1e-9)), "an n-gram block does not sum to 1")
        windows: dict[str, list[int]] = {}
        for profile, vec in models.vectors:
            windows.setdefault(f"{profile}/{vec.job_id}", []).append(vec.window_index)
        lengths = dict(zip(models.sequences.groups, (len(s) for s in models.sequences.sequences)))
        for group, (raw, path) in self.raw.items():
            require(len(records.read_trace_file(path)) == raw.records, f"{group}: record count != line count")
            expected = [k for k, _, _ in raw.windows(cfg.window_s, cfg.hop_s)]
            require(windows.get(group) == expected, f"{group}: windows {windows.get(group)} != {expected}")
            require(lengths[group] == min(self.sizes.t_max, raw.enters), f"{group}: sequence length != min(t_max, enters)")

    def quality(self) -> dict:
        lopo = [v for k, v in self.reference.items() if k.startswith("lopo:")]
        return {
            "quality.svm_trace_auc": self.reference["svm"],
            "quality.mlp_trace_auc": self.reference["mlp"],
            "quality.rnn_trace_auc": self.reference["rnn"],
            "quality.lopo_trace_auc": sum(lopo) / len(lopo),
        }

    # --- metrics -------------------------------------------------------------------

    def end_to_end(self, rounds) -> dict:
        seconds = [s for s, _ in rounds]
        return {
            "throughput_per_s": self.corpus_records * len(seconds) / sum(seconds),
            "latency_p50_ms": median(seconds) * 1e3,
        }

    def per_layer(self, tracer, mark: int, rounds: int, setup_mark: int, plain) -> dict:
        t = tracer
        traces = len(self.raw)
        parse_s = t.total_s("records.read_trace_file", mark)
        extract_s = t.total_s("features.extract", mark)
        rnn_s = t.total_s("ml.rnn.fit", mark)
        gen_s = t.total_s("datagen.gen_dataset", setup_mark)
        out = {
            "datagen.gen_dataset_s": gen_s,
            "datagen.records_per_s": rate(t.count("datagen.gen_trace", setup_mark), gen_s),
            "records.parse_s": parse_s / rounds,
            "records.parse_records_per_s": rate(t.count("records.read_trace_file", mark), parse_s),
            "records.parses_per_trace": len(t.named("records.read_trace_file", mark)) / rounds / traces,
            "features.extract_s": extract_s / rounds,
            "features.windows_per_s": rate(t.count("features.extract", mark), extract_s),
            "features.windows": t.count("features.extract", mark) / rounds,
            "features.scaler_s": t.total_s("features.scaler", mark) / rounds,
            "ml.data.build_feature_dataset_self_s": t.self_s("ml.data.build_feature_dataset", mark) / rounds,
            "ml.data.build_sequence_dataset_self_s": t.self_s("ml.data.build_sequence_dataset", mark) / rounds,
            "ml.data.sequence_tokens": t.count("ml.data.trace_token_ids", mark) / rounds,
            "ml.svm.fit_s": t.total_s("ml.svm.fit", mark) / rounds,
            "ml.mlp.fit_s": t.total_s("ml.mlp.fit", mark) / rounds,
            "ml.rnn.fit_s": rnn_s / rounds,
            "ml.rnn.token_steps_per_s": rate(t.count("ml.rnn.fit", mark), rnn_s),
            "ml.predict_s": t.total_s("ml.predict", mark) / rounds,
        }
        out.update(self.quality())
        return out

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

