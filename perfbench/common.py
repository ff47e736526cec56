"""Input generation and statistics shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics

from warden import datagen
from warden.hashing import derive_tagged_seed


def profile_labels() -> dict[str, str]:
    return {p.name: p.label for p in datagen.builtin_profiles()}


def gen_corpus(out_dir, seed: int, tag: str, per_profile: int, duration_s: float) -> list[tuple[str, str, str]]:
    """One ``gen_dataset`` call per profile, so every seed gives the same profile mix.

    A single call draws each trace's profile at random, which would make the
    amount of work depend on the seed. Returns (profile, label, manifest path)
    per profile, in profile order; each sub-corpus has its own directory.
    """
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    parts = []
    for profile, label in profile_labels().items():
        spec = datagen.ScenarioSpec(
            n_normal=per_profile if label == "normal" else 0,
            n_malicious=per_profile if label == "malicious" else 0,
            duration_s=duration_s,
            seed=derive_tagged_seed(seed, f"{tag}/{profile}"),
            profile_mix={profile: 1.0},
        )
        directory = os.path.join(out_dir, profile)
        datagen.gen_dataset(spec, directory)
        parts.append((profile, label, os.path.join(directory, "manifest.json")))
    return parts


def manifest_traces(manifest_path) -> list[tuple[str, str]]:
    """(job_id, trace path) for every entry of a manifest."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(manifest_path)
    return [(e["job_id"], os.path.join(base, e["file"])) for e in manifest["entries"]]


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)])


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
