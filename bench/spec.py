"""What the benchmark runs and what it reports.

Each workload turns the benchmark seed into a ``tourmat`` argv: the seed
picks the program seed for Monte Carlo and the weights (or the repeated
weight z) for the exhaustive runs, so the program receives only generated
inputs.  ``DIGESTS`` pins the SHA-256 of every workload's report bytes at
``DEFAULT_SEED`` and full size; a deliberate change of report bytes must
update them and say so.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # the experiments function the CLI calls; set-up ends at its call
    argv: Callable[[int, bool], list]  # (seed, tiny) -> tourmat argv
    items: Callable[[bytes], int]  # items completed, read back from the report


def _draw(name: str, seed: int) -> int:
    """64 bits derived from (workload, seed); the only source of workload inputs."""
    digest = hashlib.sha256(f"tourmat-bench|{name}|{seed}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _cycling(n: int) -> str:
    return ",".join("1" if k % 2 == 0 else "2" for k in range(n))


def _montecarlo(name, field, n, samples, tiny_n, tiny_samples):
    def argv(seed, tiny):
        size = tiny_n if tiny else n
        return ["montecarlo", "--n", str(size), "--samples", str(tiny_samples if tiny else samples),
                "--field", field, "--seq", _cycling(size), "--seed", str(_draw(name, seed)),
                "--workers", "1"]
    return argv


def _json_summary(report: bytes) -> dict:
    return json.loads(report)["summary"]


def _exhaust_argv(seed, tiny):
    n = 4 if tiny else 6
    bits = _draw("exhaust-gf3-n6", seed)
    weights = ",".join(str(1 + (bits >> k & 1)) for k in range(n))
    return ["minrank", "--n", str(n), "--field", "GF(3)", "--seq", weights,
            "--format", "csv", "--seed", "0", "--workers", "1"]


def _certify_argv(seed, tiny):
    z = 1 + _draw("certify-q-n5", seed) % 9
    return ["verify", "--theorem", "certify", "--n-max", "3" if tiny else "5",
            "--field", "Q", "--z", str(z), "--seed", "0", "--workers", "1"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc-q-n50",
        "Monte Carlo n=50 over Q with 1,2 weights: Bareiss plus Fraction clearing is "
        "almost all of the time, so it isolates the Q elimination kernel",
        "montecarlo_rank",
        _montecarlo("mc-q-n50", "Q", 50, 20, 8, 2),
        lambda report: sum(_json_summary(report)["rank_histogram"].values()),
    ),
    Workload(
        "mc-gf3-n400",
        "Monte Carlo n=400 over GF(3): the numpy mod-p kernel and the per-entry matrix "
        "builder share the time, and the Q path is bypassed",
        "montecarlo_rank",
        _montecarlo("mc-gf3-n400", "GF(3)", 400, 1, 12, 1),
        lambda report: sum(_json_summary(report)["rank_histogram"].values()),
    ),
    Workload(
        "exhaust-gf3-n6",
        "minrank over all 32768 tournaments on 6 vertices over GF(3) with CSV output: "
        "per-call overhead, held records and report serialization dominate",
        "minrank_exhaustive",
        _exhaust_argv,
        lambda report: report.count(b"\n") - 1,
    ),
    Workload(
        "certify-q-n5",
        "verify --theorem certify --n-max 5 over Q: leading principal minors by "
        "determinant instead of rank, with per-(n, s) aggregates only",
        "verify_certifiability",
        _certify_argv,
        lambda report: _json_summary(report)["checks"],
    ),
)}

# SHA-256 of the report bytes at DEFAULT_SEED and full size.
DIGESTS = {
    "mc-q-n50": "cb201f76be52da96b4889037ef32144cc422a8e241711e7786a7472e27c86549",
    "mc-gf3-n400": "1739c9cafab591b75766a3e657213d05b9f8cf0c4cd37fff7bef8e1c6963d01f",
    "exhaust-gf3-n6": "a501b73081cf057d4ce36b121cbf7728a5784cdc234261439816ea9c2328809a",
    "certify-q-n5": "5545ac508b8f53e5e33b0131b13b2087061c2778320de656cdef35267181993f",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: tuple = ()  # end-to-end metrics a change to this layer should move


# fail_frac is 0 on a healthy run, and a metric that reads 0 has no relative
# spread, so the result line carries its complement ok_frac; the human-readable
# lines print fail_frac itself.
END_TO_END = (
    Metric("items_per_s", "1/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mib", "MiB", "lower"),
    Metric("ok_frac", "ratio", "higher"),
)

PER_LAYER = (
    Metric("rank.calls", "count", "lower", ("items_per_s",)),
    Metric("rank.busy_s", "s", "lower", ("items_per_s",)),
    Metric("rank.self_s", "s", "lower", ("items_per_s",)),
    Metric("rank.ops_computed", "ops", "lower", ("items_per_s",)),
    Metric("rank.full_rank_frac", "ratio", "higher"),
    Metric("rank.det_calls", "count", "lower", ("items_per_s",)),
    Metric("rank.det_busy_s", "s", "lower", ("items_per_s",)),
    Metric("rank.dets_per_check", "ratio", "lower", ("items_per_s",)),
    Metric("matrices.builds", "count", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("matrices.busy_s", "s", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("matrices.self_s", "s", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("matrices.raw_rows_s", "s", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("matrices.submatrix_s", "s", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("experiments.self_s", "s", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("experiments.records_held", "count", "lower", ("items_per_s", "peak_rss_mib")),
    Metric("report.busy_s", "s", "lower", ("items_per_s",)),
    Metric("report.self_s", "s", "lower", ("items_per_s",)),
    Metric("report.bytes", "bytes", "lower", ("items_per_s",)),
    Metric("tournaments.calls", "count", "lower", ("items_per_s",)),
    Metric("tournaments.busy_s", "s", "lower", ("items_per_s",)),
    Metric("tournaments.self_s", "s", "lower", ("items_per_s",)),
    Metric("rng.busy_s", "s", "lower", ("items_per_s",)),
    Metric("rng.self_s", "s", "lower", ("items_per_s",)),
    Metric("rng.bytes", "bytes", "lower", ("items_per_s",)),
    Metric("cli.self_s", "s", "lower", ("setup_s",)),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.spans", "count", "lower"),
)
