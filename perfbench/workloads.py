"""Workload definitions, seeded inputs, and the correctness pins.

A workload is a sequence of operations run in fresh processes: a CLI
invocation of ``python -m repro`` (through ``child.py``), public-API
searches, or serve jobs.  ``--seed`` only draws the serve job order from a
fixed pool (the network command and the exhaustive search have none),
so every seed does the same work and the results can be pinned exactly.

Pins (``pins.json``) are recorded with ``records.py pins`` and hold
what a performance change must not move: each winner's mapping digest,
its energy/cycles/EDP bit for bit, the certificate lower bound, and the
candidates considered (evaluated + bound-skipped).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"
RESNET18 = "configs/resnet18.json"

# Fig. 6 shapes of benchmarks/bench_fig6_nondnn.py in the serve pool:
# FROSTT MTTKRP (rank 32) and TTMc (rank 8), SuiteSparse SDDMM (rank 512).
FIG6_SHAPES = {
    "mttkrp_nell2": ("mttkrp", {"I": 12092, "K": 9184, "L": 28818, "J": 32}),
    "mttkrp_poisson1": ("mttkrp", {"I": 1024, "K": 1024, "L": 1024, "J": 32}),
    "ttmc_netflix": ("ttmc", {"I": 480189, "J": 17770, "K": 2182, "L": 8,
                              "M": 8}),
    "ttmc_poisson1": ("ttmc", {"I": 1024, "J": 1024, "K": 1024, "L": 8,
                               "M": 8}),
    "sddmm_bcsstk17": ("sddmm", {"I": 10974, "J": 10974, "K": 512}),
    "sddmm_cant": ("sddmm", {"I": 62451, "J": 62451, "K": 512}),
}

# The bench_bound exhaustive rows over tiny(l1_words=64, l2_words=512,
# pes=4) with orders_per_level=2: library builder and its arguments.
EXHAUSTIVE_CASES = {
    "mttkrp": ("mttkrp", (8, 8, 4, 8)),
    "conv1d": ("conv1d", (8, 8, 16, 3)),
}
# The exhaustive rows a resnet18_bnb pass runs: MTTKRP alone (~10 s,
# 86% of its candidates bound-skipped); with conv1d (~15 s) too, a run
# would hold two passes.  Both rows stay pinned and in the ablation.
EXHAUSTIVE_RUN = ["mttkrp"]

# serve_mixed: a fixed pool of schedule specs (ResNet-18 layers by name,
# Fig. 6 shapes by label) over both accelerators, each submitted
# SERVE_REPEATS times in a seeded order.
SERVE_POOL = [
    ("conventional", "conv3_x"), ("conventional", "conv5_1"),
    ("conventional", "fc1000"), ("conventional", "mttkrp_poisson1"),
    ("conventional", "ttmc_netflix"), ("conventional", "sddmm_bcsstk17"),
    ("diannao", "conv1"), ("diannao", "conv2_x"), ("diannao", "conv4_x"),
    ("diannao", "mttkrp_nell2"), ("diannao", "ttmc_poisson1"),
    ("diannao", "sddmm_cant"),
]
SERVE_REPEATS = 2
# One client and one pool worker.  With two busy workers beside the
# daemon and the clients, a 2-vCPU host's wall_s spread 0.27 of the
# median over runs; with two clients sharing one worker, which jobs
# queued behind which changed with the seed, and latency_p50_s spread
# 0.19.
SERVE_CLIENTS = 1
SERVE_WORKERS = 1


def resnet_argv(stats_path: str, arch: str = "diannao") -> list[str]:
    return ["network", RESNET18, "--arch", arch, "--stats-json", stats_path]


def serve_plan(seed: int) -> list[list[tuple[str, str]]]:
    """Per-client job lists: the pool repeated, shuffled, dealt round
    robin, so each client's closed loop gets a seeded share."""
    jobs = SERVE_POOL * SERVE_REPEATS
    random.Random(seed).shuffle(jobs)
    return [jobs[i::SERVE_CLIENTS] for i in range(SERVE_CLIENTS)]


def serve_key(arch: str, name: str) -> str:
    return f"{arch}/{name}"


# ---------------------------------------------------------------------------
# winners and pins
# ---------------------------------------------------------------------------

def mapping_digest(mapping_doc: dict) -> str:
    """Digest of a mapping document's loop nest (the decisions, not the
    workload and architecture it was made for)."""
    text = json.dumps(mapping_doc["levels"], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def winner(mapping_doc: dict, cost: dict, evaluations: int,
           search: dict | None, certificate: dict | None) -> dict:
    """The pinned view of one search outcome."""
    bound = (search or {}).get("bound") or {}
    row = {"digest": mapping_digest(mapping_doc),
           "energy_pj": cost["energy_pj"], "cycles": cost["cycles"],
           "edp": cost["edp"],
           "candidates": evaluations + bound.get("candidates_skipped", 0)}
    if certificate and certificate.get("lower_bound") is not None:
        row["lower_bound"] = certificate["lower_bound"]
    return row


def network_winners(stats: dict) -> dict:
    """Totals and per-layer winners from ``repro network --stats-json``."""
    search = stats["search"]
    totals = stats["totals"]
    return {
        "totals": {key: totals[key] for key in
                   ("energy_pj", "cycles", "edp", "unique_searches")},
        # evaluated + bound-skipped summed over the unique searches.
        "candidates": (search["requests"]
                       + search["bound"]["candidates_skipped"]),
        "layers": [{"layer": layer["layer"],
                    "digest": mapping_digest(layer["mapping"]),
                    "energy_pj": layer["cost"]["energy_pj"],
                    "cycles": layer["cost"]["cycles"],
                    "edp": layer["cost"]["edp"]}
                   for layer in stats["layers"]],
    }


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_winner(label: str, got: dict, pin: dict | None) -> list[str]:
    """Mismatches of one outcome against its pin, plus the certificate
    invariant (lower bound <= best value)."""
    if pin is None:
        return [f"{label}: no pin recorded"]
    problems = [f"{label}: {key} {got.get(key)!r} != pinned {value!r}"
                for key, value in pin.items()
                if key in got and got[key] != value]
    problems += [f"{label}: {key} missing" for key in pin
                 if key not in got]
    lower = got.get("lower_bound")
    if lower is not None and not lower <= got["edp"]:
        problems.append(f"{label}: lower bound {lower!r} > best "
                        f"{got['edp']!r}")
    return problems
