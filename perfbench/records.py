"""One-off records: correctness pins and the accelerator ablation.

Run from the repository root::

    python3 perfbench/records.py pins       # rewrite perfbench/pins.json
    python3 perfbench/records.py ablation   # rewrite perfbench/ablation.json

Pins are recorded from the code as it stands; re-record them only when
a change is meant to move a winner or a candidates-considered count.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

from run import WORK, check_layout, run_child, run_pass, traced_metrics
from workloads import (
    EXHAUSTIVE_CASES,
    FIG6_SHAPES,
    HERE,
    PINS_PATH,
    ROOT,
    SERVE_POOL,
    load_pins,
    network_winners,
    resnet_argv,
    serve_key,
    winner,
)

ABLATION_PATH = HERE / "ablation.json"
ABLATION_ROUNDS = 3


def _ok(proc: dict) -> dict:
    """``proc`` itself, once it has exited 0."""
    if proc["exit_code"] != 0:
        raise RuntimeError(f"child exited {proc['exit_code']}: see "
                           f"{proc['log']}")
    return proc


def record_pins() -> int:
    """Record pins.json from the code as it stands (cold CLI runs, plus
    traced runs for the per-search certificate of network layers)."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"pins-{os.getpid()}"
    work.mkdir()
    pins: dict = {"resnet18_network": {}, "exhaustive_bnb": {},
                  "serve": {}}
    searches_by_arch = {}
    for arch in ("diannao", "conventional"):
        stats_path = work / f"network-{arch}.stats.json"
        proc = run_child({"mode": "cli", "trace": True, "run_id": arch,
                          "argv": resnet_argv(str(stats_path), arch)},
                         work, f"network-{arch}")
        _ok(proc)
        stats = json.loads(stats_path.read_text())
        got = network_winners(stats)
        unique = [layer for layer in stats["layers"]
                  if layer["shared_with"] is None]
        rows = proc["out"]["scheduler"]
        if len(rows) != len(unique):
            raise RuntimeError("traced searches do not match the "
                               "network's unique layers")
        got["searches"] = [
            {"layer": layer["layer"], "candidates": row["candidates"],
             "lower_bound": row["lower_bound"]}
            for layer, row in zip(unique, rows)]
        searches_by_arch[arch] = got
        if arch == "diannao":
            pins["resnet18_network"] = got
    proc = run_child({"mode": "exhaustive", "run_id": "pins",
                      "cases": list(EXHAUSTIVE_CASES)}, work, "exh")
    _ok(proc)
    pins["exhaustive_bnb"] = {case["case"]: case["winner"]
                              for case in proc["out"]["cases"]}
    for arch, name in SERVE_POOL:
        key = serve_key(arch, name)
        if name in FIG6_SHAPES:
            kind, dims = FIG6_SHAPES[name]
            stats_path = work / f"serve-{arch}-{name}.stats.json"
            argv = ["schedule", "--workload", kind,
                    *[f"{d}={v}" for d, v in dims.items()],
                    "--arch", arch, "--stats-json", str(stats_path)]
            proc = run_child({"mode": "cli", "run_id": key,
                              "argv": argv}, work, f"serve-{name}")
            _ok(proc)
            stats = json.loads(stats_path.read_text())
            pins["serve"][key] = winner(
                stats["mapping"], stats["cost"], stats["evaluations"],
                stats["search"], stats["certificate"])
        else:
            got = searches_by_arch[arch]
            layer = next(row for row in got["layers"]
                         if row["layer"] == name)
            search = next(row for row in got["searches"]
                          if row["layer"] == name)
            pins["serve"][key] = dict(
                {k: layer[k] for k in
                 ("digest", "energy_pj", "cycles", "edp")},
                candidates=search["candidates"],
                lower_bound=search["lower_bound"])
    shutil.rmtree(work)
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pins written to {PINS_PATH.relative_to(ROOT)}")
    return 0


def ablation() -> int:
    """Per accelerator toggle of the two processes of resnet18_bnb (the
    network command; both exhaustive rows, MTTKRP and conv1d):
    ABLATION_ROUNDS untraced passes interleaved across the variants (so
    host speed drift hits every variant alike) and one traced pass.
    Informational: nothing gates on it."""
    variants = {
        "resnet18_network": {"default": [], "--no-bound": ["--no-bound"],
                             "--no-batch": ["--no-batch"],
                             "--no-batch-gen": ["--no-batch-gen"]},
        "exhaustive_bnb": {"default": {}, "bound=False": {"bound": False},
                           "batch=False": {"batch": False},
                           "batch_gen=False": {"batch_gen": False}},
    }
    pins = load_pins()
    # Without the bound there is no certificate to compare.
    unbounded = json.loads(json.dumps(pins))
    for row in unbounded["exhaustive_bnb"].values():
        row.pop("lower_bound")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"ablation-{os.getpid()}"
    work.mkdir()
    record = {"host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "rounds": ABLATION_ROUNDS, "rows": {}}
    for workload, table in variants.items():
        samples = {name: [] for name in table}
        problems = {name: [] for name in table}
        for _ in range(ABLATION_ROUNDS):
            for name, extra in table.items():
                plain = run_pass(
                    workload, 0, work, "plain",
                    unbounded if name == "bound=False" else pins,
                    extra=extra, cases=list(EXHAUSTIVE_CASES))
                samples[name].append(plain["wall_s"])
                problems[name] += plain["problems"]
        for name, extra in table.items():
            traced = run_pass(
                workload, 0, work, "traced",
                unbounded if name == "bound=False" else pins,
                trace=True, extra=extra, cases=list(EXHAUSTIVE_CASES))
            layers, ledger = traced_metrics(
                traced, statistics.median(samples[name]))
            record["rows"][f"{workload} {name}"] = {
                "wall_s": statistics.median(samples[name]),
                "wall_s_samples": samples[name],
                "ledger": ledger,
                "counters": {k: layers[k] for k in (
                    "engine.requests", "engine.misses",
                    "bounds.calls", "bounds.skipped",
                    "scheduler.candidates")},
                "check_problems": problems[name] + traced["problems"]}
            print(f"{workload} {name}: wall_s median "
                  f"{statistics.median(samples[name]):.2f} of "
                  f"{[round(x, 2) for x in samples[name]]}, "
                  f"{len(problems[name])} check problem(s)", flush=True)
    shutil.rmtree(work)
    ABLATION_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"ablation written to {ABLATION_PATH.relative_to(ROOT)}")
    return 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"



def main(argv=None) -> int:
    what = (argv if argv is not None else sys.argv[1:])
    if what not in (["pins"], ["ablation"]):
        print("usage: records.py pins|ablation", file=sys.stderr)
        return 2
    check_layout(pins=what == ["ablation"])
    return record_pins() if what == ["pins"] else ablation()


if __name__ == "__main__":
    sys.exit(main())
