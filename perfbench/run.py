"""End-to-end benchmark of the Sunstone reproduction, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

(``records.py`` re-records the pins and the one-off ablation.)

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``resnet18_bnb`` -- two processes a pass: ``repro network
  configs/resnet18.json --arch diannao`` (Sunstone generation, bound
  that costs), then ``exhaustive_search`` (bound on) on the bench_bound
  MTTKRP row (no generation, bound that pays);
* ``serve_mixed`` -- ``repro serve --workers 1`` under one closed-loop
  client submitting a seeded order of schedule jobs.

The two processes of ``resnet18_bnb`` were separate workloads; on this
2-vCPU host their 40-second runs spread too wide (``fig6_nondnn``,
eight ``repro compare --mappers timeloop`` processes, was dropped for
the same reason), so they share longer runs.  The per-layer ledger
still separates them.

A latency sample is one search: a unique-layer Sunstone search of the
network command, one exhaustive search, or one serve job (submit to
result).  ``jobs_per_s`` is completed searches per second of the
passes' wall time.  ``wall_s`` is the wall time of a typical pass (see
:func:`typical_wall`).

An untraced run (``--trace 0``) repeats the workload for as many passes
as fit in ``--seconds`` at a nominal pass time (at least one; a fixed
count, so every run pools the same latency samples), samples set-up in
extra processes that exit at the first call into the search layer, checks
every result against the pins, and prints the end-to-end metrics.  A
traced run (``--trace 1``) makes one untraced pass and one traced pass,
writes ``.perfbench/ledger_<workload>.json`` (per-layer self time plus
an explicit ``unattributed_s``, summing to the traced ``wall_s``) and
Chrome traces ``.perfbench/trace_<workload>.*.json``, and prints the
per-layer metrics, including the tracing overhead (traced minus
untraced ``wall_s``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (operations: CLI invocations, API searches, serve jobs;
a nonzero exit, a result that differs from its pin, a job not ``done``
and any HTTP error count as failed), and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from serve_mix import reap
from workloads import (
    EXHAUSTIVE_RUN,
    HERE,
    PINS_PATH,
    ROOT,
    check_winner,
    load_pins,
    network_winners,
    resnet_argv,
    serve_plan,
)

WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 120.0
# Extra set-up samples per run (processes that exit at the first call
# into the search layer; serve: extra daemon start/stop cycles).
SETUP_PROBES = {"resnet18_bnb": 4, "serve_mixed": 1}
# Pinned operation kinds run, in order, by each pass of a CLI/API
# workload.
PASS_OPS = {"resnet18_bnb": ("resnet18_network", "exhaustive_bnb")}
SERVE_POLL_S = 0.2
# Nominal seconds of one pass (2-vCPU Xeon VM, Python 3.11): a run makes
# ``seconds // NOMINAL_PASS_S`` passes, whatever the host's speed.
NOMINAL_PASS_S = {"resnet18_bnb": 20.0, "serve_mixed": 25.0}

# Search counters summed from SearchStats documents.
_SEARCH_KEYS = ("requests", "cache_misses", "partial_hits",
                "partial_requests")
_BOUND_KEYS = ("regions_tested", "regions_pruned", "candidates_skipped")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(request: dict, work: Path, tag: str) -> dict:
    """Spawn ``child.py`` for one request and reap it with ``os.wait4``
    (``ru_maxrss`` of this process alone, not a running maximum)."""
    request = dict(request, out=str(work / f"{tag}.out.json"))
    request_path = work / f"{tag}.request.json"
    request_path.write_text(json.dumps(request))
    with open(work / f"{tag}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(request_path)], cwd=ROOT,
            env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        code, rss_mb = reap(proc, CHILD_TIMEOUT_S)
        ended = time.monotonic()
    out_path = Path(request["out"])
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    setup = out.get("setup_mark")
    return {"wall_s": ended - spawned, "exit_code": code, "rss_mb": rss_mb,
            "setup_s": setup - spawned if setup is not None else None,
            "out": out, "log": str(work / f"{tag}.log")}


# ---------------------------------------------------------------------------
# CLI / API workloads
# ---------------------------------------------------------------------------

def operations(workload: str, work: Path, tag: str,
               extra: list | dict | None = None,
               cases: list[str] = EXHAUSTIVE_RUN) -> list[dict]:
    """The processes of one pass, in order: kind (its pins), label,
    request, stats.  A kind alone (``resnet18_network``,
    ``exhaustive_bnb``) is a one-process pass, as the ablation runs."""
    ops = []
    for kind in PASS_OPS.get(workload, (workload,)):
        if kind == "resnet18_network":
            stats = str(work / f"{tag}.network.stats.json")
            ops.append({"kind": kind, "label": "network", "stats": stats,
                        "request": {"mode": "cli", "argv":
                                    resnet_argv(stats) + (extra or [])}})
        else:
            ops.append({"kind": kind, "label": "exhaustive", "stats": None,
                        "request": {"mode": "exhaustive", "cases": cases,
                                    "flags": extra or {}}})
    return ops


def check_op(op: dict, proc: dict, pins: dict) -> dict:
    """Winners, search counters, latencies and problems of one process
    (the exhaustive searches, or the network command)."""
    label, kind = op["label"], op["kind"]
    result = {"problems": [], "searches": [], "latencies": [],
              "ops": 1, "failed": 0, "stats": None}
    if proc["exit_code"] != 0:
        result["problems"].append(
            f"{label}: exit code {proc['exit_code']} (log {proc['log']})")
    if kind == "exhaustive_bnb":
        expected = op["request"]["cases"]
        result["ops"] = len(expected)
        good = 0
        for case in proc["out"].get("cases", []):
            found = check_winner(f"exhaustive {case['case']}",
                                 case["winner"],
                                 pins[kind].get(case["case"]))
            result["problems"] += found
            result["searches"].append(case["search"])
            if not found:
                good += 1
                result["latencies"].append(case["latency_s"])
        if good < len(expected):
            result["problems"].append(
                f"exhaustive: {len(expected) - good} of {len(expected)} "
                f"searches missing or wrong")
        result["failed"] = max(len(expected) - good,
                               int(bool(result["problems"])))
        return result
    try:
        stats = json.loads(Path(op["stats"]).read_text())
    except (OSError, ValueError) as error:
        result["problems"].append(f"{label}: no stats ({error})")
        result["failed"] = 1
        return result
    result["stats"] = stats
    pin = pins[kind]
    got = network_winners(stats)
    result["searches"].append(stats["search"])
    searched = proc["out"].get("search_s", [])
    for key in ("totals", "candidates"):
        if got[key] != pin[key]:
            result["problems"].append(
                f"network {key} {got[key]!r} != pinned {pin[key]!r}")
    if len(got["layers"]) != len(pin["layers"]):
        result["problems"].append("network: layer count differs")
    for layer, layer_pin in zip(got["layers"], pin["layers"]):
        result["problems"] += check_winner(
            f"network {layer['layer']}", layer, layer_pin)
    # Traced runs also see each unique search's certificate.
    traced = proc["out"].get("scheduler")
    if traced is not None and len(traced) != len(pin["searches"]):
        result["problems"].append("network: unique search count differs")
    for row, row_pin in zip(traced or [], pin["searches"]):
        row = {"candidates": row["candidates"],
               "lower_bound": row["lower_bound"], "edp": row["edp"]}
        result["problems"] += check_winner(
            f"network search {row_pin['layer']}", row,
            {k: row_pin[k] for k in ("candidates", "lower_bound")})
    if len(searched) != pin["totals"]["unique_searches"]:
        result["problems"].append(
            f"network: {len(searched)} searches timed, "
            f"{pin['totals']['unique_searches']} pinned")
    if result["problems"]:
        result["failed"] = 1
    else:
        result["latencies"] += searched
    return result


def run_pass(workload: str, seed: int, work: Path, tag: str, pins: dict,
             trace: bool = False, extra=None,
             cases: list[str] = EXHAUSTIVE_RUN) -> dict:
    """One pass over the workload's processes."""
    passed = {"wall_s": 0.0, "setup": [], "rss_mb": 0.0, "latencies": [],
              "segments": [], "ops": 0, "failed": 0, "problems": [],
              "searches": [], "procs": [], "checks": []}
    for i, op in enumerate(operations(workload, work, tag, extra, cases)):
        request = dict(op["request"], trace=trace,
                       run_id=f"{workload}-{seed}-{tag}-{op['label']}",
                       chrome=str(WORK / f"trace_{workload}.{op['label']}"
                                         f".json"))
        proc = run_child(request, work, f"{tag}.{i}.{op['label']}")
        check = check_op(op, proc, pins)
        passed["wall_s"] += proc["wall_s"]
        passed["segments"] += [proc["wall_s"] - sum(check["latencies"]),
                               *check["latencies"]]
        passed["rss_mb"] = max(passed["rss_mb"], proc["rss_mb"])
        if proc["setup_s"] is not None:
            passed["setup"].append(proc["setup_s"])
        for key in ("latencies", "problems", "searches"):
            passed[key] += check[key]
        passed["ops"] += check["ops"]
        passed["failed"] += check["failed"]
        passed["procs"].append(dict(proc, label=op["label"]))
        passed["checks"].append(check)
    return passed


def setup_probe(workload: str, work: Path, tag: str) -> dict:
    """A process that stops at the first call into the search layer."""
    op = operations(workload, work, tag)[0]
    request = dict(op["request"], setup_only=True, run_id=tag)
    return run_child(request, work, f"{tag}.probe")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile that still
    leaves at least ten samples beyond it; the maximum when that
    percentile would not be above the median (twenty samples or fewer)."""
    ranked = sorted(latencies)
    n = len(ranked)
    if n <= 20:
        return ranked[-1], 100.0, 0
    return ranked[n - 11], 100.0 * (n - 10) / n, 10


def typical_wall(passes: list[dict]) -> float:
    """Wall time of a typical pass: the median over passes of each of its
    segments (each timed search, and the rest of its processes' wall),
    summed, so a burst of host slowness inside one pass moves one
    segment's sample, not the whole pass.  The median pass wall when
    the passes split differently (a failed check) or not at all."""
    shapes = {len(p.get("segments", ())) for p in passes}
    if len(shapes) != 1 or 0 in shapes:
        return statistics.median(p["wall_s"] for p in passes)
    return sum(statistics.median(samples)
               for samples in zip(*(p["segments"] for p in passes)))


def end_to_end(passes: list[dict], setup: list[float], elapsed_s: float
               ) -> dict:
    """End-to-end metrics of the untraced passes.  A failed operation
    counts with the whole run's duration, so it misses any latency
    target."""
    latencies = []
    for passed in passes:
        latencies += passed["latencies"]
    searches = len(latencies)
    for passed in passes:
        latencies += [elapsed_s] * passed["failed"]
    wall = sum(p["wall_s"] for p in passes)
    value, pct, beyond = tail(latencies)
    return {
        "wall_s": typical_wall(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "jobs_per_s": searches / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "_pass_walls": [p["wall_s"] for p in passes],
        "_tail": {"percentile": pct, "samples": len(latencies),
                  "beyond": beyond},
    }


def sum_searches(searches: list[dict]) -> dict:
    total = dict.fromkeys(_SEARCH_KEYS + _BOUND_KEYS, 0)
    for search in searches:
        for key in _SEARCH_KEYS:
            total[key] += search.get(key, 0)
        for key in _BOUND_KEYS:
            total[key] += search.get("bound", {}).get(key, 0)
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def counter_metrics(searches: list[dict]) -> dict:
    total = sum_searches(searches)
    return {
        "engine.requests": total["requests"],
        "engine.misses": total["cache_misses"],
        "engine.useful_ratio": ratio(total["cache_misses"],
                                     total["requests"]),
        "bounds.pruned_ratio": ratio(total["regions_pruned"],
                                     total["regions_tested"]),
        "bounds.skipped": total["candidates_skipped"],
        "model.partial_hit_ratio": ratio(total["partial_hits"],
                                         total["partial_requests"]),
    }


# ledger entry -> tracer layer whose self time it reports
_LEDGER_LAYERS = {
    "cli.self_s": "cli",
    "network.self_s": "network",
    "scheduler.self_s": "scheduler",
    "tiling_tree.fits_s": "tiling_tree.fits",
    "mapspace.materialize_s": "mapspace.materialize",
    "bounds.s": "bounds",
    "cohort.build_s": "cohort.build",
    "engine.cache_s": "engine",
    "model.batch_s": "model.batch",
    "model.scalar_s": "model.scalar",
    "baselines.exhaustive_s": "baselines.exhaustive",
}
_CALL_METRICS = {
    "tiling_tree.fits_calls": ("calls", "tiling_tree.fits"),
    "mapspace.materialize_calls": ("calls", "mapspace.materialize"),
    "bounds.calls": ("calls", "bounds"),
    "cohort.rows": ("rows", "cohort.build"),
    "model.batch_rows": ("rows", "model.batch"),
    "model.scalar_calls": ("calls", "model.scalar"),
}


def layer_metrics(procs: list[dict], checks: list[dict]
                  ) -> tuple[dict, dict]:
    """(per-layer metrics, ledger) of traced processes."""
    outs = [proc["out"] for proc in procs]
    summaries = [out.get("trace", {}) for out in outs]
    metrics = {}
    ledger = {"cli.import_s": sum(out.get("import_s", 0.0)
                                  for out in outs)}
    for entry, layer in _LEDGER_LAYERS.items():
        ledger[entry] = sum(s.get("self_s", {}).get(layer, 0.0)
                            for s in summaries)
    ledger["trace.dump_s"] = sum(out.get("dump_s", 0.0) for out in outs)
    wall = sum(proc["wall_s"] for proc in procs)
    ledger["unattributed_s"] = wall - sum(ledger.values())
    metrics.update(ledger)
    for name, (kind, layer) in _CALL_METRICS.items():
        metrics[name] = sum(s.get(kind, {}).get(layer, 0) for s in summaries)
    metrics.update(counter_metrics(
        [search for check in checks for search in check["searches"]]))
    metrics["scheduler.candidates"] = sum(
        row["candidates"] for out in outs for row in out.get("scheduler", []))
    unique = [c["stats"]["totals"]["unique_searches"] for c in checks
              if c["stats"] and "totals" in c["stats"]]
    metrics["network.unique_searches"] = sum(unique)
    metrics["ledger.wall_s"] = wall
    return metrics, dict(ledger, wall_s=wall)


def traced_metrics(traced: dict, untraced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics, ledger) of one traced pass.  The ledger also
    holds each process's own ledger and counters, since the layers a
    workload's processes stress differ (``by_process``)."""
    metrics, ledger = layer_metrics(traced["procs"], traced["checks"])
    metrics["trace.overhead_s"] = ledger["wall_s"] - untraced_wall
    if len(traced["procs"]) > 1:
        ledger["by_process"] = {
            proc["label"]: dict(zip(("layers", "ledger"),
                                    layer_metrics([proc], [check])))
            for proc, check in zip(traced["procs"], traced["checks"])}
    return metrics, ledger


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Untraced passes of one run: one before a traced pass, else as
    many as fit in ``seconds`` at the nominal pass time (at least one)."""
    if trace:
        return 1
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def run_processes(workload: str, seed: int, seconds: float, trace: bool,
                  work: Path, pins: dict) -> dict:
    start = time.monotonic()
    setup: list[float] = []
    probes_failed = []
    for i in range(SETUP_PROBES[workload]):
        probe = setup_probe(workload, work, f"setup{i}")
        if probe["exit_code"] != 0 or probe["setup_s"] is None:
            probes_failed.append(f"set-up probe {i}: exit code "
                                 f"{probe['exit_code']} (log {probe['log']})")
        else:
            setup.append(probe["setup_s"])
    passes = [run_pass(workload, seed, work, f"pass{i}", pins)
              for i in range(pass_count(workload, seconds, trace))]
    for passed in passes:
        setup += passed["setup"]
    run = {"passes": passes, "problems": probes_failed + [
        p for passed in passes for p in passed["problems"]],
        "attempted": SETUP_PROBES[workload] + sum(p["ops"] for p in passes),
        "failed": len(probes_failed) + sum(p["failed"] for p in passes)}
    run["metrics"] = end_to_end(passes, setup, time.monotonic() - start)
    if trace:
        traced = run_pass(workload, seed, work, workload, pins, trace=True)
        run["problems"] += traced["problems"]
        run["attempted"] += traced["ops"]
        run["failed"] += traced["failed"]
        run["layers"], run["ledger"] = traced_metrics(
            traced, passes[0]["wall_s"])
    return run


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              pins: dict) -> dict:
    from serve_mix import Daemon, check_rows, drain, job_specs

    specs = job_specs()
    plan = serve_plan(seed)
    env = child_env()
    start = time.monotonic()
    setup = []
    problems = []
    attempted = failed = 0
    for i in range(SETUP_PROBES["serve_mixed"]):
        daemon = Daemon(env, work / f"setup{i}.serve.log")
        setup.append(daemon.setup_s)
        code, _ = daemon.close()
        attempted += 1
        if code != 0:
            failed += 1
            problems.append(f"serve set-up probe {i}: exit code {code}")

    def one_drain(tag: str, poll_s: float | None) -> dict:
        nonlocal attempted, failed
        daemon = Daemon(env, work / f"{tag}.serve.log")
        try:
            result = drain(daemon, plan, specs, poll_s)
        finally:
            code, rss = daemon.close()
        result.update(setup_s=daemon.setup_s, rss_mb=rss)
        found, bad = check_rows(result["rows"], pins["serve"])
        if code != 0:
            found.append(f"serve daemon exit code {code}")
        problems.extend(found)
        attempted += len(result["rows"])
        failed += bad
        result["failed"] = bad
        return result

    drains = [one_drain(f"pass{i}", None)
              for i in range(pass_count("serve_mixed", seconds, trace))]
    elapsed = time.monotonic() - start
    passes = [{
        "wall_s": d["wall_s"], "rss_mb": d["rss_mb"], "failed": d["failed"],
        "ops": len(d["rows"]),
        "latencies": [r["end"] - r["start"] for r in d["rows"]
                      if not r.get("failed")]}
        for d in drains]
    metrics = end_to_end(passes, setup + [d["setup_s"] for d in drains],
                         elapsed)
    metrics["fleet"] = {key: drains[-1]["stats"]["fleet"].get(key, 0)
                        for key in ("retries", "crashes_recovered")}
    run = {"metrics": metrics, "problems": problems}
    if trace:
        traced = one_drain("traced", SERVE_POLL_S)
        run["layers"], run["ledger"] = serve_layers(traced,
                                                    drains[0]["wall_s"])
        write_serve_trace(traced, seed)
    run.update(attempted=attempted, failed=failed)
    return run


def serve_layers(traced: dict, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and ledger of one traced drain.  The ledger
    splits the summed submit-to-result latency into the daemon's stage
    times, the rest of each job's daemon wall (unattributed), and the
    client-side overhead (latency minus job wall)."""
    rows = [r for r in traced["rows"] if not r.get("failed")]
    stats = traced["stats"]
    searches = [job["search"] for job in stats["jobs"].values()]
    stages = {key: sum(s.get("stage_time_s", {}).get(key, 0.0)
                       for s in searches)
              for key in ("generation", "cache", "model")}
    job_wall = [traced["jobs"][r["id"]]["wall_time_s"] for r in rows]
    latency = [r["end"] - r["start"] for r in rows]
    overhead = [lat - wall for lat, wall in zip(latency, job_wall)]
    ledger = {"serve.generation_s": stages["generation"],
              "serve.cache_s": stages["cache"],
              "serve.model_s": stages["model"],
              "serve.client_s": sum(overhead)}
    ledger["unattributed_s"] = sum(latency) - sum(ledger.values())
    metrics = {
        "serve.submit_s": median(r["submit_s"] for r in rows),
        "serve.job_s": median(job_wall),
        "serve.overhead_s": median(overhead),
        "serve.queue_peak": traced["queue_peak"],
        "serve.seed_entries_served": stats["cache"]["seed_entries_served"],
        "serve.cache_rejected_duplicates":
            stats["cache"]["rejected_duplicates"],
        "serve.generation_s": stages["generation"],
        "serve.cache_s": stages["cache"],
        "serve.model_s": stages["model"],
        "unattributed_s": ledger["unattributed_s"],
        "serve.fleet_retries": stats["fleet"]["retries"],
        "serve.crashes_recovered": stats["fleet"]["crashes_recovered"],
        "scheduler.candidates": sum(r["winner"]["candidates"] for r in rows),
        "ledger.wall_s": sum(latency),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }
    metrics.update(counter_metrics(searches))
    return metrics, dict(ledger, latency_sum_s=sum(latency))


def write_serve_trace(traced: dict, seed: int) -> None:
    """Client-side spans of the traced drain as Chrome trace events: one
    thread row per job's submit and its wait for the result."""
    origin = min(r["start"] for r in traced["rows"])
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": f"serve_mixed-{seed}"}}]
    for i, row in enumerate(traced["rows"], start=1):
        submit_end = row["start"] + row.get("submit_s", 0.0)
        events.append({"name": f"job {row['key']}", "ph": "X", "pid": 1,
                       "tid": i, "ts": (row["start"] - origin) * 1e6,
                       "dur": (row["end"] - row["start"]) * 1e6,
                       "args": {"id": i, "parent": 0, "job": row.get("id")}})
        events.append({"name": "serve.submit", "ph": "X", "pid": 1,
                       "tid": i, "ts": (row["start"] - origin) * 1e6,
                       "dur": (submit_end - row["start"]) * 1e6,
                       "args": {"parent": i}})
    (WORK / "trace_serve_mixed.client.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_layout(pins: bool = True) -> None:
    """Exit 2 unless this is a checkout of the repository."""
    needed = [ROOT / "src" / "repro" / "__init__.py", ROOT / "configs",
              ROOT / "BENCHMARK.json"] + ([PINS_PATH] if pins else [])
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a repository checkout (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        sys.exit(2)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload in a scratch directory under ``.perfbench``; the
    directory (child logs, stats files) is kept when a check failed."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    pins = load_pins()
    if workload == "serve_mixed":
        run = run_serve(seed, seconds, trace, work, pins)
    else:
        run = run_processes(workload, seed, seconds, trace, work, pins)
    if trace:
        run["layers"]["latency.tail_percentile"] = (
            run["metrics"]["_tail"]["percentile"])
        run["layers"]["latency.samples"] = run["metrics"]["_tail"]["samples"]
    if not run["problems"]:
        shutil.rmtree(work)
    return run


def report(workload: str, seed: int, run: dict, trace: bool) -> None:
    metrics = run["metrics"]
    info = metrics["_tail"]
    print(f"{workload} seed {seed}: wall_s {metrics['wall_s']:.3f} s, "
          f"setup_s {metrics['setup_s']:.3f} s, peak_rss_mb "
          f"{metrics['peak_rss_mb']:.1f} MiB, jobs_per_s "
          f"{metrics['jobs_per_s']:.3f}, latency p50 "
          f"{metrics['latency_p50_s']:.3f} s, tail p{info['percentile']:.1f}"
          f" {metrics['latency_tail_s']:.3f} s ({info['samples']} samples, "
          f"{info['beyond']} beyond)")
    if "fleet" in metrics:
        print(f"  daemon fleet: retries {metrics['fleet']['retries']}, "
              f"crashes recovered {metrics['fleet']['crashes_recovered']}")
    print("  pass wall_s: " + ", ".join(
        f"{w:.3f}" for w in metrics["_pass_walls"]))
    print(f"  operations: {run['attempted']} attempted, {run['failed']} "
          f"failed")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if trace:
        ledger = run["ledger"]
        path = WORK / f"ledger_{workload}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "ledger": ledger,
                                    "layers": run["layers"]}, indent=1))
        total_key = "wall_s" if "wall_s" in ledger else "latency_sum_s"
        total = ledger[total_key]
        print(f"  ledger ({path.relative_to(ROOT)}), {total_key} "
              f"{total:.3f} s:")
        entries = {k: v for k, v in ledger.items()
                   if k not in (total_key, "by_process")}
        for name, value in sorted(entries.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<26} {value:>10.3f} s "
                  f"{100.0 * value / total:>6.1f}%")
        for label, part in ledger.get("by_process", {}).items():
            print(f"    [{label}] wall_s {part['ledger']['wall_s']:.3f} s, "
                  f"bounds.s {part['ledger']['bounds.s']:.3f} s, "
                  f"bounds.pruned_ratio "
                  f"{part['layers']['bounds.pruned_ratio']:.4f}, "
                  f"bounds.skipped {part['layers']['bounds.skipped']}")
        print(f"  tracing overhead: {run['layers']['trace.overhead_s']:.3f} s")


def result_line(run: dict, trace: bool, bench: dict) -> str:
    """The final JSON line.  A traced run prints every per-layer metric;
    layers the workload never reaches read 0."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = run["layers"] if trace else run["metrics"]
    names = {m["name"] for m in wanted}
    unknown = sorted(k for k in source if k not in names
                     and not k.startswith("_") and k != "fleet")
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    correct = not run["problems"] and run["failed"] == 0
    return json.dumps({"correct": correct, "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_layout()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    # The serve workload drives the daemon through repro.serve's client.
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    run = measure(args.workload, args.seed, args.seconds, trace)
    report(args.workload, args.seed, run, trace)
    line = result_line(run, trace, bench)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
