"""One measured process: a ``repro`` CLI invocation or public-API search.

Run as ``python perfbench/child.py REQUEST.json`` with ``src`` on
``PYTHONPATH``.  The request names the mode (``cli`` runs
``repro.cli.main(argv)``, the code path of ``python -m repro``;
``exhaustive`` calls ``repro.baselines.exhaustive.exhaustive_search``),
whether to trace, and where to write the outcome JSON.

Untraced children carry two probes: the monotonic time of the first
call into the search layer, which ends set-up, and the duration of each
Sunstone search (``SunstoneScheduler.schedule``: one per unique network
layer).  With ``setup_only`` the child exits at the first probe, so
set-up can be sampled cheaply.  Traced children additionally install
:class:`tracing.Tracer` and report its per-layer totals.
"""

import time

CHILD_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# Each call is one search; its duration is a latency sample.
SEARCH_CALL = "repro.core.scheduler:SunstoneScheduler.schedule"
# The first call into any of these ends set-up.
SEARCH_ENTRY = [
    "repro.core.network:schedule_network",
    "repro.core.scheduler:SunstoneScheduler.schedule",
    "repro.baselines.exhaustive:exhaustive_search",
]


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _scheduler_rows(results: list) -> list[dict]:
    """Candidates and certificate of each traced Sunstone search."""
    rows = []
    for result in results:
        bound = result.stats.prune.bound
        rows.append({
            "candidates": (result.stats.evaluations
                           + (bound.candidates_skipped if bound else 0)),
            "lower_bound": bound.lower_bound if bound else None,
            "edp": result.cost.edp if result.found else None,
        })
    return rows


def _run_exhaustive(request: dict) -> list[dict]:
    import repro.baselines.exhaustive as exhaustive
    from repro import workloads as library
    from repro.arch import tiny
    from repro.mapping.serialize import mapping_to_dict
    from workloads import EXHAUSTIVE_CASES, winner

    arch = tiny(l1_words=64, l2_words=512, pes=4)
    cases = []
    for name in request["cases"]:
        builder, args = EXHAUSTIVE_CASES[name]
        workload = getattr(library, builder)(*args)
        start = time.perf_counter()
        result = exhaustive.exhaustive_search(
            workload, arch, orders_per_level=2, max_evaluations=5_000_000,
            **request.get("flags", {}))
        latency = time.perf_counter() - start
        search = result.search_stats.to_dict()
        cost = {"energy_pj": result.cost.energy_pj,
                "cycles": result.cost.cycles, "edp": result.cost.edp}
        cases.append({
            "case": name, "latency_s": latency, "search": search,
            "winner": winner(mapping_to_dict(result.mapping), cost,
                             result.evaluations, search,
                             result.certificate),
        })
    return cases


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    out = {"child_start": CHILD_START}

    start = time.perf_counter()
    if request["mode"] == "cli":
        import repro.cli  # noqa: F401
    else:
        import repro.baselines.exhaustive  # noqa: F401
    out["import_s"] = time.perf_counter() - start

    tracer = None
    if request.get("trace"):
        from tracing import Tracer
        tracer = Tracer(request["run_id"])
        tracer.install()

    def mark_setup() -> None:
        out["setup_mark"] = time.monotonic()
        if request.get("setup_only"):
            _write(request["out"], out)
            sys.stdout.flush()
            os._exit(0)

    from tracing import duration_probe, first_call_probe
    first_call_probe(SEARCH_ENTRY, mark_setup)
    out["search_s"] = []
    duration_probe(SEARCH_CALL, out["search_s"])

    code = 0
    if request["mode"] == "cli":
        import repro.cli
        try:
            code = repro.cli.main(request["argv"])
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 1
    else:
        out["cases"] = _run_exhaustive(request)
    sys.stdout.flush()

    if tracer is not None:
        tracer.uninstall()
        start = time.perf_counter()
        out["trace"] = tracer.summary()
        if request.get("chrome"):
            tracer.dump_chrome(request["chrome"])
        out["dump_s"] = time.perf_counter() - start
        out["scheduler"] = _scheduler_rows(tracer.results.get(
            SEARCH_CALL, []))
    out["exit_code"] = code
    _write(request["out"], out)
    return code


if __name__ == "__main__":
    sys.exit(main())
