"""The ``serve_mixed`` workload: a local-fleet daemon under closed-loop load.

``python -m repro serve --workers 1`` runs as a child of the benchmark;
SERVE_CLIENTS threads each submit their seeded share of schedule jobs
through :class:`repro.serve.ServeClient` and wait for each result
before sending the next.  Timing is client-side: submit round trip and
submit-to-result latency per job.  The daemon's own view comes from
``/jobs`` (job wall time) and ``/stats`` (queue, cache, fleet, per-job
stage times); its internals are otherwise not traced.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from workloads import (
    FIG6_SHAPES,
    RESNET18,
    ROOT,
    SERVE_POOL,
    SERVE_WORKERS,
    check_winner,
    serve_key,
    winner,
)

READY_TIMEOUT_S = 60.0
REAP_TIMEOUT_S = 60.0


def job_specs() -> dict:
    """serve key -> job spec for every pool entry (inline ResNet-18
    layers, preset-kind Fig. 6 shapes)."""
    from repro.mapping.serialize import workload_to_dict
    from repro.workloads.importer import load_model

    layers = {layer.name: layer for layer in load_model(str(ROOT / RESNET18))}
    specs = {}
    for arch, name in SERVE_POOL:
        if name in FIG6_SHAPES:
            kind, dims = FIG6_SHAPES[name]
            workload = {"kind": kind, "dims": dict(dims)}
        else:
            workload = workload_to_dict(layers[name])
        specs[serve_key(arch, name)] = {"kind": "schedule", "arch": arch,
                                        "workload": workload}
    return specs


def reap(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Wait for ``proc`` with ``os.wait4``; returns (exit code, peak RSS
    in MiB of the process and every descendant it reaped).  Kills the
    process if it has not exited within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Daemon:
    """A ``repro serve`` child: spawn -> ready -> shutdown -> reaped."""

    def __init__(self, env: dict, log_path) -> None:
        from repro.serve import ServeClient

        self.log = open(log_path, "ab")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVE_WORKERS)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log)
        line = self._ready_line()
        port = int(line.rsplit(":", 1)[1].split()[0])
        self.client = ServeClient("127.0.0.1", port, timeout=120.0)
        self.client.healthz()
        self.setup_s = time.monotonic() - self.spawned

    def _ready_line(self) -> str:
        timer = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            timer.cancel()
        if "serving on http://" not in line:
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return line

    def close(self) -> tuple[int, float]:
        """Ask for shutdown (SIGTERM if that fails), reap, close pipes."""
        if self.proc.returncode is None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001 - any failure: fall back
                self.proc.send_signal(signal.SIGTERM)
        code, rss = reap(self.proc, REAP_TIMEOUT_S)
        self.proc.stdout.close()
        self.log.close()
        return code, rss


def _client_loop(client, jobs, specs, record, poll_stop) -> None:
    from repro.serve import ServeError

    for arch, name in jobs:
        key = serve_key(arch, name)
        start = time.perf_counter()
        row = {"key": key, "start": start}
        try:
            submitted = client.submit(specs[key])
            row["submit_s"] = time.perf_counter() - start
            row["id"] = submitted["id"]
            row["doc"] = client.result(submitted["id"], wait=True)
        except ServeError as error:
            row["error"] = f"HTTP {error.status}: {error}"
        row["end"] = time.perf_counter()
        record(row)
    poll_stop()


def drain(daemon: Daemon, plan, specs, poll_s: float | None) -> dict:
    """Run the closed-loop clients to completion against ``daemon``.

    ``poll_s`` additionally samples ``/stats`` queue depth (traced runs).
    """
    rows: list[dict] = []
    lock = threading.Lock()
    remaining = [len(plan)]
    done = threading.Event()
    queue_peak = [0]

    def record(row):
        with lock:
            rows.append(row)

    def client_done():
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                done.set()

    from repro.serve import ServeClient
    threads = [threading.Thread(
        target=_client_loop,
        args=(ServeClient(daemon.client.host, daemon.client.port,
                          timeout=120.0), jobs, specs, record, client_done))
        for jobs in plan]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    while not done.wait(poll_s or 0.5):
        if poll_s:
            pending = daemon.client.stats()["queue"]["pending_tasks"]
            queue_peak[0] = max(queue_peak[0], pending)
    for thread in threads:
        thread.join()
    wall = max(row["end"] for row in rows) - start
    return {"rows": rows, "wall_s": wall, "queue_peak": queue_peak[0],
            "jobs": {row["id"]: row for row in daemon.client.jobs()},
            "stats": daemon.client.stats()}


def check_rows(rows, pins) -> tuple[list[str], int]:
    """(problems, failed operations) of one drain's job results."""
    problems = []
    failed = 0
    for row in rows:
        key = row["key"]
        doc = row.get("doc")
        if doc is None:
            problems.append(f"serve {key}: {row['error']}")
        elif doc.get("state") != "done":
            problems.append(f"serve {key}: job {doc.get('id')} state "
                            f"{doc.get('state')}: {doc.get('error')}")
        else:
            result = doc["result"]
            got = winner(result["mapping"], result["cost"],
                         result["evaluations"], result["search"],
                         result.get("certificate"))
            mismatch = check_winner(f"serve {key}", got, pins.get(key))
            if not mismatch:
                row["winner"] = got
                continue
            problems += mismatch
        row["failed"] = True
        failed += 1
    return problems, failed
