"""Serve bench: deadline-aware load on a 4-worker prediction pool.

Stands up a real :class:`~repro.serve.pool.WorkerPool` (one process per
worker, private unix sockets, shared prediction cache) and hammers the
``predict`` endpoint from many connections spread over client *processes*
(the client side must not serialize behind one GIL while measuring a
multi-process server). Two phases:

* **closed-loop** — eight connections each keep six requests in flight
  for ``duration`` seconds; measures peak sustainable throughput
  (``req_per_s``) and its latency distribution;
* **open-loop** — ``clients`` connections send on a fixed schedule at 30%
  of the closed-loop throughput regardless of replies; latency counts
  from the *scheduled* send time, so sender backlog counts against the
  server, and every reply slower than 10 ms is a deadline miss.

The payload mix replays 64 distinct predict questions, the governor-fleet
pattern the shared prediction cache exists for; the report carries the
cache hit rate and per-worker load skew so the numbers can't be misread
as cold-compute throughput. A reply error is counted in ``errors``, which
must be 0. ``compare_single`` reruns the load on one worker and records
the multi/single throughput ratio.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import statistics
import tempfile
import time
from typing import Dict, List

from repro.arch.counters import CounterSet
from repro.bench.harness import env_scale
from repro.core.epochs import Epoch
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.pool import WorkerPool
from repro.serve.server import ServeConfig

WORKERS = 4
CLOSED_CLIENTS = 8
CLIENT_PROCS = 4
PIPELINE = 6
#: Open-loop offered rate as a fraction of the closed-loop throughput.
OPEN_RATE_FRACTION = 0.3
DEADLINE_MS = 10.0
PREDICTOR = "DEP+BURST"
EPOCHS = 8
UNIQUE = 64
CACHE_MEM = 4096
MAX_BATCH = 64
MAX_DELAY_MS = 1.0


def payload_epochs(variant: int = 0) -> List[Epoch]:
    """A deterministic, realistically-shaped four-thread predict payload.

    ``variant`` perturbs the counter values so distinct variants key
    differently in the prediction cache while staying the same size.
    """
    n_threads = 4
    epochs = []
    t = 0.0
    for i in range(EPOCHS):
        span = 200_000.0 + 25_000.0 * ((i + variant) % 3) + 7.0 * variant
        deltas = {}
        for tid in range(n_threads):
            active = span * (0.5 + 0.1 * ((i + tid + variant) % 4))
            deltas[tid] = CounterSet(
                active_ns=active, crit_ns=active * 0.35,
                leading_ns=active * 0.20, stall_ns=active * 0.30,
                sqfull_ns=active * 0.05, insns=int(active * 1.5),
                stores=int(active * 0.2),
            )
        epochs.append(Epoch(
            index=i, start_ns=t, end_ns=t + span, thread_deltas=deltas,
            stall_tid=(i % n_threads) if i % 2 else None, during_gc=False,
        ))
        t += span
    return epochs


def payload_templates(unique: int = UNIQUE) -> List[bytes]:
    """Pre-encoded request frames (id appended per send), one per variant."""
    templates = []
    for variant in range(unique):
        frame = {
            "v": protocol.PROTOCOL_VERSION, "kind": "predict",
            "predictor": PREDICTOR, "across_epoch_ctp": True,
            "base_freq_ghz": 1.0, "target_freqs_ghz": [2.0, 3.0, 4.0],
            "epochs": [
                protocol.epoch_to_wire(e)
                for e in payload_epochs(variant)
            ],
        }
        encoded = json.dumps(frame, separators=(",", ":"))
        # Drop the closing brace: senders append ',"id":<n>}\n'.
        templates.append(encoded[:-1].encode("utf-8"))
    return templates


def _frame_bytes(template: bytes, request_id: int) -> bytes:
    return template + b',"id":%d}\n' % request_id


def _reply_id(line: bytes) -> int:
    # Replies always open with {"v":1,"id":<int>, — avoid a full JSON
    # parse on the measurement path.
    start = line.index(b'"id":') + 5
    end = line.index(b",", start)
    return int(line[start:end])


async def _closed_loop_conn(path, templates, stop_at, out):
    """One connection keeping :data:`PIPELINE` requests in flight."""
    reader, writer = await asyncio.open_unix_connection(path)
    sent: dict = {}
    latencies = out["closed_lat"]
    next_id = 0
    try:
        while time.perf_counter() < stop_at:
            while len(sent) < PIPELINE:
                next_id += 1
                sent[next_id] = time.perf_counter()
                writer.write(_frame_bytes(templates[next_id % len(templates)],
                                          next_id))
            await writer.drain()
            line = await reader.readline()
            if not line:
                out["errors"] += 1
                return
            latencies.append(time.perf_counter() - sent.pop(_reply_id(line)))
        # Drain what is still in flight (measured; after stop_at, so it
        # does not inflate the timed window's request count).
        while sent:
            line = await reader.readline()
            if not line:
                out["errors"] += len(sent)
                return
            sent.pop(_reply_id(line), None)
    finally:
        writer.close()


async def _open_loop_conn(path, templates, rate, duration, out, offset):
    """One connection sending on a fixed schedule (open loop).

    ``offset`` phase-shifts this connection's schedule so the fleet's
    sends interleave uniformly; without it every connection fires at
    the same instants and the "fixed rate" degenerates into periodic
    thundering herds that measure queue spikes, not the offered rate.
    """
    reader, writer = await asyncio.open_unix_connection(path)
    sent: dict = {}
    latencies = out["open_lat"]
    interval = 1.0 / rate
    started = time.perf_counter() + offset
    stop_at = started + duration
    next_id = 0

    async def receiver():
        while True:
            line = await reader.readline()
            if not line:
                return
            arrival = sent.pop(_reply_id(line), None)
            if arrival is not None:
                latencies.append(time.perf_counter() - arrival)

    recv_task = asyncio.get_running_loop().create_task(receiver())
    try:
        scheduled = started
        while scheduled < stop_at:
            now = time.perf_counter()
            if now < scheduled:
                await asyncio.sleep(scheduled - now)
            next_id += 1
            # Latency is charged from the *scheduled* arrival, so a
            # backlogged sender shows up as latency, not lost load.
            sent[next_id] = scheduled
            writer.write(_frame_bytes(templates[next_id % len(templates)],
                                      next_id))
            if next_id % 64 == 0:
                # Drain rarely: per-send drains cost a task switch each,
                # and send-side backlog is already charged as latency.
                await writer.drain()
            scheduled += interval
        out["open_sent"] += next_id
        # Grace period for stragglers; unanswered requests count as
        # deadline misses via open_unanswered.
        grace = time.perf_counter() + 2.0
        while sent and time.perf_counter() < grace:
            await asyncio.sleep(0.01)
        out["open_unanswered"] += len(sent)
    finally:
        recv_task.cancel()
        writer.close()


def _empty_out() -> dict:
    return {"closed_lat": [], "open_lat": [], "errors": 0,
            "open_sent": 0, "open_unanswered": 0}


async def _client_conns(paths, templates, duration, rate, offsets, out):
    if rate is None:
        stop_at = time.perf_counter() + duration
        await asyncio.gather(*(
            _closed_loop_conn(path, templates, stop_at, out) for path in paths
        ))
    else:
        await asyncio.gather(*(
            _open_loop_conn(path, templates, rate / len(paths), duration,
                            out, offset)
            for path, offset in zip(paths, offsets)
        ))


def _client_main(paths, templates, duration, rate, offsets, queue) -> None:
    """Entry point of one client process (fork or spawn safe)."""
    out = _empty_out()
    try:
        asyncio.run(_client_conns(paths, templates, duration, rate, offsets,
                                  out))
    except Exception:
        out["errors"] += len(paths)
    queue.put(out)


def _run_phase(paths, templates, duration, rate=None):
    """Fan one load phase out over client processes; merge their results.

    ``rate`` None is the closed-loop phase; otherwise the open-loop
    phase at that total offered rate.
    """
    n_procs = min(CLIENT_PROCS, len(paths))
    groups = [paths[i::n_procs] for i in range(n_procs)]
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    queue = context.Queue()
    processes = []
    started = time.perf_counter()
    for i, group in enumerate(groups):
        group_rate = offsets = None
        if rate is not None:
            group_rate = rate * len(group) / len(paths)
            # Interleave the fleet's schedules: connection with global
            # index g fires at g/rate, g/rate + n/rate, ... so the offered
            # load is uniform in time instead of synchronized bursts.
            # (A zero rate leaves no schedule: each client counts errors.)
            offsets = ([(i + j * n_procs) / rate for j in range(len(group))]
                       if rate else None)
        process = context.Process(
            target=_client_main,
            args=(group, templates, duration, group_rate, offsets, queue),
            daemon=True,
        )
        process.start()
        processes.append(process)
    merged = _empty_out()
    for _ in processes:
        out = queue.get()
        merged["closed_lat"].extend(out["closed_lat"])
        merged["open_lat"].extend(out["open_lat"])
        for key in ("errors", "open_sent", "open_unanswered"):
            merged[key] += out[key]
    for process in processes:
        process.join()
    merged["elapsed_s"] = time.perf_counter() - started
    return merged


def _quantile(sorted_values, q):
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def latency_summary(latencies) -> dict:
    """min/mean/p50/p99/p99.9/max (ms) plus the two jitter measures."""
    values = sorted(latencies)
    if not values:
        return dict.fromkeys(("min", "mean", "median", "p50", "p99", "p999",
                              "max", "stddev_ms", "jitter_p99_p50"), 0.0)
    p50 = _quantile(values, 0.50)
    p99 = _quantile(values, 0.99)
    return {
        "min": round(values[0] * 1e3, 3),
        "mean": round(sum(values) / len(values) * 1e3, 3),
        "median": round(p50 * 1e3, 3),
        "p50": round(p50 * 1e3, 3),
        "p99": round(p99 * 1e3, 3),
        "p999": round(_quantile(values, 0.999) * 1e3, 3),
        "max": round(values[-1] * 1e3, 3),
        "stddev_ms": round(
            statistics.pstdev(values) * 1e3 if len(values) > 1 else 0.0, 3
        ),
        "jitter_p99_p50": round((p99 - p50) * 1e3, 3),
    }


def _worker_predict_counts(pool: WorkerPool) -> Dict[str, int]:
    """Exact predict-requests per worker, asked of each worker directly."""
    counts = {}
    for worker_id in range(pool.n_workers):
        with ServeClient.connect(**pool.worker_endpoint(worker_id)) as probe:
            snapshot = probe.stats()
            endpoint = (snapshot.get("endpoints") or {}).get("predict") or {}
            counts[str(worker_id)] = int(endpoint.get("requests", 0))
    return counts


def load_skew(counts: Dict[str, int]) -> float:
    """max/mean per-worker load; 1.0 = perfectly balanced."""
    values = list(counts.values())
    if not values or sum(values) == 0:
        return 0.0
    return round(max(values) / (sum(values) / len(values)), 3)


def run_load(duration: float, clients: int, n_workers: int) -> dict:
    """Run both phases against an ``n_workers`` pool; return the report."""
    templates = payload_templates()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        serve_config = ServeConfig(
            socket_path=os.path.join(tmp, "serve.sock"), max_batch=MAX_BATCH,
            max_delay_s=MAX_DELAY_MS / 1000.0, predict_cache_mem=CACHE_MEM,
        )
        pool = WorkerPool(serve_config, n_workers, shared_cache=n_workers > 1)
        pool.start()
        try:
            worker_paths = pool.worker_paths()
            paths = [worker_paths[i % len(worker_paths)]
                     for i in range(clients)]
            # Warm every unique payload through each worker so the timed
            # phases measure the steady state the cache is built for.
            for worker_id in range(pool.n_workers):
                endpoint = pool.worker_endpoint(worker_id)
                with ServeClient.connect(**endpoint) as warm:
                    for i, template in enumerate(templates):
                        warm.send_raw(_frame_bytes(template, i + 1))
                        warm.read_reply()
            # The closed-loop phase measures peak sustainable throughput
            # at a *bounded* concurrency (in-flight = connections x
            # pipeline; Little's law says the latency floor scales with
            # it). The open-loop phase then drives every client
            # connection at a fixed offered rate.
            closed_n = min(CLOSED_CLIENTS, len(paths))
            closed = _run_phase(paths[:closed_n], templates, duration)
            requests = len(closed["closed_lat"])
            req_per_s = requests / closed["elapsed_s"]
            offered = req_per_s * OPEN_RATE_FRACTION
            open_phase = _run_phase(paths, templates, duration, rate=offered)
            per_worker = _worker_predict_counts(pool)
            with ServeClient.connect(**pool.worker_endpoint(0)) as reader:
                stats = reader.stats()
        finally:
            pool.stop()

    deadline_s = DEADLINE_MS / 1000.0
    open_lat = open_phase["open_lat"]
    open_answered = len(open_lat)
    open_misses = (
        sum(1 for v in open_lat if v > deadline_s)
        + open_phase["open_unanswered"]
    )
    fleet_cache = (stats.get("fleet") or stats).get("predict_cache", {})
    hits, misses = fleet_cache.get("hits", 0), fleet_cache.get("misses", 0)
    return {
        "benchmark": "serve_predict",
        "config": {
            "workers": n_workers, "topology": "direct", "clients": clients,
            "closed_clients": closed_n,
            "client_procs": min(CLIENT_PROCS, clients),
            "pipeline": PIPELINE, "duration_s": duration,
            "predictor": PREDICTOR, "max_batch": MAX_BATCH,
            "max_delay_ms": MAX_DELAY_MS, "epochs_per_request": EPOCHS,
            "unique_payloads": UNIQUE, "cache_mem": CACHE_MEM,
            "deadline_ms": DEADLINE_MS, "scale": env_scale(),
        },
        "elapsed_s": round(closed["elapsed_s"], 3),
        "requests": requests,
        "errors": closed["errors"] + open_phase["errors"],
        "req_per_s": round(req_per_s, 1),
        "latency_ms": latency_summary(closed["closed_lat"]),
        "open_loop": {
            "offered_rps": round(offered, 1),
            "sent": open_phase["open_sent"],
            "answered": open_answered,
            "unanswered": open_phase["open_unanswered"],
            "achieved_rps": round(
                open_answered / open_phase["elapsed_s"], 1
            ) if open_phase["elapsed_s"] else 0.0,
            "deadline_ms": DEADLINE_MS,
            "deadline_misses": open_misses,
            "deadline_miss_rate": round(
                open_misses / max(1, open_phase["open_sent"]), 6
            ),
            "latency_ms": latency_summary(open_lat),
        },
        "cache": {
            "hits": hits, "misses": misses,
            "stores": fleet_cache.get("stores", 0),
            "hit_rate": round(hits / (hits + misses), 4) if hits + misses
            else 0.0,
        },
        "per_worker_predict_requests": per_worker,
        "load_skew": load_skew(per_worker),
        "batch_size": stats["batch_size"],
        "server_overloaded": stats["overloaded"],
    }


def bench_payload(duration: float = 3.0, clients: int = 80,
                  compare_single: bool = False) -> dict:
    """The ``BENCH_serve.json`` payload (plus the one-worker reference)."""
    payload = run_load(duration, clients, WORKERS)
    if compare_single:
        single = run_load(duration, clients, 1)
        payload["single_worker"] = {
            "req_per_s": single["req_per_s"],
            "p99_ms": single["latency_ms"]["p99"],
            "deadline_miss_rate": single["open_loop"]["deadline_miss_rate"],
        }
        payload["throughput_ratio"] = round(
            payload["req_per_s"] / max(1e-9, single["req_per_s"]), 3
        )
    return payload


def run(args) -> dict:
    return bench_payload(args.duration, args.clients, args.compare_single)


def summary(payload) -> str:
    open_loop = payload["open_loop"]
    lines = [
        f"serve bench [{payload['config']['workers']} workers]: "
        f"{payload['requests']} requests in {payload['elapsed_s']}s -> "
        f"{payload['req_per_s']} req/s, "
        f"p50 {payload['latency_ms']['p50']}ms, "
        f"p99 {payload['latency_ms']['p99']}ms, "
        f"p99.9 {payload['latency_ms']['p999']}ms, "
        f"cache hit rate {payload['cache']['hit_rate']:.1%}, "
        f"load skew {payload['load_skew']}",
        f"open loop: offered {open_loop['offered_rps']} req/s, "
        f"achieved {open_loop['achieved_rps']} req/s, "
        f"p99 {open_loop['latency_ms']['p99']}ms, "
        f"jitter (p99-p50) {open_loop['latency_ms']['jitter_p99_p50']}ms, "
        f"miss rate {open_loop['deadline_miss_rate']:.2%} "
        f"@ {open_loop['deadline_ms']}ms deadline",
    ]
    if "throughput_ratio" in payload:
        lines.append(
            f"single-worker reference: "
            f"{payload['single_worker']['req_per_s']} req/s "
            f"(ratio {payload['throughput_ratio']}x)"
        )
    return "\n".join(lines)
