"""``serve-unique``: ``repro-serve`` under all-unique predict load.

The server runs as its own process (one worker, default batching, TCP
on 127.0.0.1). One client process — this one — drives it over 2
connections with asyncio:

* the timed pass is a closed-loop burst: each connection keeps a fixed
  number of requests in flight until the burst is answered (its payloads
  are made before the timer starts and its replies checked after);
* an open loop at one fixed rate gives ``serve_p50_ms``/``serve_p99_ms``,
  each request timed from its *scheduled* send time, so a stall also
  charges the requests queued behind it;
* a fixed rate ladder gives ``serve_max_rps``: the highest rate whose
  p99 stays within the paper's 5 ms governor quantum with no growing
  backlog and no failed request.

Every payload is distinct, so the prediction cache can never hit and the
measured path is parse -> batch -> kernels -> encode. An error reply, an
``overloaded`` reply or an unanswered request is a failed operation.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repobench.spans import Patches
from repobench.workloads import Context, Workload, percentile, src_env

#: The paper's governor quantum: a later answer is useless to a governor.
LATENCY_LIMIT_MS = 5.0
CONNECTIONS = 2
_ID = re.compile(rb'"id":(\d+)')


def payload_template(rng: random.Random, n_epochs: int = 8,
                     n_threads: int = 4) -> bytes:
    """One predict frame without its id (the id is appended on send)."""
    from repro.arch.counters import CounterSet
    from repro.core.epochs import Epoch
    from repro.serve import protocol

    epochs = []
    t = 0.0
    for i in range(n_epochs):
        span = rng.uniform(150_000.0, 300_000.0)
        deltas = {}
        for tid in range(n_threads):
            active = span * rng.uniform(0.3, 1.0)
            deltas[tid] = CounterSet(
                active_ns=active,
                crit_ns=active * rng.uniform(0.1, 0.5),
                leading_ns=active * rng.uniform(0.05, 0.3),
                stall_ns=active * rng.uniform(0.1, 0.4),
                sqfull_ns=active * rng.uniform(0.0, 0.1),
                insns=int(active * rng.uniform(0.8, 2.0)),
                stores=int(active * rng.uniform(0.05, 0.3)),
            )
        epochs.append(Epoch(index=i, start_ns=t, end_ns=t + span,
                            thread_deltas=deltas,
                            stall_tid=rng.randrange(n_threads) if i % 2 else None,
                            during_gc=False))
        t += span
    frame = {
        "v": protocol.PROTOCOL_VERSION,
        "kind": "predict",
        "predictor": "DEP+BURST",
        "across_epoch_ctp": True,
        "base_freq_ghz": 1.0,
        "target_freqs_ghz": [2.0, 3.0, 4.0],
        "epochs": [protocol.epoch_to_wire(e) for e in epochs],
    }
    return json.dumps(frame, separators=(",", ":"))[:-1].encode("utf-8")


def in_process_prediction(template: bytes) -> List[float]:
    """What the server must answer for ``template``, computed here."""
    from repro.core.predictors import make_predictor
    from repro.serve import protocol

    frame = json.loads(template + b"}")
    epochs = protocol.epochs_from_wire(frame["epochs"])
    predictor = make_predictor(frame["predictor"],
                               across_epoch_ctp=frame["across_epoch_ctp"])
    return [predictor.predict_epochs(epochs, frame["base_freq_ghz"], t)
            for t in frame["target_freqs_ghz"]]


class Phase:
    """Outcome of one load phase, by request id."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done: List[Optional[float]] = [None] * n
        self.ok = [False] * n
        self.replies: Dict[int, bytes] = {}

    def latencies_ms(self) -> List[float]:
        """Per request, from its due time; a failed or unanswered request
        misses every limit."""
        return [1e3 * (done - due) if ok else float("inf")
                for due, done, ok in zip(self.due, self.done, self.ok)]

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


async def _reader(reader, phase: Phase, keep: set, pending: List[int],
                  wake: asyncio.Event) -> None:
    while True:
        line = await reader.readline()
        if not line:
            return
        now = time.perf_counter()
        match = _ID.search(line)
        if match is None:
            continue
        rid = int(match.group(1))
        phase.done[rid] = now
        phase.ok[rid] = b'"ok":true' in line
        if rid in keep:
            phase.replies[rid] = line
        pending[0] -= 1
        wake.set()


async def _drive(port: int, templates: List[bytes], rate: Optional[float],
                 depth: int, keep: set, timeout_s: float) -> Phase:
    """Send every template once: open loop at ``rate`` per second, or
    closed loop with ``depth`` in flight per connection (``rate=None``).
    """
    n = len(templates)
    phase = Phase(n)
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    pending = [0]
    wake = asyncio.Event()
    readers = [asyncio.ensure_future(_reader(r, phase, keep, pending, wake))
               for r, _ in conns]
    clock = time.perf_counter
    try:
        start = clock()
        for rid, template in enumerate(templates):
            if rate is not None:
                due = start + rid / rate
                # The loop's timers wake up to a millisecond late: sleep
                # short of the due time, then yield until it arrives.
                delay = due - clock() - 1e-3
                if delay > 0:
                    await asyncio.sleep(delay)
                while clock() < due:
                    await asyncio.sleep(0)
            else:
                while pending[0] >= depth * CONNECTIONS:
                    wake.clear()
                    await wake.wait()
                due = clock()
            writer = conns[rid % CONNECTIONS][1]
            phase.due[rid] = due
            writer.write(template + b',"id":%d}\n' % rid)
            phase.sent[rid] = clock()
            pending[0] += 1
            if rid % 16 == 15:
                await writer.drain()
        for _, writer in conns:
            await writer.drain()
        deadline = clock() + timeout_s
        while pending[0] > 0 and clock() < deadline:
            wake.clear()
            try:
                await asyncio.wait_for(wake.wait(), deadline - clock())
            except asyncio.TimeoutError:
                break
    finally:
        for _, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return phase


class ServeUnique(Workload):
    """``repro-serve --workers 1`` under unique predict payloads."""

    setup_repeats = 7

    SIZES = {
        "full": {"burst": 800, "depth": 8, "fixed_rate": 100.0,
                 "fixed_s": 10.0, "ladder": (50, 100, 150, 200, 300, 400),
                 "step_requests": 200, "step_s": 2.0, "sample": 8},
        "tiny": {"burst": 24, "depth": 4, "fixed_rate": 50.0,
                 "fixed_s": 0.4, "ladder": (50, 100), "step_requests": 10,
                 "step_s": 0.2, "sample": 3},
    }

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.size = self.SIZES[ctx.size]
        self.rng = random.Random(ctx.seed)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.phases: Dict[str, Phase] = {}
        self.layer: Dict[str, float] = {}
        self.max_rps: Optional[float] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.server_cpu: Optional[int] = None

    def pin(self, cpus: List[int]) -> int:
        """The client (this process) on the first CPU, the server, which
        does most of the work, on the last; the probe reads the server's."""
        os.sched_setaffinity(0, {cpus[0]})
        self.server_cpu = cpus[-1]
        return self.server_cpu

    # -- server process --------------------------------------------------

    def _stop_server(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()

    def setup(self) -> float:
        self._stop_server()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=src_env(self.ctx),
        )
        if self.server_cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.server_cpu})
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        elapsed = time.perf_counter() - start
        match = re.search(r"tcp:127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(match.group(1))
        # A serving process is long-lived: first-request costs are not
        # what its users wait on.
        self._phase("warm-up", self.size["burst"], None)
        return elapsed

    def close(self) -> None:
        self._stop_server()

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def _stats(self) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient.connect(host="127.0.0.1", port=self.port,
                                 timeout=10.0) as client:
            return client.stats()

    # -- phases ----------------------------------------------------------

    def _templates(self, n: int) -> tuple:
        """``n`` unique payloads and the ids whose replies are compared."""
        templates = [payload_template(self.rng) for _ in range(n)]
        keep = set(random.Random(self.ctx.seed + n).sample(
            range(n), min(self.size["sample"], n)))
        return templates, keep

    def _drive(self, inputs: tuple, rate: Optional[float]) -> Phase:
        templates, keep = inputs
        return asyncio.run(_drive(self.port, templates, rate,
                                  self.size["depth"], keep, timeout_s=10.0))

    def _verify(self, name: str, inputs: tuple, phase: Phase) -> None:
        templates, _ = inputs
        checks = self.ctx.checks
        for rid in range(len(templates)):
            checks.expect(phase.ok[rid], f"{name}: request {rid} failed "
                          "or unanswered")
        for rid, line in phase.replies.items():
            reply = json.loads(line)
            expected = in_process_prediction(templates[rid])
            got = reply.get("result", {}).get("predicted_ns")
            checks.expect(got == expected, f"{name}: request {rid} answered "
                          f"{got!r}, in-process {expected!r}")
        self.phases[name] = phase

    def _phase(self, name: str, n: int, rate: Optional[float]) -> Phase:
        """An untimed phase: make payloads, drive them, verify replies."""
        inputs = self._templates(n)
        phase = self._drive(inputs, rate)
        self._verify(name, inputs, phase)
        return phase

    def prepare(self) -> tuple:
        return self._templates(self.size["burst"])

    def run_pass(self, patches: Patches, inputs: tuple) -> tuple:
        return inputs, self._drive(inputs, None)

    def check(self, output: tuple) -> None:
        inputs, phase = output
        self._verify("burst", inputs, phase)

    def after_passes(self, traced: bool) -> None:
        """Fixed-rate and ladder phases (report metrics), after timing."""
        rate = self.size["fixed_rate"]
        before = self._stats()
        cpu = time.process_time()
        fixed = self._phase("fixed", int(rate * self.size["fixed_s"]), rate)
        client_s = time.process_time() - cpu
        after = self._stats()
        batches = (after["batch_size"]["count"]
                   - before["batch_size"]["count"])
        batched = after["batch_size"]["sum"] - before["batch_size"]["sum"]
        cache = after["predict_cache"]
        lookups = cache["hits"] + cache["misses"]
        self.layer = {
            "serve.requests": len(fixed.due),
            "serve.failed": fixed.failed,
            "serve.batch_size_mean": batched / batches if batches else 0.0,
            "serve.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "serve.gen_lag_ms_p99": percentile(
                [1e3 * (s - d) for s, d in zip(fixed.sent, fixed.due)], 99),
            "serve.client_s": client_s,
        }
        self.cache_hits = cache["hits"]
        self.cache_misses = cache["misses"]
        if traced:
            return
        self.max_rps = 0.0
        for step in self.size["ladder"]:
            n = max(self.size["step_requests"], int(step * self.size["step_s"]))
            phase = self._phase(f"ladder-{step}", n, float(step))
            if not self._meets_limit(phase):
                break
            self.max_rps = float(step)

    @staticmethod
    def _meets_limit(phase: Phase) -> bool:
        latencies = phase.latencies_ms()
        quarter = max(1, len(latencies) // 4)
        growing = (statistics.median(latencies[-quarter:])
                   > statistics.median(latencies[:quarter]) + 2.0)
        return percentile(latencies, 99) <= LATENCY_LIMIT_MS and not growing

    def report(self) -> Dict[str, float]:
        fixed = self.phases.get("fixed")
        out = {"store_hits": self.cache_hits,
               "store_misses": self.cache_misses}
        if fixed is not None:
            latencies = fixed.latencies_ms()
            out["serve_p50_ms"] = percentile(latencies, 50)
            out["serve_p99_ms"] = percentile(latencies, 99)
            out["serve_fixed_rate"] = self.size["fixed_rate"]
            out["serve_samples"] = len(latencies)
        if self.max_rps is not None:
            out["serve_max_rps"] = self.max_rps
        return out

    def layer_extras(self) -> Dict[str, float]:
        return dict(self.layer)

