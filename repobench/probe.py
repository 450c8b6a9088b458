"""Host-speed probe: a fixed slice of interpreter, NumPy, JSON and
hashing work that never touches ``repro``.

On a shared 2-vCPU VM the host's speed moves by 2x within seconds: one
probe read 9.5 to 16.8 ms in half-second buckets over 40 s, and the
level also drifts from one minute to the next, so two runs of the same
work minutes apart differ by 20 % or more. The harness therefore
brackets each set-up and pass with bursts of probe samples, one just
before and one just after it, and scales its time to a host on which
the probe takes :data:`REFERENCE_S` by the mean of the two bursts (the
time of the work is the integral of the host's slowness over it, so
the mean, not the median, of the samples estimates that slowness). The
raw seconds and the probe's mean are printed beside the scaled ones.

The probe runs in a process of its own (:class:`ProbeProcess`), so the
heap, garbage and caches the program under test leaves in the
harness's process cannot slow it, and the program is idle while it
runs. The work and the probe are pinned, so the probe reads the speed
of the CPU the work ran on.

Run as a script it answers each line on standard input, a count ``n``,
with one line of ``n`` back-to-back probe times in seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from typing import List

import numpy as np

#: Probe time of the reference host the scaled seconds refer to.
REFERENCE_S = 0.010


def _probe_once() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(20000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + i * 0.5
    values = np.arange(512.0)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    blob = json.dumps([{"a": i, "b": [i * 0.1] * 4} for i in range(800)])
    json.loads(blob)
    hashlib.sha256(blob.encode("utf-8")).hexdigest()
    sorted(range(20000), key=lambda x: (x * 31) % 997)
    return time.perf_counter() - start


class ProbeProcess:
    """The probe in a child process pinned to ``cpu``, the one the work
    ran on, so it reads that CPU's speed rather than the other's;
    :meth:`sample` runs it once there."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self.proc.pid, {cpu})

    def sample(self, n: int) -> List[float]:
        """``n`` back-to-back probe times in seconds."""
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        return [float(x) for x in self.proc.stdout.readline().split()]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "ProbeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(" ".join(repr(_probe_once()) for _ in range(int(line))),
              flush=True)
