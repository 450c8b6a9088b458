"""Benchmarks of the reproduction's fast paths, with one gate rule.

``python -m repro.bench {hotpath,batch,sweep,fleet,serve} [--reps N]
[--out PATH] [--check BASELINE]`` times one pinned workload, writes a
``BENCH_<name>.json`` payload with a ``host`` block, and with ``--check``
gates it against a committed one (:mod:`repro.bench.gates`). Workload
length follows ``REPRO_SCALE``; see :mod:`repro.bench.harness`.
"""
