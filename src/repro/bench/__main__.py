"""``python -m repro.bench``: see :mod:`repro.bench.harness`."""

from repro.bench.harness import main

if __name__ == "__main__":
    raise SystemExit(main())
