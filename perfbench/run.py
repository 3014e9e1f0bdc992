"""Benchmark entry point.

    python3 perfbench/run.py --workload digi43k-k1 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`).  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The address-space limit turns an allocation the machine cannot hold into
# a MemoryError inside one operation instead of the kernel killing the run.
ADDRESS_SPACE_LIMIT = 5 << 30


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import sessrec from this checkout's src/ or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sessrec
    except ImportError as exc:
        sys.exit(f"error: cannot import sessrec from {src}: {exc}")
    where = Path(sessrec.__file__).resolve()
    if src.resolve() not in where.parents:
        sys.exit(f"error: sessrec was imported from {where}, not from {src}")


def main(argv=None) -> int:
    import_program()
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, hard))

    from workloads import WORKLOADS, run_workload

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          HERE / "work")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
