"""Set-up cost of one workload, measured in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload>

Times the import of ``sttt`` plus the first calls that fill its caches
(spiral numbering, group elements, reading maps, grid lines, the bundled
listing), then micro-times ``Permutation`` powers, products and calls on the
generators of each side length the workload uses.  Prints one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sttt  # noqa: E402
import workloads  # noqa: E402  (bench/ is sys.path[0] when run as a script)

PERM_SAMPLE_S = 0.01


def _per_call(fn, calls_per_round: int) -> float:
    """Seconds per call of ``fn``, which makes ``calls_per_round`` calls."""
    rounds = 0
    t0 = time.perf_counter()
    while True:
        fn()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= PERM_SAMPLE_S:
            return elapsed / (rounds * calls_per_round)


def main(workload: str) -> None:
    sizes = sorted(set(workloads.SIZE_PATTERN[workload]))
    spiral_s = group_s = 0.0
    for n in sizes:
        t0 = time.perf_counter()
        sttt.spiral_numbering(n)
        t1 = time.perf_counter()
        sttt.group_elements(n)
        spiral_s += t1 - t0
        group_s += time.perf_counter() - t1
    workloads.warm_caches(workload)
    setup_s = time.perf_counter() - START

    pow_s, mul_s, call_s = [], [], []
    for n in sizes:
        sigma = sttt.group_element(n, 1, 0).perm
        rho = sttt.group_element(n, 0, 1).perm
        m = sttt.dihedral_order(n)
        labels = range(1, n * n + 1)
        pow_s.append(_per_call(lambda: [sigma**a for a in range(m)], m))
        mul_s.append(_per_call(lambda: [sigma * rho for _ in range(m)], m))
        call_s.append(_per_call(lambda: [sigma(x) for x in labels], n * n))
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "spiral.numbering_ms": spiral_s * 1e3,
                "dihedral.group_elements_ms": group_s * 1e3,
                "perm.pow_us": sum(pow_s) / len(pow_s) * 1e6,
                "perm.mul_us": sum(mul_s) / len(mul_s) * 1e6,
                "perm.call_ns": sum(call_s) / len(call_s) * 1e9,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
