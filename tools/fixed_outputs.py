"""Check the fixed CLI output that the test suite leaves out, as its md5.

    python3 tools/fixed_outputs.py

Runs ``python -m sttt fuzz --cases 10000 --seed 2024`` from ``src/`` next to
this directory and compares its stdout with the md5 recorded below, and its
exit status with 2: the suite ``game-action-validity`` fails by design.  Exits 0
when both match and 1 otherwise.  The other fixed outputs, ``census --n 2``
and ``fuzz --cases 2000 --seed 2024 --format json``, are pinned in
``tests/test_cli.py`` with the README's CLI examples.  Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGV = ("fuzz", "--cases", "10000", "--seed", "2024")
MD5 = "4461abe4570c44dafeb4da598c9faf35"
STATUS = 2


def main() -> int:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "sttt", *ARGV],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE,
    )
    md5 = hashlib.md5(done.stdout).hexdigest()
    ok = md5 == MD5 and done.returncode == STATUS
    print(
        f"{'ok' if ok else 'MISMATCH'}  sttt {' '.join(ARGV)}: md5 {md5} "
        f"(want {MD5}), exit {done.returncode} (want {STATUS}), "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
