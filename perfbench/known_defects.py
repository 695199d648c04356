"""Known library defects, each run against its true answer.

Usage, from the root of a checkout:

    python3 perfbench/known_defects.py

Runs each operation through ``gaugedist.cli.main``, prints what its check
found, and exits with code 1 while any of them fails, 0 once all are fixed.
These operations stay out of the timed workloads of ``run.py``, whose
operations must all succeed.

- ``sweep-exact-disc-repro``: the exact disc sweep of the points
  (0,0), (1,1), (10,10), (11, 11+2**-49).  The true distance set has 7 values;
  two distinct exact squared distances share one double square root, so a
  library that compares square roots reports 6.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "gaugedist" / "cli.py").is_file():
        print(f"error: no gaugedist sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gaugedist.cli as cli
    import workloads

    failed = 0
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        for op in (workloads.exact_disc_repro(Path(work)),):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(list(op.argv))
            problems = op.check(rc, buf.getvalue(), op.out.read_bytes() if op.out.exists() else b"")
            failed += bool(problems)
            print(f"{'FAILED' if problems else 'ok':6s} {op.name}: " + ("; ".join(problems) or "correct"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
