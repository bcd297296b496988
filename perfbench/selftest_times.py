"""Wall time of each `contlogic selftest` criterion, one JSON line each.

    python3 perfbench/selftest_times.py

Not a workload and not gated: it gives the selftest baseline to set beside
the benchmark's own numbers when both are measured on one machine.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contlogic import selftest  # noqa: E402


def main() -> int:
    total = 0.0
    for criterion in selftest.CRITERIA:
        start = time.perf_counter()
        record = criterion()
        elapsed = time.perf_counter() - start
        total += elapsed
        print(json.dumps({"criterion": record["criterion"], "name": record["name"],
                          "pass": record["pass"], "wall_s": round(elapsed, 3)}))
    print(json.dumps({"kind": "total", "wall_s": round(total, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
