"""Run one end-to-end serving workload once.

    python3 benchmarks/e2e/run.py --workload read-cold --seed 1 \\
        --seconds 10 --trace 0 [--out DIR]

Run from anywhere inside a checkout of the repository: the script puts the
checkout's ``src`` and root on ``sys.path`` itself. It refuses to run (exit
status 2, no result) when the checkout holds no ``src/repro`` to measure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.bench import main

    sys.exit(main())
