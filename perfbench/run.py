"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload link --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the model's matrices are small, and on a shared 2-CPU
# machine a second BLAS thread adds contention more than speed. Set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["link", "node", "tokenize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ella
    except ImportError as exc:
        print(f"perfbench: cannot import ella from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(ella.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: ella was imported from {ella.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
