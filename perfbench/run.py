"""vmstat benchmark: time from config to a verified verdict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 40 --trace 0

Workloads: simulate and algebra (see NOTES.md).
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs untraced and traced iterations and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds provenance.  Run records, and the spans of traced runs, are
written under ``.perfbench_out/``.  Without a vmstat source tree the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate", "algebra")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="master seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vmstat" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no vmstat source tree and configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.vmstat.__file__).resolve().parent != (SRC / "vmstat").resolve():
        print(f"perfbench: imported vmstat from {harness.vmstat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
