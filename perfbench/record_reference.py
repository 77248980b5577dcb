"""Record the default-seed reference values that the benchmark's gate checks.

Run from the repository root on the commit whose values are the
reference:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def main() -> None:
    values = {
        exp.name: harness.reference_values(exp)
        for specs in harness.WORKLOADS.values()
        for exp in specs
    }
    body = {"seed": harness.DEFAULT_SEED, "replicas": harness.REF_REPLICAS, "values": values}
    harness.REFERENCE.write_text(json.dumps(body, indent=2) + "\n")


if __name__ == "__main__":
    main()
