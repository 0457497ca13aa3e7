"""The service's reference benchmark: one command, four workloads, two planes.

    python3 benchmarks/perf/run.py --seed 7            # everything
    python3 benchmarks/perf/run.py --seed 7 --only serial_verbs --out DIR
    python3 benchmarks/perf/run.py --seed 7 --aa 3     # self-agreement
    python3 benchmarks/perf/run.py --smoke             # <= 20 s

and, as the benchmark driver calls it,

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Every metric is printed by name with its unit; the last line of standard
output is one JSON object.  The exit code is non-zero when any reply was
wrong.  README.md in this directory is the glossary.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: "list[str]") -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/perf needs the repository's src/ beside it", file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.perf import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
