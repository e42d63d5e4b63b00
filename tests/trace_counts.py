"""Compare the operation counts of a traced benchmark run with the record.

    python3 perfbench/run.py --workload W --seed 1 --seconds 3 --trace 1 \
        | python3 tests/trace_counts.py W

reads the run's result (the last line of standard input) and exits 1,
naming each count, when the run's count metrics differ from the ones
recorded for W in tests/golden/trace_counts.json. Counts do not depend
on the host, so any difference is a change of the work the program
does. A change that moves a count edits W's record by hand and says
why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "golden" / "trace_counts.json"


def counts(result: dict) -> dict:
    """The count metrics of a run, as ints."""
    return {k: int(m["value"]) for k, m in result["metrics"].items()
            if m["unit"] == "count"}


def main(argv) -> int:
    workload = argv[0]
    got = counts(json.loads(sys.stdin.readlines()[-1]))
    want = json.loads(RECORD.read_text())["workloads"][workload]
    bad = [f"{k}: {got.get(k)} (recorded {want.get(k)})"
           for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]
    for line in bad:
        print(f"{workload}: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
