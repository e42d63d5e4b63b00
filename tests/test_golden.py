"""Golden-output gate: fixed session scripts must reproduce their recorded
exit code, stdout and `--out` JSON byte for byte.

The scripts in tests/golden/ are the seed-5 benchmark scripts
(`python3 perfbench/gen.py --workload W --seed 5`) plus a one-line
`corpus` script.  Each runs in a fresh interpreter, as `levelcert` does.
After an intended change of output, rewrite the expected files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
SCRIPTS = sorted(p.stem for p in GOLDEN.glob("*.lvc"))


def _run(name, out_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "levelcert.cli", str(GOLDEN / f"{name}.lvc"),
         "--out", str(out_path)],
        capture_output=True, env=env, timeout=120)
    digest = (hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
              if Path(out_path).exists() else None)
    return proc.returncode, proc.stdout, digest


def _expected():
    return json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_output_is_unchanged(name, tmp_path):
    code, stdout, digest = _run(name, tmp_path / "out.json")
    want = _expected()[name]
    assert code == want["exit_code"]
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert digest == want["out_sha256"]


def _check_counts(workload, counts):
    """Exit code and stdout of tests/trace_counts.py on a run with counts."""
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts.items()}
    metrics["linalg.self_s"] = {"value": 0.5, "unit": "s"}
    line = json.dumps({"correct": True, "metrics": metrics})
    proc = subprocess.run(
        [sys.executable, str(GOLDEN.parent / "trace_counts.py"), workload],
        input=f"speed factor\n{line}\n", capture_output=True, text=True,
        timeout=60)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", ["artinian", "regular", "rational"])
def test_trace_count_record_catches_a_moved_count(workload):
    want = json.loads((GOLDEN / "trace_counts.json").read_text())
    counts = dict(want["workloads"][workload])
    assert counts["linalg.rref_calls"] > 0
    assert _check_counts(workload, counts) == (0, "")
    moved = dict(counts, **{"linalg.mat_builds":
                            counts["linalg.mat_builds"] + 1})
    code, out = _check_counts(workload, moved)
    assert code == 1 and "linalg.mat_builds" in out
    del counts["grobner.calls"]
    assert _check_counts(workload, counts)[0] == 1


if __name__ == "__main__":
    import tempfile
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCRIPTS:
            code, stdout, digest = _run(name, Path(tmp) / f"{name}.json")
            (GOLDEN / f"{name}.stdout").write_bytes(stdout)
            record[name] = {"exit_code": code, "out_sha256": digest}
    (GOLDEN / "expected.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
