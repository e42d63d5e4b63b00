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
