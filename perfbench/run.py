"""levelcert benchmark: session scripts run as a CLI user runs them.

    python3 perfbench/run.py --workload artinian --seed 1 --seconds 20 \
        --trace 0

Generates the workload's script from the seed (gen.py), then runs the
whole batch in fresh single-threaded worker processes (worker.py), one
after another, until --seconds have passed; every round is the same
batch, so a run attempts whole rounds.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  commands_per_s  commands completed / summed time of all commands
  command_p50_s   median time of one command (run, verify, serialise)
  exact_verdicts  `level` commands of the batch with an exact verdict
  setup_s         median of spawn -> parsed session over the rounds
                  and SETUP_PROBES extra spawns that stop there
  peak_rss_mb     largest peak RSS of a round's process
Every time is a wall time divided by a speed factor (calib.py): the mean
wall time of a fixed reference task over its time on a quiet machine.
The worker runs the task before every command, for the factor of its
round, and right after parsing, for the set-up time.  So a slow period
of the shared host does not read as a slower program.  Each command's
time is its median over the rounds.  A command that raised, overran the
cap or failed a check in some round is not completed, but its measured
(capped) time stays in the sums.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds (medians; times divided by the
speed factor), plus the tracing overhead as traced vs untraced
commands_per_s.

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calib import REFERENCE_S  # noqa: E402
from gen import WORKLOADS, generate  # noqa: E402

RUN_LIMIT_S = 120.0      # start no round that could end after this
KILL_AFTER_S = 165.0     # a round still running then is killed
SETUP_PROBES = 6         # extra spawns that stop after parsing
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PER_LAYER = (
    "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_max_cells",
    "linalg.solve_calls", "linalg.mat_builds", "linalg.self_s",
    "grobner.calls", "grobner.self_s", "rings.build_s",
    "modules.hom_space_calls", "modules.hom_space_max_dim",
    "modules.self_s", "complexes.chain_map_spaces",
    "complexes.homology_calls", "complexes.self_s",
    "resolutions.resolution_calls", "resolutions.max_rank",
    "resolutions.self_s", "adams.cover_steps", "adams.self_s",
    "level.level_one_calls", "level.candidate_maps", "level.verify_s",
    "level.certificates", "level.self_s", "cli.parse_s",
    "cli.serialize_s")


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def run_worker(script: Path, deadline: float, *extra) -> dict | None:
    """One worker process; None if it failed."""
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--script", str(script),
           *extra]
    spawn = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawn", repr(spawn)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=str(ROOT))
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print("error: worker overran the run limit", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        print(f"error: worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def speed_factor(rnd, key="calib_s") -> float:
    """How much slower than a quiet machine the round ran."""
    return statistics.fmean(rnd[key]) / REFERENCE_S


def setup_time(rnd) -> float:
    return rnd["setup_s"] / speed_factor(rnd, "setup_calib_s")


def command_times(rounds) -> list:
    """Per command, its median over the rounds of wall time divided by
    the round's speed factor."""
    scaled = [[c["s"] / speed_factor(r) for c in r["commands"]]
              for r in rounds]
    return [statistics.median(ts) for ts in zip(*scaled)]


def command_rate(rounds) -> float:
    """Commands that completed in every round, per second of the summed
    wall time of all commands."""
    per = zip(*(r["commands"] for r in rounds))
    completed = sum(1 for cs in per
                    if not any(c["error"] or c["violations"] for c in cs))
    return completed / sum(command_times(rounds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exit that still stops the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "levelcert" / "cli.py").is_file():
        print(f"error: no levelcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    script = generate(args.workload, args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    script_path = out_dir / f"{args.workload}-{args.seed}.lvc"
    script_path.write_text(script.text(), encoding="utf-8")
    script_path.with_suffix(".facts.json").write_text(
        json.dumps(script.facts), encoding="utf-8")

    start = time.perf_counter()
    limit = start + RUN_LIMIT_S
    rounds = []      # (traced, result)
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        res = run_worker(script_path, start + KILL_AFTER_S,
                         "--trace", str(int(traced)))
        longest = max(longest, time.perf_counter() - t0)
        if res is None:
            return 1
        rounds.append((traced, res))
        now = time.perf_counter()
        enough = now - start >= args.seconds and \
            (not args.trace or len(rounds) >= 2)
        if enough or now + longest > limit:
            break

    plain = [r for t, r in rounds if not t]
    traced_rounds = [r for t, r in rounds if t]
    setups = [setup_time(r) for r in plain]
    if not args.trace:
        for _ in range(SETUP_PROBES):
            res = run_worker(script_path, start + KILL_AFTER_S,
                             "--setup-only")
            if res is None:
                return 1
            setups.append(setup_time(res))

    batch = len(script.facts)
    attempted = batch * len(rounds)
    failed = sum(1 for _, r in rounds for c in r["commands"]
                 if c["error"] or c["violations"])
    for fact, c in zip(script.facts, rounds[0][1]["commands"]):
        for problem in filter(None, [c["error"], *c["violations"]]):
            print(f"FAILED {fact['command']}: {problem}", file=sys.stderr)
    # every round runs the same batch, so its reports must not change
    exact = {sum(c["exact"] for c in r["commands"]) for _, r in rounds}
    digests = {r["digest"] for _, r in rounds}
    correct = len(exact) == 1 and len(digests) == 1 and not any(
        c["violations"] for _, r in rounds for c in r["commands"])

    factors = [speed_factor(r) for _, r in rounds]
    print(f"speed factor per round: {min(factors):.3f} to "
          f"{max(factors):.3f}", file=sys.stderr)
    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            vals = [r["layers"][name] / speed_factor(r)
                    if unit(name) == "s" else r["layers"][name]
                    for r in traced_rounds]
            metrics[name] = {"value": statistics.median(vals),
                             "unit": unit(name)}
        traced_rate = command_rate(traced_rounds)
        metrics["trace.commands_per_s"] = {"value": traced_rate,
                                           "unit": "1/s"}
        metrics["trace.slowdown"] = {
            "value": command_rate(plain) / traced_rate, "unit": "ratio"}
    else:
        times = command_times(plain)
        metrics = {
            "commands_per_s": {"value": command_rate(plain), "unit": "1/s"},
            "command_p50_s": {"value": statistics.median(times),
                              "unit": "s"},
            "exact_verdicts": {"value": min(exact), "unit": "count"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
