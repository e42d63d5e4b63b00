"""Run one workload batch once, in this fresh process, as the CLI does.

The batch is parsed with `levelcert.cli.parse`; each command goes
through `run_command` (which calls `verify()` for `level`) and its
report is serialised to JSON as `levelcert SCRIPT --out FILE` does.  Each
command is timed from the call to the end of serialisation, then checked
outside the timed region.  The batch runs once per process: session
objects cache homology and rref results, so a second pass would time
those caches.

Prints one JSON line: set-up time, per-command times and outcomes, a
digest of all reports, the wall times of the reference task (calib.py)
run before every command and after the last, peak RSS and, with
--trace 1, per-layer figures.
The facts for the checks are read from SCRIPT's `.facts.json` sibling,
and the spans of a traced run are written to its `.spans.npz` sibling.
Right after parsing it runs the reference task SETUP_CALIB times, to
scale the set-up time; with --setup-only it stops there.
Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND_CAP_S = 30.0     # a command slower than this counts as failed
SETUP_CALIB = 10         # reference tasks that scale the set-up time


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


def cli_config(cli) -> dict:
    """The settings `levelcert -` runs with: the CLI's own defaults."""
    return vars(cli.build_arg_parser().parse_args(["-"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--script", required=True, type=Path)
    ap.add_argument("--spawn", type=float, required=True,
                    help="perf_counter value taken just before the spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after parsing and report the set-up time")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from levelcert import cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    config = cli_config(cli)
    source = args.script.read_text(encoding="utf-8")
    sess = cli.parse(source, default_field=config["field"])
    setup_s = time.perf_counter() - args.spawn
    import calib
    calib.task()  # warm-up, so the first measure is like the others
    setup = {"setup_s": setup_s,
             "setup_calib_s": [calib.measure() for _ in range(SETUP_CALIB)]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    from checks import check
    facts = json.loads(args.script.with_suffix(".facts.json").read_text(
        encoding="utf-8"))
    if len(facts) != len(sess.commands):
        raise SystemExit("facts and script disagree on the command count")

    signal.signal(signal.SIGALRM, _alarm)
    digest = hashlib.sha256()
    results = []
    calib_s = []
    for (cmd, line), fact in zip(sess.commands, facts):
        calib_s.append(calib.measure())
        error = None
        violations = []
        payload = None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, COMMAND_CAP_S)
        try:
            report = cli._jsonable(cli.run_command(sess, cmd, config, line))
            span = tracer.open("cli.serialize") if tracer else None
            text = json.dumps(report, indent=2, sort_keys=True)
            if tracer:
                tracer.close(span)
            payload = report
        except CommandTimeout:
            error = f"over the {COMMAND_CAP_S:g} s cap"
        except Exception as e:  # a raising command counts as failed
            error = f"raised {type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        exact = False
        if payload is not None:
            digest.update(text.encode())
            violations = check(fact, payload)
            cert = payload.get("certificate") or {}
            exact = list(cert.get("verdict") or [])[:1] == ["exact"]
        results.append({"s": seconds, "error": error,
                        "violations": violations, "exact": exact})

    calib_s.append(calib.measure())
    out = {**setup, "commands": results, "calib_s": calib_s,
           "digest": digest.hexdigest(),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        layers = dict(tracer.counts)
        layers.update(tracer.maxima)
        layers.update(tracer.self_times())
        layers["rings.build_s"] = tracer.inclusive("rings.make_ring")
        layers["level.verify_s"] = tracer.inclusive(
            "level.LevelCertificate.verify")
        layers["cli.parse_s"] = tracer.inclusive("cli.parse")
        layers["cli.serialize_s"] = tracer.inclusive("cli.serialize")
        layers["level.certificates"] = tracer.live_certificates()
        out["layers"] = layers
        tracer.save(args.script.with_suffix(".spans.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
