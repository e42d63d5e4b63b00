"""Session scripts: named rings, modules, and complexes plus report
commands, executed in order with deterministic JSON output.

A script is a sequence of statements, one per line ('#' starts a
comment; a line continues while brackets are open or it ends in ';'):

    A = artin(F2; x | x^2)
    R = poly(F101; x, y, z)
    module k over R = coker [[x, y, z]]
    module M over A = action { x: [[0, 1], [0, 0]] }
    module F over R = free [0, 1]
    complex K over A : range 1..0 ; d1 = [[x]]
    homology K
    resolve K 4
    pd k
    level GI K
    adams K 3
    splice K 2
    bass K
    corpus

Matrix entries are polynomial expressions in the ring's variables.  A
differential matrix d<i> maps the degree-i term to the degree-(i-1)
term, columns indexing the source.  Graded complexes may pin generator
twists per degree with `twists <i> = [a, b]` (default 0).  Degrees not
touched by any differential get `rank <i> = n` (or `twists`).

Commands that expect a complex accept a module name and place it in
degree 0.  Exit code 0 on success, 2 when some report is inconclusive,
1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field as dataclass_field

from .complexes import Complex, ComplexError, module_stalk
from .level import LevelError, bass_check, level_report, normalize_class
from .modules import (ArtinModule, ModuleError, free_hom_from_polys,
                      free_module)
from .linalg import LinalgError, Mat
from .poly import parse_poly
from .adams import AdamsError, adams_tower, verify_splice
from .grobner import BudgetExceeded
from .resolutions import (ResolutionError, depth_of, dimension_report,
                          semiprojective_resolution)
from .rings import make_ring


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class VerificationError(ValueError):
    """A declared literal failed an invariant check at bind time."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


DIM_KINDS = ("pd", "id", "gpd", "gid", "fd", "gfd")
COMMAND_WORDS = ("homology", "resolve", "adams", "splice", "level",
                 "bass", "corpus", "depth") + DIM_KINDS


@dataclass
class Session:
    rings: dict = dataclass_field(default_factory=dict)
    modules: dict = dataclass_field(default_factory=dict)
    complexes: dict = dataclass_field(default_factory=dict)
    commands: list = dataclass_field(default_factory=list)

    def bind(self, name: str, line: int):
        if name in self.rings or name in self.modules \
                or name in self.complexes:
            raise ParseError(f"name {name!r} already bound", line)

    def ring(self, name: str, line: int):
        if name not in self.rings:
            raise ParseError(f"unknown ring {name!r}", line)
        return self.rings[name]

    def object(self, name: str, line: int):
        """A module or complex by name; commands resolve both."""
        if name in self.modules:
            return self.modules[name]
        if name in self.complexes:
            return self.complexes[name]
        raise ParseError(f"unknown module or complex {name!r}", line)

    def as_complex(self, name: str, line: int) -> Complex:
        obj = self.object(name, line)
        if isinstance(obj, Complex):
            return obj
        return module_stalk(obj.ring, obj)


# ---------------------------------------------------------------- parsing


def _logical_statements(source: str):
    """Join physical lines into statements; yields (text, line_no)."""
    out = []
    buf = []
    start = None
    depth = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip() and not buf:
            continue
        if start is None:
            start = lineno
        buf.append(line)
        depth += sum(line.count(c) for c in "[({")
        depth -= sum(line.count(c) for c in "])}")
        if depth < 0:
            raise ParseError("unbalanced brackets", lineno,
                             line.rfind("]") + 1 or 1)
        if depth == 0 and not line.rstrip().endswith(";"):
            text = " ".join(p.strip() for p in buf).strip()
            if text:
                out.append((text, start))
            buf = []
            start = None
    if depth != 0 or any(p.strip() for p in buf):
        raise ParseError("unterminated statement", start or 1)
    return out


def _split_top(text: str, sep: str, line: int):
    """Split on sep at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_matrix(text: str, ring, line: int):
    """Nested bracket literal -> row-major matrix of ring polynomials."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a [[...], ...] matrix literal", line,
                         1)
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows = []
    for part in _split_top(inner, ",", line):
        part = part.strip()
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError("matrix rows must be bracketed", line)
        entries = []
        for ent in _split_top(part[1:-1], ",", line):
            ent = ent.strip() or "0"
            try:
                entries.append(parse_poly(ring.field, ring.varnames, ent))
            except (ValueError, LinalgError) as e:
                raise ParseError(f"bad matrix entry {ent!r}: {e}",
                                 line) from e
        rows.append(entries)
    if len({len(r) for r in rows}) > 1:
        raise ParseError("matrix rows have unequal lengths", line)
    return rows


def _parse_int_list(text: str, line: int):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected an integer list [a, b, ...]", line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    try:
        return [int(t.strip()) for t in inner.split(",")]
    except ValueError as e:
        raise ParseError(f"bad integer list: {e}", line) from e


def _parse_rank(text: str, line: int) -> int:
    try:
        n = int(text.strip())
    except ValueError:
        raise ParseError(f"expected a rank, not {text.strip()!r}",
                         line) from None
    if n < 0:
        raise ParseError(f"a rank must be at least 0, not {n}", line)
    return n


def _parse_twists(ring, text: str, line: int):
    if ring.kind == "artin":
        raise ParseError("twist lists only apply to graded rings", line)
    return _parse_int_list(text, line)


def _poly_matrix_to_hom(ring, rows, line: int):
    """Cokernel presentation: rows index the target free module."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    # the target sits in twist 0; over a graded ring the entries must be
    # homogeneous and each source generator picks up its column's degree
    twists = [0] * ncols
    if ring.kind != "artin":
        for j in range(ncols):
            degs = {rows[i][j].homogeneous_degree()
                    for i in range(nrows) if not rows[i][j].is_zero()}
            if None in degs or len(degs) > 1:
                raise VerificationError(
                    f"column {j} of the matrix is not homogeneous", line)
            twists[j] = degs.pop() if degs else 0
    return free_hom_from_polys(free_module(ring, twists),
                               free_module(ring, [0] * nrows), rows)


def _bind_module(sess: Session, text: str, line: int):
    # module NAME over RING = body
    head, _, body = text.partition("=")
    toks = head.split()
    if len(toks) != 4 or toks[0] != "module" or toks[2] != "over" \
            or not body.strip():
        raise ParseError("expected `module NAME over RING = ...`", line)
    name, rname = toks[1], toks[3]
    sess.bind(name, line)
    ring = sess.ring(rname, line)
    body = body.strip()
    try:
        if body.startswith("coker"):
            rows = _parse_matrix(body[len("coker"):], ring, line)
            if not rows:
                raise ParseError("empty presentation matrix", line)
            h = _poly_matrix_to_hom(ring, rows, line)
            mod, _ = h.cokernel()
        elif body.startswith("free"):
            tail = body[len("free"):].strip()
            if tail.startswith("["):
                twists = _parse_twists(ring, tail, line)
            else:
                twists = [0] * _parse_rank(tail, line)
            mod = free_module(ring, twists)
        elif body.startswith("action"):
            if ring.kind != "artin":
                raise ParseError("action literals need an artinian ring",
                                 line)
            mod = _parse_action_module(ring, body[len("action"):], line)
        else:
            raise ParseError(
                "module body must be `coker`, `free`, or `action`", line)
    except (ModuleError, ComplexError) as e:
        raise VerificationError(str(e), line) from e
    mod.label = name
    sess.modules[name] = mod


def _parse_action_module(ring, text: str, line: int) -> ArtinModule:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("expected `action { x: [[...]], ... }`", line)
    mats = {}
    dim = None
    for part in _split_top(text[1:-1], ",", line):
        if not part.strip():
            continue
        var, _, body = part.partition(":")
        var = var.strip()
        if var not in ring.varnames:
            raise ParseError(f"unknown ring variable {var!r}", line)
        rows = _parse_matrix(body, ring, line)
        ints = []
        for r in rows:
            ri = []
            for p in r:
                if not p.is_constant():
                    raise ParseError(
                        "action matrices take scalar entries", line)
                ri.append(p.constant_coeff())
            ints.append(ri)
        n = len(ints)
        if any(len(r) != n for r in ints):
            raise ParseError("action matrices must be square", line)
        if dim is None:
            dim = n
        elif dim != n:
            raise ParseError("action matrices must share one size", line)
        _put(mats, var, Mat.from_rows(ring.field, ints),
             f"action matrix for {var}", line)
    if dim is None:
        raise ParseError("empty action literal", line)
    missing = [v for v in ring.varnames if v not in mats]
    if missing:
        raise ParseError(
            f"missing action matrices for {', '.join(missing)}", line)
    return ArtinModule(ring, dim, [mats[v] for v in ring.varnames])


def _bind_complex(sess: Session, text: str, line: int):
    # complex NAME over RING : range hi..lo ; d<i> = [...] ; ...
    head, _, rest = text.partition(":")
    toks = head.split()
    if len(toks) != 4 or toks[0] != "complex" or toks[2] != "over":
        raise ParseError("expected `complex NAME over RING : ...`", line)
    name, rname = toks[1], toks[3]
    sess.bind(name, line)
    ring = sess.ring(rname, line)
    parts = [p.strip() for p in _split_top(rest, ";", line)]
    if not parts or not parts[0].startswith("range"):
        raise ParseError("complex body must start with `range hi..lo`",
                         line)
    rng = parts[0][len("range"):].strip()
    hi_lo = rng.split("..")
    try:
        hi, lo = int(hi_lo[0]), int(hi_lo[1])
    except (IndexError, ValueError):
        raise ParseError("expected `range hi..lo`", line) from None
    if hi < lo:
        raise ParseError("range must run from high to low", line)
    dmats = {}
    twists = {}
    ranks = {}
    for part in parts[1:]:
        if not part:
            continue
        key, _, body = part.partition("=")
        key = key.strip()
        if not body.strip():
            raise ParseError(f"missing right-hand side in {part!r}", line)
        if key.startswith("d"):
            try:
                i = int(key[1:])
            except ValueError:
                raise ParseError(f"bad differential label {key!r}",
                                 line) from None
            if not (lo < i <= hi):
                raise ParseError(
                    f"d{i} falls outside range {hi}..{lo}", line)
            _put(dmats, i, _parse_matrix(body, ring, line), f"d{i}", line)
        elif key.split()[0] == "twists":
            i = _part_index(key, "twists", line)
            _put(twists, i, _parse_twists(ring, body, line),
                 f"twists {i}", line)
        elif key.split()[0] == "rank":
            i = _part_index(key, "rank", line)
            _put(ranks, i, _parse_rank(body, line), f"rank {i}", line)
        else:
            raise ParseError(f"unknown complex part {key!r}", line)
    sess.complexes[name] = _build_complex(
        ring, name, hi, lo, dmats, twists, ranks, line)


def _put(parts: dict, key, value, label: str, line: int):
    """Record one part of a declaration; a part given twice is an error."""
    if key in parts:
        raise ParseError(f"{label} given twice", line)
    parts[key] = value


def _part_index(key: str, word: str, line: int) -> int:
    toks = key.split()
    if len(toks) != 2:
        raise ParseError(f"expected `{word} <degree> = ...`", line)
    try:
        return int(toks[1])
    except ValueError:
        raise ParseError(f"bad degree in {key!r}", line) from None


def _build_complex(ring, name, hi, lo, dmats, twists, ranks, line):
    # each matrix pins the ranks of its endpoints; explicit rank/twists
    # fill in degrees no differential touches
    sizes = dict(ranks)
    for i, tw in twists.items():
        n = len(tw)
        if i in sizes and sizes[i] != n:
            raise ParseError(
                f"rank and twists disagree at degree {i}", line)
        sizes[i] = n
    for i, rows in dmats.items():
        nr, nc = len(rows), len(rows[0]) if rows else 0
        for deg, n in ((i, nc), (i - 1, nr)):
            if sizes.setdefault(deg, n) != n:
                raise ParseError(
                    f"inconsistent rank at degree {deg}", line)
    mods = {}
    for i in range(lo, hi + 1):
        n = sizes.get(i, 0)
        if n:
            mods[i] = free_module(ring, twists.get(i, [0] * n))
    diffs = {}
    try:
        for i, rows in dmats.items():
            if not rows or not rows[0]:
                continue
            if i not in mods or i - 1 not in mods:
                raise VerificationError(
                    f"d{i} touches a zero term", line)
            diffs[i] = free_hom_from_polys(mods[i], mods[i - 1], rows)
        return Complex(ring, mods, diffs, check=True, label=name)
    except (ModuleError, ComplexError) as e:
        raise VerificationError(str(e), line) from e


_RING_BODY_HEADS = ("artin(", "poly(")


def _bind_ring(sess: Session, text: str, line: int, default_field):
    name, _, body = text.partition("=")
    name = name.strip()
    body = body.strip()
    if not name.isidentifier() or not body:
        raise ParseError(f"cannot parse statement {text!r}", line)
    if not body.startswith(_RING_BODY_HEADS):
        raise ParseError(
            "ring declarations use artin(...) or poly(...)", line,
            len(text) - len(body) + 1)
    if default_field and ";" not in body:
        head, _, tail = body.partition("(")
        body = f"{head}({default_field}; {tail}"
    sess.bind(name, line)
    try:
        sess.rings[name] = make_ring(body)
    except (ValueError, LinalgError, BudgetExceeded) as e:
        raise ParseError(f"bad ring declaration: {e}", line) from e


def parse(source: str, default_field: str | None = None) -> Session:
    """Build a session from script text, verifying every literal."""
    sess = Session()
    for text, line in _logical_statements(source):
        word = text.split()[0]
        try:
            if word == "module":
                _bind_module(sess, text, line)
            elif word == "complex":
                _bind_complex(sess, text, line)
            elif word in COMMAND_WORDS:
                sess.commands.append((_parse_command(text, line), line))
            elif "=" in text:
                _bind_ring(sess, text, line, default_field)
            else:
                raise ParseError(f"cannot parse statement {text!r}", line)
        except MemoryError as e:
            raise ParseError(str(e) or "out of memory", line) from e
    return sess


def _parse_command(text: str, line: int):
    toks = text.split()
    verb = toks[0]
    if verb == "corpus":
        if len(toks) != 1:
            raise ParseError("corpus takes no arguments", line)
        return ("corpus",)
    if verb == "level":
        if len(toks) != 3:
            raise ParseError("expected `level <class> <name>`", line)
        try:
            cls = normalize_class(toks[1])
        except LevelError as e:
            raise ParseError(str(e), line) from e
        return ("level", cls, toks[2])
    if verb in DIM_KINDS or verb in ("homology", "bass", "depth"):
        if len(toks) != 2:
            raise ParseError(f"expected `{verb} <name>`", line)
        return (verb, toks[1])
    if verb in ("resolve", "adams", "splice"):
        if len(toks) not in (2, 3):
            raise ParseError(f"expected `{verb} <name> [n]`", line)
        n = None
        if len(toks) == 3:
            try:
                n = int(toks[2])
            except ValueError:
                raise ParseError(f"bad count {toks[2]!r}", line) from None
            least = 0 if verb == "resolve" else 1
            if n < least:
                raise ParseError(f"{verb} needs a count of at least {least}",
                                 line)
        return (verb, toks[1], n)
    raise ParseError(f"unknown command {verb!r}", line)


# ---------------------------------------------------------------- running


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return f"<{type(obj).__name__}>"


def _homology_payload(x: Complex) -> dict:
    hd = x.hdata()
    per = {}
    for i in x.support():
        h = hd.homology(i)
        if h.is_zero_module():
            continue
        if h.mode == "artin":
            per[str(i)] = {"dim": h.dim, "generators": len(h.min_gens())}
        else:
            per[str(i)] = {"generators": h.ngens,
                           "generator_twists": list(h.gen_twists)}
    return {"per_degree": per, "exact": not per}


def _first_failed_route(rep) -> bool:
    return rep.status in ("at_least", "inconclusive")


def run_command(sess: Session, cmd, config, line: int = 0) -> dict:
    verb = cmd[0]
    out = {"command": verb}
    inconclusive = False
    if verb == "corpus":
        from .corpus import run_corpus
        table = run_corpus(config.get("corpus_filter"))
        out.update(table)
        inconclusive = not table["all_ok"]
    elif verb == "homology":
        out["name"] = cmd[1]
        out.update(_homology_payload(sess.as_complex(cmd[1], line)))
    elif verb == "resolve":
        x = sess.as_complex(cmd[1], line)
        length = cmd[2] if cmd[2] is not None else config["cutoff"]
        res = semiprojective_resolution(x, ceiling=x.max_deg + length)
        out["name"] = cmd[1]
        out["resolution"] = res.summary()
    elif verb in DIM_KINDS:
        obj = sess.object(cmd[1], line)
        rep = dimension_report(obj, verb, window=config["cutoff"])
        out["name"] = cmd[1]
        out["report"] = rep.to_dict()
        inconclusive = _first_failed_route(rep)
    elif verb == "depth":
        out["name"] = cmd[1]
        out["depth"] = depth_of(sess.object(cmd[1], line))
    elif verb == "adams":
        x = sess.as_complex(cmd[1], line)
        n = cmd[2] if cmd[2] is not None else config["budget"]
        out["name"] = cmd[1]
        out["tower"] = adams_tower(x, n).summary()
    elif verb == "splice":
        x = sess.as_complex(cmd[1], line)
        n = cmd[2] if cmd[2] is not None else config["budget"]
        tower = adams_tower(x, n)
        n = min(n, len(tower.steps))
        rep = verify_splice(tower, n)
        out["name"] = cmd[1]
        out["splice"] = {"layers": rep["layers"], "ok": rep["ok"],
                         "per_degree": {str(k): v for k, v
                                        in rep["per_degree"].items()}}
        inconclusive = not rep["ok"]
    elif verb == "level":
        _, cls, name = cmd
        x = sess.as_complex(name, line)
        rep = level_report(x, cls, budget=config["budget"],
                           window=config["cutoff"])
        payload = rep.to_dict()
        payload["verified"] = rep.verify()
        out["name"] = name
        out["certificate"] = payload
        inconclusive = rep.verdict[0] != "exact"
    elif verb == "bass":
        x = sess.as_complex(cmd[1], line)
        rep = bass_check(x, full=True)
        out["name"] = cmd[1]
        out["bass"] = rep
        inconclusive = rep.get("applies") and rep.get("level_inj") is None
    else:  # pragma: no cover - _parse_command rejects unknown verbs
        raise ValueError(f"unknown command {verb!r}")
    out["inconclusive"] = bool(inconclusive)
    return out


def run_session(sess: Session, config) -> dict:
    reports = [run_command(sess, cmd, config, line)
               for cmd, line in sess.commands]
    return {
        "config": {"budget": config["budget"], "cutoff": config["cutoff"]},
        "reports": reports,
    }


# ----------------------------------------------------------- human report


def _human_lines(payload: dict):
    for rep in payload["reports"]:
        verb = rep["command"]
        name = rep.get("name", "")
        if verb == "homology":
            if rep["exact"]:
                yield f"homology {name}: exact"
            else:
                degs = ", ".join(f"H_{i}: {v}" for i, v in
                                 sorted(rep["per_degree"].items(),
                                        key=lambda kv: int(kv[0])))
                yield f"homology {name}: {degs}"
        elif verb == "resolve":
            ranks = rep["resolution"]["ranks"]
            text = ", ".join(f"{i}: {r}" for i, r in sorted(
                ranks.items(), key=lambda kv: int(kv[0])))
            yield f"resolve {name}: ranks {{{text}}}"
        elif verb in DIM_KINDS:
            r = rep["report"]
            val = {"exact": str(r["value"]), "infinite": "infinite",
                   "at_least": f">= {r.get('lower')}",
                   "out_of_scope": "out of scope"}.get(
                       r["status"], r["status"])
            yield f"{verb} {name} = {val}"
        elif verb == "depth":
            yield f"depth {name} = {rep['depth']}"
        elif verb == "adams":
            ranks = [st["cover_ranks"] for st in rep["tower"]["steps"]]
            yield (f"adams {name}: {rep['tower']['layers']} layers, "
                   f"cover ranks {ranks}")
        elif verb == "splice":
            s = rep["splice"]
            yield (f"splice {name}: {s['layers']} layers, "
                   f"{'all exact' if s['ok'] else 'FAILED'}")
        elif verb == "level":
            cert = rep["certificate"]
            verdict = cert.get("verdict") or ["unknown"]
            text = " ".join(str(v) for v in verdict)
            flag = "" if cert.get("verified") else " (UNVERIFIED)"
            yield f"level {cert['class']} {name}: {text}{flag}"
        elif verb == "bass":
            b = rep["bass"]
            if b.get("applies"):
                yield (f"bass {name}: applies, level_Inj = "
                       f"{b['level_inj']}")
            else:
                yield f"bass {name}: hypothesis not met ({b['reason']})"
        elif verb == "corpus":
            for row in rep["rows"]:
                mark = "pass" if row["ok"] else "FAIL"
                yield (f"  [{mark}] {row['name']}: expected "
                       f"{row['expected']}, got {row['got']}")
            yield (f"corpus: {rep['passed']}/{rep['total']} passed"
                   if rep["total"] else "corpus: no cases selected")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="levelcert",
        description="run a session script of ring, module, and complex "
                    "declarations plus report commands")
    ap.add_argument("script", help="script path, or - for stdin")
    ap.add_argument("--field", default=None,
                    help="default coefficient field for ring "
                         "declarations that omit one")
    ap.add_argument("--cutoff", type=int, default=6,
                    help="resolution window for dimension reports")
    ap.add_argument("--budget", type=int, default=4,
                    help="tower depth for level bounds")
    ap.add_argument("--out", default=None,
                    help="write the JSON report to this path")
    ap.add_argument("--corpus-filter", default=None,
                    help="substring filter for corpus rows")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.budget < 1:
        print("error: --budget needs a tower depth of at least 1",
              file=sys.stderr)
        return 1
    config = {"cutoff": args.cutoff, "budget": args.budget,
              "corpus_filter": args.corpus_filter}
    try:
        if args.script == "-":
            source = sys.stdin.read()
        else:
            with open(args.script, encoding="utf-8") as fh:
                source = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        sess = parse(source, default_field=args.field)
        payload = _jsonable(run_session(sess, config))
    except (ParseError, VerificationError, LevelError, ModuleError,
            ComplexError, ResolutionError, AdamsError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for line in _human_lines(payload):
        print(line)
    if any(rep["inconclusive"] for rep in payload["reports"]):
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
