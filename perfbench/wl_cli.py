"""cli: one ``python -m newtonkit.cli`` subprocess per operation.

Every operation pays for interpreter start-up, import, argparse, a freshly
built root datum and JSON rendering, so work moved into import or into
per-datum set-up shows here as a cost even when it speeds up strata and
points.  The commands cover every subcommand except verify-all, on small
and medium inputs, some with --table and some with --in FILE, plus inputs
documented to end in exit 1 (usage error) or exit 2 (domain error).

One operation is kept although it fails: ``hasse --in FILE`` where FILE
holds a JSON array.  run() calls .items() on the parsed value outside its
error handling, so the command ends in a traceback.  It counts as failed
until it exits 1 or 2 with an error JSON and no traceback.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import newtonkit as nk

import checks
from harness import OUT, ROOT, Op, OpFailed, child_env
from wl_points import symmetric_polygon_half

SCHEMA = "newtonkit/1"
IN_DIR = OUT / "cli-in"
MIN_ROUNDS = 3

DATUMS = [("A", 2, ["--table"]), ("B", 3, []), ("C", 4, []),
          ("D", 5, ["--labeling", "paper"]), ("E6", 6, []), ("E7", 7, []), ("E8", 8, []),
          ("F4", 4, []), ("G2", 2, [])]
BGMU = [("A", 3, 2), ("B", 4, 1), ("C", 3, 3), ("C", 5, 5), ("D", 5, 1)]
BGMU_FROM_FILE = ("C", 4, 4)
MAXIMAL = [("C", 4, 4, True), ("D", 5, 5, True), ("A", 5, 3, True), ("B", 5, 1, False)]
LEQ_TYPES = [("C", 2), ("B", 3), ("G2", 2)]
PRIMES = [3, 5, 7, 11, 13, 101, 7919]
USAGE_ERRORS = [["frobnicate"], [], ["hasse", "--w", "two", "--p", "3"]]
DOMAIN_ERRORS = [["datum", "--type", "B", "--rank", "1"],
                 ["datum", "--type", "A", "--rank", "9"],
                 ["bgmu", "--type", "A", "--rank", "2", "--node", "5"],
                 ["hasse", "--w", "1", "--p", "9"],
                 ["bgmu", "--in", "perfbench/out/cli-in/missing.json"]]
# Input files, relative to the checkout; written by write_inputs().
IN_FILES = {"bgmu.json": {"type": "C", "rank": 4, "node": 4},
            "hasse.json": {"w": 2, "p": 5},
            "hasse-array.json": [2, 3]}


def _in(name: str) -> str:
    return f"perfbench/out/cli-in/{name}"


def write_inputs() -> None:
    IN_DIR.mkdir(parents=True, exist_ok=True)
    for name, doc in IN_FILES.items():
        (IN_DIR / name).write_text(json.dumps(doc), encoding="utf-8")


def rs(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def vs(v) -> list[str]:
    return [rs(Fraction(x)) for x in v]


def build(seed: int):
    """Every command as (argv, expected exit code, payload check), seed order."""
    rng = random.Random(seed)
    cmds = []
    for t, n, extra in DATUMS:
        cmds.append((["datum", "--type", t, "--rank", str(n), *extra], 0, ("datum", t, n, extra)))
    for t, n, k in BGMU:
        cmds.append((["bgmu", "--type", t, "--rank", str(n), "--node", str(k)], 0,
                     ("bgmu", t, n, k)))
    cmds.append((["bgmu", "--in", _in("bgmu.json")], 0, ("bgmu", *BGMU_FROM_FILE)))
    for t, n, k, top in MAXIMAL:
        argv = ["maximal", "--type", t, "--rank", str(n), "--node", str(k)]
        cmds.append((argv + (["--exclude-top"] if top else []), 0, ("maximal", t, n, k, top)))
    for t, n in LEQ_TYPES:
        datum = nk.build_datum(t, n)
        x, y = (checks.dominant_rep(t, datum.simple_roots,
                                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(datum.ambient_dim)]) for _ in range(2))
        cmds.append((["leq", "--type", t, "--rank", str(n), "--x", json.dumps(vs(x)),
                      "--y", json.dumps(vs(y)), "--verify"], 0, ("leq", t, n, x, y)))
    halves = []
    for _ in range(2):
        n = rng.randint(1, 6)
        half = symmetric_polygon_half(rng, n)
        halves.append(half)
        cmds.append((["slopes", "--nu", json.dumps(vs(half)), "--dim", str(2 * n)], 0,
                     ("slopes", half)))
    for j, half in enumerate(halves):
        slopes, mults = checks.profile(half)
        doc = json.dumps({"slopes": vs(slopes), "mults": list(mults), "polarized": True})
        extra = ["--table"] if j == 0 else []
        cmds.append((["degrees", "--profile", doc, *extra], 0, ("degrees", slopes, mults)))
        i = rng.randint(1, len(slopes))
        cmds.append((["uniqueness", "--profile", doc, "--i", str(i)], 0, ("uniqueness",)))
    for shape in ("siegel", "siegel", "gl"):
        p = rng.choice(PRIMES[:5])
        if shape == "siegel":
            n = rng.randint(1, 3)
            ts = sorted(Fraction(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(n))
            full = ts + [2 * ts[-1] + 1 - x for x in reversed(ts)]
            value = checks.siegel_root_sum(full)
        else:
            full = sorted((Fraction(rng.randint(0, 3)) for _ in range(rng.randint(2, 4))),
                          reverse=True)
            value = checks.gl_root_sum(full)
        cmds.append((["mepsilon", "--full", json.dumps(vs(full)), "--shape", shape,
                      "--p", str(p)], 0, ("mepsilon", value, p)))
    for _ in range(2):
        ts = sorted(Fraction(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(rng.randint(1, 4)))
        cmds.append((["lambdag", "--t", json.dumps(vs(ts)), "--s", rs(2 * ts[-1])], 0,
                     ("lambdag", sum(ts, Fraction(0)))))
    for _ in range(2):
        w, p = rng.randint(1, 12), rng.choice(PRIMES)
        cmds.append((["hasse", "--w", str(w), "--p", str(p)], 0, ("hasse", w, p)))
    cmds.append((["hasse", "--in", _in("hasse.json")], 0, ("hasse", 2, 5)))
    for argv in USAGE_ERRORS:
        cmds.append((argv, 1, ("usage",)))
    for argv in DOMAIN_ERRORS:
        cmds.append((argv, 2, ("domain",)))
    # the kept failing operation: it must end in exit 1 or 2 with an error JSON
    cmds.append((["hasse", "--in", _in("hasse-array.json")], (1, 2), ("domain",)))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------- checks

def untable(text: str) -> dict:
    """Rebuild the document from --table output (dotted keys, JSON leaves)."""
    doc: dict = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = json.loads(value.strip())

    def lists(node):
        if not isinstance(node, dict):
            return node
        node = {k: lists(v) for k, v in node.items()}
        if node and sorted(node) == sorted(str(i) for i in range(len(node))):
            return [node[str(i)] for i in range(len(node))]
        return node

    return lists(doc)


def _datum_payload(payload, t, n, extra) -> str | None:
    roots = [tuple(Fraction(x) for x in r) for r in payload["simple_roots"]]
    coroots = [checks.coroot(a) for a in roots]
    if (payload["type"], payload["rank"], len(roots)) != (t, n, n):
        return "type or rank differs"
    if payload["simple_coroots"] != [vs(c) for c in coroots]:
        return "coroots are not 2a/(a,a)"
    cartan = [[int(checks.dot(roots[i], coroots[j])) for j in range(n)] for i in range(n)]
    if payload["cartan"] != cartan or checks.determinant(cartan) != checks.cartan_determinant(t, n):
        return "Cartan matrix differs"
    for name, partner in (("fundamental_coweights", roots), ("fundamental_weights", coroots)):
        vectors = [[Fraction(x) for x in w] for w in payload[name]]
        if [[checks.dot(w, a) for a in partner] for w in vectors] != \
                [[int(i == j) for j in range(n)] for i in range(n)]:
            return f"{name} are not dual"
    if set(payload["special_roots"]) != checks.special_nodes(t, n):
        return "special roots differ"
    requested = extra[1] if "--labeling" in extra else "bourbaki"
    if payload["labeling"]["requested"] != requested:
        return "labeling not echoed"
    return None


def _bgmu_payload(payload, t, n, k) -> str | None:
    roots = nk.build_datum(t, n).simple_roots
    mubar = checks.fundamental_coweight(roots, k)
    if payload["mu"] != vs(mubar) or payload["mubar"] != vs(mubar):
        return "mu differs from the fundamental coweight"
    points = set()
    for e in payload["elements"]:
        nu = tuple(Fraction(x) for x in e["nu"])
        ok, cert = checks.membership(t, roots, nu, mubar)
        if not ok or (vs(cert[0]), sorted(cert[1])) != (e["c"], e["J"]):
            return f"element {e['nu']} fails the membership criterion"
        points.add(nu)
    if t == "A":
        model = checks.type_a_points(n, k)
    elif t == "C" and k == n:
        model = checks.type_c_points(n)
    else:  # no polygon model: the maximal element below the top, by own order tests
        below = {x for x in points - {mubar}
                 if not any(y != x and checks.newton_leq(t, roots, x, y)
                            for y in points - {mubar})}
        return None if below == {checks.below_top(roots, k)} else "maximal element differs"
    return None if points == model else f"{len(points)} elements, expected {len(model)}"


def _maximal_payload(payload, t, n, k, top) -> str | None:
    roots = nk.build_datum(t, n).simple_roots
    mubar = checks.fundamental_coweight(roots, k)
    want = checks.below_top(roots, k) if top else mubar
    return None if payload["maximal"] == [vs(want)] else "maximal set differs"


def _payload_check(spec, payload) -> str | None:
    kind = spec[0]
    if kind == "datum":
        return _datum_payload(payload, *spec[1:])
    if kind == "bgmu":
        return _bgmu_payload(payload, *spec[1:])
    if kind == "maximal":
        return _maximal_payload(payload, *spec[1:])
    if kind == "leq":
        _, t, n, x, y = spec
        want = checks.newton_leq(t, nk.build_datum(t, n).simple_roots, x, y)
        ok = payload["leq"] is want and payload["hull_oracle"] is want
        return None if ok else "order answer differs"
    if kind == "slopes":
        slopes, mults = checks.profile(spec[1])
        ok = payload == {"schema": SCHEMA, "slopes": vs(slopes), "mults": list(mults),
                         "polarized": True}
        return None if ok else "slope profile differs"
    if kind == "degrees":
        _, slopes, mults = spec
        want = {"schema": SCHEMA, "d": vs(checks.fold(slopes, mults)),
                "delta": rs(checks.margin(slopes)) if len(slopes) > 1 else None,
                "heights": [sum(mults[: i + 1]) for i in range(len(mults))]}
        return None if payload == want else "degrees differ"
    if kind == "uniqueness":
        ok = payload["unique"] is True and payload["violating_height"] is None
        return None if ok else "uniqueness fails on a polarized profile"
    if kind == "mepsilon":
        _, value, p = spec
        count = str(p ** value.numerator) if value.denominator == 1 else None
        ok = payload["valuation"] == rs(value) and payload["count"] == count
        return None if ok else "m_epsilon valuation differs"
    if kind == "lambdag":
        return None if payload["valuation"] == rs(spec[1]) else "lambda_G valuation differs"
    if kind == "hasse":
        _, w, p = spec
        return None if payload["hasse_number"] == p ** w - 1 else "Hasse number differs"
    raise ValueError(kind)


def check_output(argv, code, spec, got, first) -> str | None:
    """Exit code and byte-identical stdout in every round; schema and values
    once, on the first round's output."""
    returncode, stdout, stderr = got
    expected = code if isinstance(code, tuple) else (code,)
    if returncode not in expected:
        return f"exit {returncode}, expected {code}"
    if "stdout" not in first:
        first["stdout"] = stdout
        first["verdict"] = check_document(argv, spec, stdout, stderr)
    if first["stdout"] != stdout:
        return "stdout bytes differ from the first round"
    return first["verdict"]


def check_document(argv, spec, stdout, stderr) -> str | None:
    if spec[0] == "usage":
        ok = stdout == "" and stderr.startswith("usage error")
        return None if ok else "usage error not reported as documented"
    try:
        doc = untable(stdout) if "--table" in argv else json.loads(stdout)
    except (ValueError, KeyError) as exc:
        return f"stdout does not parse: {exc}"
    payload = doc.get("payload", {})
    if payload.get("schema") != SCHEMA:
        return "schema missing"
    if spec[0] == "domain":
        ok = doc.get("status") == "error" and isinstance(payload.get("error"), str) \
            and payload["error"] != ""
        return None if ok else "domain error not reported as documented"
    if doc.get("status") != "ok":
        return "status is not ok"
    return _payload_check(spec, payload)


def crashed(returncode: int, stderr: str) -> bool:
    return returncode not in (0, 1, 2) or "Traceback" in stderr


def run_cli(argv, prefix=None):
    cmd = prefix or [sys.executable, "-m", "newtonkit.cli"]
    proc = subprocess.run([*cmd, *argv], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    if crashed(proc.returncode, proc.stderr):
        raise OpFailed(argv)
    return proc.returncode, proc.stdout, proc.stderr


def ops(seed: int, prefix=None) -> list[Op]:
    write_inputs()
    out = []
    for argv, code, spec in build(seed):
        first: dict = {}
        out.append(Op(" ".join(argv) or "(no arguments)",
                      lambda argv=argv: run_cli(argv, prefix),
                      lambda got, argv=argv, code=code, spec=spec, first=first:
                      check_output(argv, code, spec, got, first)))
    return out
