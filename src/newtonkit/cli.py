"""Batch command line front end.

Every computation is exposed as a subcommand printing JSON (or an aligned
table with --table) to stdout.  Output bytes are deterministic for
identical inputs: keys are sorted and rationals are rendered as "p/q" in
lowest terms; elapsed time goes to stderr.  Exit codes: 0 success, 1 usage
error, 2 domain error.

This module is the only one that builds or parses a ``newtonkit/1``
document: the library layers return Fractions and dataclasses, and the
handlers below turn them into JSON.

Each process loads only the layers its subcommand runs: the brute-force
oracles (``newtonkit.oracles``) are imported by ``leq --verify`` and
``verify-all`` alone, and the verify-all check table lives in
``newtonkit.verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import hecke, kottwitz, muordinary, rootdata
from .rationals import rat, rat_str, vec_str

SCHEMA = "newtonkit/1"

_LABELING_NOTES = {
    "D": "fork nodes: classical alpha_{n-1} and alpha_{n-1}^+ are Bourbaki "
         "nodes n-1 and n",
    "E7": "the coefficient-one (minuscule) node is Bourbaki node 7; sources "
          "that call it alpha_1 number the long chain in the other direction",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Subcommands(argparse._SubParsersAction):
    """Keeps the chosen subcommand's parser and arguments, for --in."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.reparse = (self.choices[values[0]], values[1:])


def _json(text: str):
    """The JSON value of text; input nested too deeply for the decoder is a
    ValueError like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# The largest rank the CLI accepts: the Kottwitz walk keeps 2^rank masks.
MAX_RANK = 8


def _get_datum(args) -> rootdata.RootDatum:
    if args.rank > MAX_RANK:
        raise ValueError(f"rank {args.rank} exceeds the rank cap {MAX_RANK}")
    sigma = args.sigma
    if isinstance(sigma, str) and sigma.startswith("["):
        sigma = _json(sigma)
    return rootdata.build_datum(args.type, args.rank, sigma)


def _node_coweight(datum, node: int):
    coweights = rootdata.fundamental_coweights(datum)
    if not 1 <= node <= datum.rank:
        raise ValueError(f"node {node} out of range 1..{datum.rank}")
    return datum.cochar(coweights[node - 1])


def _vec(arg: str) -> tuple[Fraction, ...]:
    """A JSON array of rationals."""
    doc = _json(arg)
    if not isinstance(doc, list):
        raise ValueError(f"expected a JSON array of rationals, got {type(doc).__name__}")
    return tuple(rat(x) for x in doc)


def _cmd_datum(args):
    datum = _get_datum(args)
    return {
        "type": datum.type_label,
        "rank": datum.rank,
        "sigma": list(datum.sigma),
        "ambient_dim": datum.ambient_dim,
        "cartan": [list(r) for r in datum.cartan],
        "simple_roots": [vec_str(r) for r in datum.simple_roots],
        "simple_coroots": [vec_str(r) for r in datum.simple_coroots],
        "fundamental_weights": [vec_str(w) for w in rootdata.fundamental_weights(datum)],
        "fundamental_coweights": [vec_str(w) for w in rootdata.fundamental_coweights(datum)],
        "special_roots": sorted(rootdata.special_roots(datum)),
        "labeling": _labeling_payload(datum, args.labeling),
    }


def _labeling_payload(datum, requested: str) -> dict:
    aliases = {}
    if datum.type_label == "D":
        n = datum.rank
        aliases[f"alpha_{n - 1}"] = n - 1
        aliases[f"alpha_{n - 1}+"] = n
    if datum.type_label == "E7":
        # sources numbering the long chain from the far end call node 7 alpha_1
        aliases["alpha_1 (reversed chain)"] = 7
    return {
        "requested": requested,
        "node_map": {str(i): i for i in range(1, datum.rank + 1)},
        "aliases": aliases,
        "note": _LABELING_NOTES.get(datum.type_label, "classical labels coincide "
                                    "with Bourbaki labels"),
    }


def _kottwitz_set(args) -> kottwitz.KottwitzSet:
    return kottwitz.enumerate_bgmu(_node_coweight(_get_datum(args), args.node))


def _cmd_bgmu(args):
    ks = _kottwitz_set(args)
    return {
        "mu": vec_str(ks.mu.coords),
        "mubar": vec_str(ks.mubar.coords),
        "elements": [{"nu": vec_str(e.nu.coords), "c": vec_str(e.c), "J": sorted(e.J)}
                     for e in ks.elements],
    }


def _cmd_maximal(args):
    mx = kottwitz.maximal_elements(_kottwitz_set(args), exclude_top=args.exclude_top)
    return {"maximal": [vec_str(e.nu.coords) for e in sorted(mx, key=lambda e: e.nu.coords)]}


def _cmd_leq(args):
    datum = _get_datum(args)
    x = datum.cochar(_vec(args.x))
    y = datum.cochar(_vec(args.y))
    if not (rootdata.is_dominant(x) and rootdata.is_dominant(y)):
        raise ValueError("leq compares dominant points: --x and --y must pair "
                         "non-negatively with every simple root")
    result = {"leq": kottwitz.newton_leq(x, y)}
    if args.verify:
        from .oracles import convex_hull_membership

        result["hull_oracle"] = convex_hull_membership(x, y)
    return result


def _cmd_slopes(args):
    profile = muordinary.profile_from_newton(_vec(args.nu), args.dim)
    return {"slopes": vec_str(profile.slopes), "mults": list(profile.mults),
            "polarized": profile.polarized}


def _profile(arg: str) -> muordinary.SlopeProfile:
    """A JSON object: slopes, an array of rationals; mults, an array of JSON
    integers or ASCII digit strings; polarized, if given, a JSON boolean."""
    doc = _json(arg)
    if not isinstance(doc, dict):
        raise ValueError(f"a profile is a JSON object, not {type(doc).__name__}")
    missing = [key for key in ("slopes", "mults") if key not in doc]
    if missing:
        raise ValueError(f"the profile has no {' or '.join(missing)}")
    mults = doc["mults"]
    if not (isinstance(doc["slopes"], list) and isinstance(mults, list)):
        raise ValueError("slopes and mults must be JSON arrays")
    if any(isinstance(m, bool) or not isinstance(m, (int, str)) for m in mults):
        raise ValueError("multiplicities must be integers or digit strings")
    for m in mults:
        # int() would also take " 2", "+1", "1_0" and non-ASCII digits
        if isinstance(m, str) and not (m.isascii() and m.isdigit()):
            raise ValueError(f"multiplicity {m!r} is not a string of ASCII digits")
    polarized = doc.get("polarized", False)
    if not isinstance(polarized, bool):
        raise ValueError(f"polarized must be a boolean, not {type(polarized).__name__}")
    return muordinary.SlopeProfile(tuple(rat(s) for s in doc["slopes"]),
                                   tuple(int(m) for m in mults), polarized=polarized)


def _cmd_degrees(args):
    profile = _profile(args.profile)
    dd = muordinary.degrees(profile)
    return {
        "d": [rat_str(x) for x in dd.d],
        "delta": rat_str(dd.delta) if dd.delta is not None else None,
        "heights": list(profile.heights),
    }


def _cmd_uniqueness(args):
    dd = muordinary.degrees(_profile(args.profile))
    ok, bad_h = muordinary.check_uniqueness(dd, args.i)
    return {"unique": ok, "violating_height": bad_h}


def _cmd_mepsilon(args):
    full = _vec(args.full)
    hecke.require_prime(args.p)
    if len(full) > 2 * MAX_RANK:
        raise ValueError(f"--full is longer than twice the rank cap {MAX_RANK}")
    if not full or (args.shape == "siegel" and len(full) % 2):
        raise ValueError("--full must be non-empty, and of even length for --shape siegel")
    if args.shape == "siegel":
        roots = hecke.siegel_radical_roots(len(full) // 2, lower=not args.upper)
    elif args.shape == "gl":
        roots = hecke.gl_upper_roots(len(full))
    else:
        raise ValueError(f"unknown radical shape {args.shape!r}")
    val = hecke.m_epsilon_valuation(full, roots)
    count = None
    if val.denominator == 1:
        count = str(hecke.bounded_power(args.p, int(val), "the coset count p^valuation"))
    return {"valuation": rat_str(val), "count": count}


def _cmd_lambdag(args):
    t = _vec(args.t)
    eps = hecke.HeckeValuation.from_blocks(t, rat(args.s), args.p)
    return {"valuation": rat_str(hecke.lambda_g_valuation(eps))}


def _cmd_hasse(args):
    return {"hasse_number": hecke.hasse_number(args.w, args.p)}


def _cmd_verify_all(args):
    from .verify import CHECKS

    report = [check for verify in CHECKS for check in verify()]
    failures = sum(1 for _, passed in report if not passed)
    return {
        "checks": [{"name": name, "pass": passed} for name, passed in report],
        "total": len(report),
        "failures": failures,
        "all_pass": failures == 0,
    }


# "required": True is checked by run() after --in is read, so the file can
# supply the flag; argparse itself never sees it.
_TYPE_ARGS = (
    ("--type", {"required": True}),
    ("--rank", {"type": int, "required": True}),
    ("--sigma", {"default": None, "help": "identity, flip, or a JSON permutation"}),
)
_NODE = ("--node", {"type": int, "required": True})
_P = ("--p", {"type": int, "default": 3})

# Every subcommand, in --help order: its handler and its argument specs.
_SUBCOMMANDS = {
    "datum": (_cmd_datum, (*_TYPE_ARGS, (
        "--labeling", {"choices": ["paper", "bourbaki"], "default": "bourbaki"}))),
    "bgmu": (_cmd_bgmu, (*_TYPE_ARGS, _NODE)),
    "maximal": (_cmd_maximal, (*_TYPE_ARGS, _NODE, (
        "--exclude-top", {"action": "store_true", "dest": "exclude_top"}))),
    "leq": (_cmd_leq, (*_TYPE_ARGS, ("--x", {"required": True}), ("--y", {"required": True}),
                       ("--verify", {"action": "store_true"}))),
    "slopes": (_cmd_slopes, (("--nu", {"required": True}),
                             ("--dim", {"type": int, "required": True}))),
    "degrees": (_cmd_degrees, (("--profile", {"help": "SlopeProfile JSON", "required": True}),)),
    "uniqueness": (_cmd_uniqueness, (("--profile", {"required": True}),
                                     ("--i", {"type": int, "required": True}))),
    "mepsilon": (_cmd_mepsilon, (("--full", {"required": True}),
                                 ("--shape", {"default": "siegel"}),
                                 ("--upper", {"action": "store_true"}), _P)),
    "lambdag": (_cmd_lambdag, (("--t", {"required": True}), ("--s", {"default": "1"}), _P)),
    "hasse": (_cmd_hasse, (("--w", {"type": int, "required": True}),
                           ("--p", {"type": int, "required": True}))),
    "verify-all": (_cmd_verify_all, ()),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table", action="store_true", default=argparse.SUPPRESS,
                        help="aligned table output instead of JSON")
    common.add_argument("--in", dest="infile", metavar="FILE",
                        default=argparse.SUPPRESS,
                        help="read subcommand arguments from a JSON file")
    parser = _Parser(prog="newtonkit", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", action=_Subcommands)
    for name, (_, specs) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flags, kwargs in specs:
            p.add_argument(flags, **{**kwargs, "required": False})
    return parser


def _render_table(payload, out):
    def rows(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from rows(f"{prefix}{key}.", value[key])
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            for idx, item in enumerate(value):
                yield from rows(f"{prefix}{idx}.", item)
        else:
            yield prefix.rstrip("."), json.dumps(value, sort_keys=True)

    table = list(rows("", payload))
    width = max((len(k) for k, _ in table), default=0)
    for key, value in table:
        out.write(f"{key.ljust(width)}  {value}\n")


def _emit(args, status: str, payload: dict) -> None:
    """Print one result, ok or error, as JSON or (--table) an aligned table."""
    result = {"status": status, "payload": {"schema": SCHEMA, **payload}}
    if getattr(args, "table", False):
        _render_table(result, sys.stdout)
    else:
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))


def _read_infile(args) -> argparse.Namespace:
    """args with the --in object parsed in front of the command line, each key
    as the flag of the same name (a switch takes true or false): the flag's
    type, choices and default apply, and a flag on the command line wins."""
    if not getattr(args, "infile", None):
        return args
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            doc = _json(fh.read())
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        parser, argv = args.reparse
        flags = {a.dest: a for a in parser._actions
                 if a.option_strings and a.dest not in ("help", "infile")}
        unknown = sorted(k for k in doc if k.replace("-", "_") not in flags)
        if unknown:
            raise ValueError(f"unknown keys {unknown} for {args.command}")
        tokens = []
        for key, value in doc.items():
            action = flags[key.replace("-", "_")]
            flag = action.option_strings[0]
            if action.nargs != 0:
                tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
            elif isinstance(value, bool):
                tokens += [flag] * value
            else:
                raise ValueError(f"{key} takes true or false, not {value!r}")
        return parser.parse_args(tokens + argv, namespace=args)
    except (OSError, ValueError, _UsageError) as exc:  # ValueError: also bad JSON or UTF-8
        raise ValueError(f"cannot read --in file: {exc}") from None


def _require(args, specs) -> None:
    """Name the required flags that neither the command line nor --in gave."""
    missing = [flags for flags, kwargs in specs if kwargs.get("required")
               and getattr(args, flags[2:].replace("-", "_")) is None]
    if missing:
        names = f"{', '.join(missing[:-1])} and {missing[-1]}" if missing[1:] else missing[0]
        raise ValueError(f"{names} {'are' if missing[1:] else 'is'} required "
                         "(flags or --in file)")


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        print("usage error: no subcommand given", file=sys.stderr)
        return 1
    handler, specs = _SUBCOMMANDS[args.command]
    try:
        args = _read_infile(args)
        _require(args, specs)
        start = time.monotonic()
        payload = handler(args)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        _emit(args, "error", {"error": str(exc)})
        return 2
    elapsed_ms = int((time.monotonic() - start) * 1000)
    _emit(args, "ok", payload)
    print(f"elapsed_ms={elapsed_ms}", file=sys.stderr)
    if args.command == "verify-all" and not payload["all_pass"]:
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
