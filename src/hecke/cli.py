"""Command-line interface.

Exit codes: 0 success (and "true" for the predicate verbs), 1 mathematical
false or a failed verification, 2 usage or input errors, 3 a resource cap.

Element expressions follow the grammar in `parsing`; the degree always
comes from --n.  Parsed and imported degrees and the minimal basis of the
centre fall under --enum-max; eigen searches and the registry's
centre-basis solve under --linalg-max, which only `eigen` and `verify` take.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .algebra import DEFAULT_CAPS, AlgebraContext, Caps, is_central
from .center import express_in_gamma, gamma_basis
from .errors import (FormatError, HeckeError, MismatchError,
                     NotCentralError, ResourceCapError)
from .parsing import (element_from_json, element_to_json, format_element,
                      format_scalar, parse_element, parse_scalar,
                      read_partition)
from .sqrtcenter import (catalog, eigen_search, h3_constraint_check,
                         in_sqrt_centre, sample_sqrt_h3)
from .verify import run_verify, statement_ids


def _add_caps(p: argparse.ArgumentParser, linalg: bool = False) -> None:
    p.add_argument("--enum-max", type=int, default=DEFAULT_CAPS.enum_max,
                   help="cap on the degree of anything that walks all of "
                        "S_n or parses an element (default %(default)s)")
    if linalg:  # only the verbs that can run a solve
        p.add_argument("--linalg-max", type=int, default=DEFAULT_CAPS.linalg_max,
                       help="cap on the degree of eigen searches and "
                            "centre-basis solves (default %(default)s)")


def _caps(args) -> Caps:
    linalg_max = getattr(args, "linalg_max", DEFAULT_CAPS.linalg_max)
    return Caps(enum_max=args.enum_max, linalg_max=linalg_max)


def _shape_key(lam) -> str:
    return ",".join(str(p) for p in lam)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hecke",
        description="Exact computations in the Hecke algebra of the "
                    "symmetric group over Z[v, v^-1] (q = v^2).")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("mul", help="multiply two elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("square", help="square an element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("central", help="test centrality (exit 0 iff central)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("sqrt-check",
                       help="test whether the square is central "
                            "(exit 0 iff it is)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("gamma", help="minimal basis of the centre")
    p.add_argument("n", type=int)
    p.add_argument("--lambda", dest="shape", default=None, metavar="PARTS",
                   help="one partition, e.g. 2,1,1; omit for the whole basis")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("express",
                       help="coordinates of a central element over the "
                            "minimal basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    p = sub.add_parser("eigen",
                       help="eigenvectors of multiplication by a "
                            "minimal-basis element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", required=True, metavar="PARTS",
                   help="partition naming the central element, e.g. 2,1")
    p.add_argument("--k", required=True, metavar="SCALAR",
                   help="candidate eigenvalue, e.g. 'q-1' or '-q'")
    p.add_argument("--json", action="store_true")
    _add_caps(p, linalg=True)

    p = sub.add_parser("catalog", help="known square roots at a degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sample-h3",
                       help="random degree-3 element whose square is central")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify",
                       help="run the statement registry (exit 0 iff no "
                            "failures)")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times (not byte-deterministic)")
    p.add_argument("--only", default=None, metavar="IDS",
                   help="comma-separated statement ids to run")
    p.add_argument("--list", action="store_true",
                   help="list the ids (of --only, if given) without running")
    _add_caps(p, linalg=True)

    p = sub.add_parser("export", help="write an element as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="output path, or - for stdout")
    p.add_argument("--basis", choices=("T", "Ttilde"), default="T")
    _add_caps(p)

    p = sub.add_parser("import", help="read an element JSON and print it")
    p.add_argument("file", metavar="FILE", help="input path, or - for stdin")
    p.add_argument("--json", action="store_true")
    _add_caps(p)

    return ap


def _print_element(el, as_json: bool) -> None:
    if as_json:
        print(json.dumps(element_to_json(el), sort_keys=True))
    else:
        print(format_element(el))


def _cmd_mul(args) -> int:
    caps = _caps(args)
    a = parse_element(args.a, args.n, caps)
    b = parse_element(args.b, args.n, caps)
    _print_element(a * b, args.json)
    return 0


def _cmd_square(args) -> int:
    a = parse_element(args.a, args.n, _caps(args))
    _print_element(a * a, args.json)
    return 0


def _cmd_central(args) -> int:
    a = parse_element(args.a, args.n, _caps(args))
    ok = is_central(a)
    if args.json:
        print(json.dumps({"n": args.n, "central": ok}))
    else:
        print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_sqrt_check(args) -> int:
    a = parse_element(args.a, args.n, _caps(args))
    rep = in_sqrt_centre(a)
    if args.json:
        print(json.dumps({"n": args.n, "in_sqrt": rep.in_sqrt,
                          "in_centre": rep.in_centre}, sort_keys=True))
    else:
        print(f"in_sqrt: {'true' if rep.in_sqrt else 'false'}")
        print(f"in_centre: {'true' if rep.in_centre else 'false'}")
    return 0 if rep.in_sqrt else 1


def _cmd_gamma(args) -> int:
    ctx = AlgebraContext(args.n, _caps(args))
    lam = None
    if args.shape is not None:
        lam = read_partition("--lambda", args.shape.split(","), args.n)
    gb = gamma_basis(ctx)
    if lam is not None:
        _print_element(gb[lam], args.json)
        return 0
    if args.json:
        doc = {_shape_key(lam): element_to_json(g) for lam, g in gb}
        print(json.dumps(doc, sort_keys=True))
    else:
        for lam, g in gb:
            print(f"{_shape_key(lam)}: {format_element(g)}")
    return 0


def _cmd_express(args) -> int:
    ctx = AlgebraContext(args.n, _caps(args))
    a = parse_element(args.a, args.n, ctx.caps)
    gb = gamma_basis(ctx)
    coords = express_in_gamma(a, gb)
    if args.json:
        print(json.dumps({_shape_key(lam): format_scalar(c)
                          for lam, c in coords.items()}, sort_keys=True))
    else:
        for lam, c in coords.items():
            print(f"{_shape_key(lam)}: {format_scalar(c)}")
    return 0


def _cmd_eigen(args) -> int:
    ctx = AlgebraContext(args.n, _caps(args))
    lam = read_partition("--gamma", args.gamma.split(","), args.n)
    gb = gamma_basis(ctx)
    k = parse_scalar(args.k)
    vecs = eigen_search(ctx, gb[lam], k)
    if args.json:
        print(json.dumps({"count": len(vecs),
                          "vectors": [element_to_json(v) for v in vecs]},
                         sort_keys=True))
    else:
        print(f"count: {len(vecs)}")
        for v in vecs:
            print(format_element(v))
    return 0


def _cmd_catalog(args) -> int:
    table = catalog(args.n)
    if args.json:
        print(json.dumps({name: element_to_json(el)
                          for name, el in table.items()}, sort_keys=True))
    else:
        for name, el in table.items():
            print(f"{name}: {format_element(el)}")
    return 0


def _cmd_sample_h3(args) -> int:
    h = sample_sqrt_h3(args.seed)
    branch = h3_constraint_check(h)
    if args.json:
        doc = element_to_json(h)
        doc["branch"] = branch
        print(json.dumps(doc, sort_keys=True))
    else:
        print(format_element(h))
        print(f"branch: {branch}")
    return 0


def _cmd_verify(args) -> int:
    caps = _caps(args)
    only = None if args.only is None else args.only.split(",")
    if args.list:
        for item_id in statement_ids(args.n_max, caps, only):
            print(item_id)
        return 0
    rep = run_verify(n_max=args.n_max, seed=args.seed, caps=caps, only=only)
    if args.json:
        sys.stdout.write(rep.to_json(timings=args.timings))
    else:
        sys.stdout.write(rep.to_text(timings=args.timings))
    return 0 if rep.passed else 1


def _cmd_export(args) -> int:
    a = parse_element(args.a, args.n, _caps(args))
    text = json.dumps(element_to_json(a, basis=args.basis), indent=2,
                      sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_import(args) -> int:
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}")
    except RecursionError:
        raise FormatError("JSON nested too deeply to read") from None
    el = element_from_json(doc, _caps(args))
    _print_element(el, args.json)
    return 0


_DISPATCH = {
    "mul": _cmd_mul,
    "square": _cmd_square,
    "central": _cmd_central,
    "sqrt-check": _cmd_sqrt_check,
    "gamma": _cmd_gamma,
    "express": _cmd_express,
    "eigen": _cmd_eigen,
    "catalog": _cmd_catalog,
    "sample-h3": _cmd_sample_h3,
    "verify": _cmd_verify,
    "export": _cmd_export,
    "import": _cmd_import,
}


# an option, or one written as --name=value; the options that take no value
_OPTION = re.compile(r"-h|--[a-z][a-z-]*(=.*)?", re.S)
_FLAGS = ("-h", "--help", "--json", "--list", "--timings")


def _join_scalar_options(argv: list[str]) -> list[str]:
    """Put a verb's options first, each joined to its value (`--k=-q`), and
    every other token after '--': values and elements may start with '-',
    as in `--k -q` or `-T[1]`, and argparse would read them as options."""
    if not argv or argv[0] not in _DISPATCH:
        return argv
    options, positionals = [], []
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok == "--":
            positionals += tokens
        elif not _OPTION.fullmatch(tok):
            positionals.append(tok)
        # a prefix of a flag is that flag, as argparse abbreviates it
        elif "=" in tok or any(f.startswith(tok) for f in _FLAGS):
            options.append(tok)
        else:
            value = next(tokens, None)
            options.append(tok if value is None else f"{tok}={value}")
    return [argv[0], *options] + (["--", *positionals] if positionals else [])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_scalar_options(argv))
    try:
        return _DISPATCH[args.verb](args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotCentralError, MismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HeckeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
