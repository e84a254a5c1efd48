"""Command-line interface.

Exit codes: 0 success (and "true" for the predicate verbs), 1 mathematical
false or a failed verification, 2 usage or input errors, 3 a resource cap.

Element expressions follow the grammar in `parsing`; the degree always
comes from --n.  Parsed and imported degrees, the minimal basis and every
solve fall under --enum-max; eigen searches and the registry's centre-basis
solve under --linalg-max too, which only `eigen` and `verify` take.

Each call is a fresh process, so `main` builds the parser of only the verb
it runs (of every verb for --help, no verb or an unknown one), and `json` is
imported only where JSON is read or written.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import namedtuple

from .algebra import DEFAULT_CAPS, AlgebraContext, Caps, is_central
from .center import _pinned_coordinates, gamma_basis
from .errors import (FormatError, HeckeError, MismatchError,
                     NotCentralError, ResourceCapError)
from .parsing import (element_from_json, element_to_json, format_element,
                      format_scalar, parse_element, parse_scalar,
                      read_partition)
from .sqrtcenter import (catalog, eigen_search, h3_constraint_check,
                         in_sqrt_centre, sample_sqrt_h3)
from .verify import run_verify, statement_ids


def _caps(args) -> Caps:
    linalg_max = getattr(args, "linalg_max", DEFAULT_CAPS.linalg_max)
    return Caps(enum_max=args.enum_max, linalg_max=linalg_max)


def _shape_key(lam) -> str:
    return ",".join(str(p) for p in lam)


def _print_json(doc, **kw) -> None:
    import json   # imported on use: no call that prints text needs it
    print(json.dumps(doc, **kw))


def _print_element(el, as_json: bool) -> None:
    if as_json:
        _print_json(element_to_json(el), sort_keys=True)
    else:
        print(format_element(el))


def _print_table(rows, as_json: bool, to_json, to_text) -> None:
    """(key, value) rows as one sorted JSON object or as `key: text` lines."""
    if as_json:
        _print_json({key: to_json(v) for key, v in rows}, sort_keys=True)
    else:
        for key, v in rows:
            print(f"{key}: {to_text(v)}")


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
        _print_json({"n": args.n, "central": ok})
    else:
        print("true" if ok else "false")
    return 0 if ok else 1


def _cmd_sqrt_check(args) -> int:
    a = parse_element(args.a, args.n, _caps(args))
    rep = in_sqrt_centre(a)
    if args.json:
        _print_json({"n": args.n, "in_sqrt": rep.in_sqrt,
                     "in_centre": rep.in_centre}, sort_keys=True)
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
    _print_table(((_shape_key(lam), g) for lam, g in gb), args.json,
                 element_to_json, format_element)
    return 0


def _cmd_express(args) -> int:
    ctx = AlgebraContext(args.n, _caps(args))
    a = parse_element(args.a, args.n, ctx.caps)
    # centrality is tested before the minimal basis is built, which takes
    # more than a second at n = 8
    if not is_central(a):
        raise NotCentralError("element is not central")
    coords = _pinned_coordinates(a, gamma_basis(ctx), proven=True)
    _print_table(((_shape_key(lam), c) for lam, c in coords.items()),
                 args.json, format_scalar, format_scalar)
    return 0


def _cmd_eigen(args) -> int:
    ctx = AlgebraContext(args.n, _caps(args))
    lam = read_partition("--gamma", args.gamma.split(","), args.n)
    # the cap and --k are checked before the minimal basis is built
    ctx.check_linalg()
    k = parse_scalar(args.k)
    vecs = eigen_search(ctx, gamma_basis(ctx)[lam], k)
    if args.json:
        _print_json({"count": len(vecs),
                     "vectors": [element_to_json(v) for v in vecs]},
                    sort_keys=True)
    else:
        print(f"count: {len(vecs)}")
        for v in vecs:
            print(format_element(v))
    return 0


def _cmd_catalog(args) -> int:
    _print_table(catalog(args.n).items(), args.json, element_to_json,
                 format_element)
    return 0


def _cmd_sample_h3(args) -> int:
    h = sample_sqrt_h3(args.seed)
    branch = h3_constraint_check(h)
    if args.json:
        doc = element_to_json(h)
        doc["branch"] = branch
        _print_json(doc, sort_keys=True)
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
    import json
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
    import json
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


def _arg(name: str, **kw) -> tuple[str, dict]:   # one add_argument call
    return name, kw


# the arguments several verbs share
_N = _arg("--n", type=int, required=True)
_A = _arg("a")
_JSON = _arg("--json", action="store_true")
_SEED = _arg("--seed", type=int, default=0)
_ENUM_MAX = _arg("--enum-max", type=int, default=DEFAULT_CAPS.enum_max,
                 help="cap on the degree of anything that walks all of "
                      "S_n or parses an element (default %(default)s)")
# only the verbs that can run a solve take it
_LINALG_MAX = _arg("--linalg-max", type=int, default=DEFAULT_CAPS.linalg_max,
                   help="cap on the degree of eigen searches and "
                        "centre-basis solves (default %(default)s)")

_Verb = namedtuple("_Verb", ("help", "handler", "args"))

# every verb, in the order --help lists them
_VERBS = {
    "mul": _Verb("multiply two elements", _cmd_mul,
                 (_N, _A, _arg("b"), _JSON, _ENUM_MAX)),
    "square": _Verb("square an element", _cmd_square,
                    (_N, _A, _JSON, _ENUM_MAX)),
    "central": _Verb("test centrality (exit 0 iff central)", _cmd_central,
                     (_N, _A, _JSON, _ENUM_MAX)),
    "sqrt-check": _Verb(
        "test whether the square is central (exit 0 iff it is)",
        _cmd_sqrt_check, (_N, _A, _JSON, _ENUM_MAX)),
    "gamma": _Verb("minimal basis of the centre", _cmd_gamma, (
        _arg("n", type=int),
        _arg("--lambda", dest="shape", default=None, metavar="PARTS",
             help="one partition, e.g. 2,1,1; omit for the whole basis"),
        _JSON, _ENUM_MAX)),
    "express": _Verb(
        "coordinates of a central element over the minimal basis",
        _cmd_express, (_N, _A, _JSON, _ENUM_MAX)),
    "eigen": _Verb(
        "eigenvectors of multiplication by a minimal-basis element",
        _cmd_eigen, (
            _N,
            _arg("--gamma", required=True, metavar="PARTS",
                 help="partition naming the central element, e.g. 2,1"),
            _arg("--k", required=True, metavar="SCALAR",
                 help="candidate eigenvalue, e.g. 'q-1' or '-q'"),
            _JSON, _ENUM_MAX, _LINALG_MAX)),
    "catalog": _Verb("known square roots at a degree", _cmd_catalog,
                     (_N, _JSON)),
    "sample-h3": _Verb("random degree-3 element whose square is central",
                       _cmd_sample_h3, (_SEED, _JSON)),
    "verify": _Verb(
        "run the statement registry (exit 0 iff no failures)",
        _cmd_verify, (
            _arg("--n-max", type=int, default=6), _SEED, _JSON,
            _arg("--timings", action="store_true",
                 help="include wall-clock times (not byte-deterministic)"),
            _arg("--only", default=None, metavar="IDS",
                 help="comma-separated statement ids to run"),
            _arg("--list", action="store_true",
                 help="list the ids (of --only, if given) without running"),
            _ENUM_MAX, _LINALG_MAX)),
    "export": _Verb("write an element as JSON", _cmd_export, (
        _N, _A,
        _arg("--out", required=True, metavar="FILE",
             help="output path, or - for stdout"),
        _arg("--basis", choices=("T", "Ttilde"), default="T"),
        _ENUM_MAX)),
    "import": _Verb("read an element JSON and print it", _cmd_import, (
        _arg("file", metavar="FILE", help="input path, or - for stdin"),
        _JSON, _ENUM_MAX)),
}


def build_parser(verbs=None) -> argparse.ArgumentParser:
    """The parser of the named verbs, all of them by default.  Its usage
    line lists every verb either way, as argparse prints it on an error."""
    ap = argparse.ArgumentParser(
        prog="hecke",
        description="Exact computations in the Hecke algebra of the "
                    "symmetric group over Z[v, v^-1] (q = v^2).")
    sub = ap.add_subparsers(
        dest="verb", required=True,
        metavar=None if verbs is None else "{" + ",".join(_VERBS) + "}")
    for verb in _VERBS if verbs is None else verbs:
        help_line, _, args = _VERBS[verb]
        p = sub.add_parser(verb, help=help_line)
        for name, kw in args:
            p.add_argument(name, **kw)
    return ap


# an option, or one written as --name=value; each verb's options that take
# no value
_OPTION = re.compile(r"-h|--[a-z][a-z-]*(=.*)?", re.S)
_FLAGS = {verb: ("-h", "--help", *(name for name, kw in args
                                   if kw.get("action") == "store_true"))
          for verb, (_, _, args) in _VERBS.items()}


def _join_scalar_options(argv: list[str]) -> list[str]:
    """Put a verb's options first, each joined to its value (`--k=-q`), and
    every other token after '--': values and elements may start with '-',
    as in `--k -q` or `-T[1]`, and argparse would read them as options."""
    if not argv or argv[0] not in _VERBS:
        return argv
    flags = _FLAGS[argv[0]]
    options, positionals = [], []
    tokens = iter(argv[1:])
    for tok in tokens:
        if tok == "--":
            positionals += tokens
        elif not _OPTION.fullmatch(tok):
            positionals.append(tok)
        # a prefix of one of the verb's flags is that flag, as argparse
        # abbreviates it
        elif "=" in tok or any(f.startswith(tok) for f in flags):
            options.append(tok)
        else:
            value = next(tokens, None)
            options.append(tok if value is None else f"{tok}={value}")
    return [argv[0], *options] + (["--", *positionals] if positionals else [])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    verbs = argv[:1] if argv and argv[0] in _VERBS else None
    args = build_parser(verbs).parse_args(_join_scalar_options(argv))
    try:
        return _VERBS[args.verb].handler(args)
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
