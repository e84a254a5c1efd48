"""The four workloads: seeded inputs, one timed pass, exactness checks.

A pass is the workload's fixed unit of work.  Each pass runs in a fresh
interpreter (see worker.py), so memos such as the centre-basis memo start
cold in every pass, as they do for a user who starts Python or the CLI.
Inputs depend only on (workload, seed, profile); the cost of a pass does
not depend on the seed, because every seed draws the same multiset of
operation kinds and degrees.

Every output is checked for exactness outside the timed region, against
committed references (reference.json, registry_n6_seed0.json) and against
the q = 1 group-algebra oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import hecke
import tracing
from clock import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# sha256 of the canonical run_verify(n_max=6, seed=0).to_json(): the
# behavioural fingerprint (110 items, 107 pass, 3 flag, 0 fail).
REGISTRY_SHA256 = \
    "2cb47925da7f0cdcb261f933e04ba233b4e49f60a6cab40580233df1e0cf87a9"
REGISTRY_REPORT = os.path.join(HERE, "registry_n6_seed0.json")

# 06-even-words-n5 alone takes 21-34 s, longer than a whole run; the
# `registry-full` workload runs it together with everything else.
REGISTRY_EXCLUDED = ("06-even-words-n5",)
REGISTRY_TINY = ("01-murphy-commute-n3", "03-esym-central-n4",
                 "05-xy-central-n4", "08-h3-eigen-search-n3",
                 "13-gamma-pinning-n4", "14-commutative-n2")

# Per pass, per degree: how many operations of each kind the session runs.
SESSION_MIX = {
    "full": {"mul": 96, "square": 32, "commutator": 32, "central": 64,
             "sqrt": 32, "express": 32, "json": 48},
    "tiny": {"mul": 1, "square": 1, "commutator": 1, "central": 1,
             "sqrt": 1, "express": 1, "json": 1},
}
SESSION_DEGREES = {"full": (3, 4, 5, 6), "tiny": (3, 4)}
EXPRESS_MAX_N = 5
DENSE_MAX_N = 4        # square-root tests of dense references stay small

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@dataclass
class PassResult:
    wall_s: float = 0.0                           # normalised, see clock.py
    wall_raw_s: float = 0.0
    ops: list = field(default_factory=list)       # normalised s per operation
    ops_raw: list = field(default_factory=list)
    probe_s: float = 0.0                          # median calibration probe
    failed: int = 0
    errors: list = field(default_factory=list)
    transcript: list = field(default_factory=list)
    rss_kb: int = 0
    groups: dict = field(default_factory=dict)    # verify group -> seconds
    slowest_item_s: float = 0.0
    trace: dict | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def end_timing(self, clock: Clock, tracer, rss_kb: int | None = None):
        """Close the timed region; checks after this are not traced."""
        self.ops, self.ops_raw = clock.norm, clock.raw
        self.wall_s, self.wall_raw_s = sum(clock.norm), sum(clock.raw)
        self.probe_s = statistics.median(d for _, d in clock.samples)
        self.rss_kb = _own_rss_kb() if rss_kb is None else rss_kb
        if tracer is not None:
            self.trace = tracing.summary(tracer)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.transcript).encode()).hexdigest()


def _own_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _canon(el) -> list:
    """Canonical data of an element, independent of any text format."""
    return [[list(w), [list(t) for t in c.items()]] for w, c in el.items()]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- q = 1 oracle ---------------------------------------------------------------

def _at_one(el) -> dict:
    """The element at q = 1: each coefficient becomes its coefficient sum."""
    out = {}
    for w, c in el.items():
        total = sum(k for _, k in c.items())
        if total:
            out[w] = total
    return out


def _gmul(a: dict, b: dict) -> dict:
    return hecke.group_algebra_mul(a, b)


def _gsub(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) - c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def _central_at_one(n: int, z: dict) -> bool:
    """An element of ZS_n is central iff it is constant on conjugacy
    classes, i.e. invariant under conjugation by every simple reflection."""
    for w, c in z.items():
        for i in range(1, n):
            if z.get(w.left_simple(i).right_simple(i)) != c:
                return False
    return True


def _class_sums_at_one(n: int, coords: dict) -> dict:
    out: dict = {}
    for lam, c in coords.items():
        k = sum(k for _, k in c.items())
        if k:
            for w in hecke.conjugacy_class(n, hecke.Partition(tuple(lam))):
                out[w] = out.get(w, 0) + k
    return {w: c for w, c in out.items() if c}


# -- registry ---------------------------------------------------------------------

def _registry_reference() -> dict:
    with open(REGISTRY_REPORT, "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != REGISTRY_SHA256:
        raise RuntimeError(f"{REGISTRY_REPORT} does not match the fingerprint")
    return {e["id"]: e for e in json.loads(raw)["items"]}


def registry_inputs(seed: int, profile: str, full: bool = False) -> dict:
    if profile == "tiny":
        ids = list(REGISTRY_TINY)
    else:
        ids = [i for i in hecke.statement_ids(6)
               if full or i not in REGISTRY_EXCLUDED]
    return {"seed": seed, "ids": ids, "full": full,
            "reference": _registry_reference()}


def registry_pass(inp: dict, tracer=None) -> PassResult:
    """run_verify(n_max=6) one item at a time, in the order run_verify uses,
    so that calibration probes can run between items."""
    res = PassResult()
    results = []
    with Clock() as clock:
        for item_id in sorted(inp["ids"]):
            part = clock.time(hecke.run_verify, n_max=6, seed=inp["seed"],
                              only=[item_id])
            results += part.results
    res.end_timing(clock, tracer)
    rep = hecke.VerificationReport(n_max=6, seed=inp["seed"],
                                   results=tuple(results))
    canonical = rep.to_json()
    got = json.loads(canonical)["items"]
    ref = inp["reference"]
    if sorted(e["id"] for e in got) != sorted(inp["ids"]):
        res.fail("report ids differ from the ids requested")
    for entry in got:
        if entry != ref.get(entry["id"]):
            res.fail(f"{entry['id']}: {entry['status']} differs from reference")
        res.transcript.append(json.dumps(entry, sort_keys=True))
    if inp["full"] and inp["seed"] == 0:
        if hashlib.sha256(canonical.encode()).hexdigest() != REGISTRY_SHA256:
            res.fail("seed-0 report sha256 differs from the fingerprint")
    for e in json.loads(rep.to_json(timings=True))["items"]:
        g = "group" + e["id"][:2]
        res.groups[g] = res.groups.get(g, 0.0) + e["seconds"]
        res.slowest_item_s = max(res.slowest_item_s, e["seconds"])
    return res


# -- centre -------------------------------------------------------------------------

def centre_inputs(seed: int, profile: str) -> dict:
    rng = random.Random(f"centre:{seed}")
    tiny = profile == "tiny"
    shapes = [tuple(p) for p in hecke.partitions_of(4)]
    if tiny:
        shapes = [rng.choice(shapes)]
    jobs = []
    for shape in shapes:
        # |k(1)| > 24 >= every class size in S_4, so k is no eigenvalue
        rand = hecke.LaurentPoly({0: rng.randint(31, 60),
                                  2: rng.randint(-3, 3),
                                  4: rng.randint(-3, 3)})
        jobs += [(shape, "triv", None), (shape, "sign", None),
                 (shape, "rand", rand)]
    rng.shuffle(jobs)
    return {"gamma_ns": (3, 4) if tiny else (3, 4, 5, 6),
            "centre_ns": (3, 4) if tiny else (3, 4, 5),
            "jobs": jobs, "caps": hecke.Caps(linalg_max=6)}


def _eigen_job(ctx, g, kind, k, x, y, ident):
    if kind != "rand":
        d = x if kind == "triv" else y
        gd = g * d
        k = gd.coeff(ident).divexact(d.coeff(ident))
        if gd != d.scale(k):
            return k, None
    return k, hecke.eigen_search(ctx, g, k)


def centre_pass(inp: dict, tracer=None) -> PassResult:
    res = PassResult()
    caps = inp["caps"]
    ref = REFERENCE["centre"]
    bases, spans, eig = {}, {}, []
    with Clock() as clock:
        for n in inp["gamma_ns"]:
            bases[n] = clock.time(hecke.gamma_basis,
                                  hecke.AlgebraContext(n, caps))
        for n in inp["centre_ns"]:
            spans[n] = clock.time(hecke.centre_basis,
                                  hecke.AlgebraContext(n, caps))
        ctx = hecke.AlgebraContext(4, caps)
        gb = hecke.gamma_basis(ctx)
        x, y = hecke.x_elem(ctx), hecke.y_elem(ctx)
        ident = hecke.Permutation.identity(4)
        for shape, kind, k in inp["jobs"]:
            eig.append(clock.time(_eigen_job, ctx, gb[shape], kind, k, x, y,
                                  ident))
    res.end_timing(clock, tracer)

    for n, b in bases.items():
        digest = _sha([[list(lam), _canon(g)] for lam, g in b])
        res.transcript.append(f"gamma {n} {digest}")
        if digest != ref["gamma_sha256"][str(n)]:
            res.fail(f"gamma basis n={n} differs from its reference digest")
    for n, cb in spans.items():
        res.transcript.append(f"centre {n} {len(cb.vectors)}")
        if len(cb.vectors) != ref["centre_dim"][str(n)]:
            res.fail(f"centre_basis n={n} has {len(cb.vectors)} vectors")
    for (shape, kind, _), (k, vecs) in zip(inp["jobs"], eig):
        key = ",".join(map(str, shape))
        if vecs is None:
            res.fail(f"gamma {key} does not act on {kind} by a scalar")
            continue
        want = 0 if kind == "rand" else ref["eigen_n4"][key][kind + "_dim"]
        if kind != "rand" and ([list(t) for t in k.items()]
                               != ref["eigen_n4"][key][kind]):
            res.fail(f"eigenvalue of gamma {key} on {kind} differs")
        res.transcript.append(f"eigen {key} {kind} {len(vecs)}")
        if len(vecs) != want:
            res.fail(f"eigenspace of gamma {key} for {kind}: "
                     f"dimension {len(vecs)}, expected {want}")
    return res


# -- session ------------------------------------------------------------------------

def _rand_scalar(rng) -> str:
    c = rng.randint(1, 3)
    e = rng.choice((-2, -1, 1, 2))
    return rng.choice((str(c), f"{c}*q^{e}", f"(q-{c})", f"({c}+q^{e})",
                       "xi"))


def _rand_element(rng, n: int, terms: int | None = None) -> str:
    text = ""
    for j in range(terms or rng.randint(1, 6)):
        word = ",".join(str(rng.randint(1, n - 1))
                        for _ in range(rng.randint(0, n)))
        term = f"{_rand_scalar(rng)}*T[{word}]"
        text += term if j == 0 else rng.choice((" + ", " - ")) + term
    return text


# The reference kinds are taken in turn, not drawn, so that every seed runs
# each kind equally often: their costs differ by orders of magnitude.
def _central_ref(rng, n: int, j: int) -> str:
    i = 1 + j // 4 % (n - 1)
    return ("@x", "@y", f"@e:{i}", f"{_rand_scalar(rng)}*@e:{i}")[j % 4]


def _sqrt_ref(n: int, j: int) -> str:
    names = ["@xbar", "@ybar", "@Twn", "@catalog:R4", "@catalog:R5"]
    if n == 4:
        names.append("@catalog:R6")
    return names[j % len(names)]


def _express_ref(n: int, j: int) -> str:
    return ("@x", "@y", f"@e:{1 + j // 4 % (n - 1)}", "@fulltwist")[j % 4]


def session_inputs(seed: int, profile: str) -> list:
    rng = random.Random(f"session:{seed}")
    ops = []
    for n in SESSION_DEGREES[profile]:
        for kind, count in SESSION_MIX[profile].items():
            for j in range(count):
                # term counts cycle through 1..6 rather than being drawn,
                # for the same reason as the reference kinds
                size = 1 + j % 6
                if kind in ("mul", "commutator"):
                    args = (_rand_element(rng, n, size),
                            _rand_element(rng, n, 7 - size))
                elif kind == "central":
                    args = (_central_ref(rng, n, j // 2) if j % 2
                            else _rand_element(rng, n, size),)
                elif kind == "sqrt":
                    dense = n <= DENSE_MAX_N and j % 2
                    args = (_sqrt_ref(n, j // 2) if dense
                            else _rand_element(rng, n, size),)
                elif kind == "express":
                    if n > EXPRESS_MAX_N:
                        continue
                    args = (_express_ref(n, j),)
                else:
                    args = (_rand_element(rng, n, size),)
                ops.append((kind, n, args))
    rng.shuffle(ops)
    return ops


def _session_op(kind: str, n: int, args: tuple):
    """One interactive command through the public text API.

    Returns the text a user would see and the values the check needs.
    """
    elems = [hecke.parse_element(a, n) for a in args]
    if kind in ("mul", "square", "commutator"):
        a = elems[0]
        b = a if kind == "square" else elems[1]
        r = hecke.commutator(a, b) if kind == "commutator" else a * b
        return hecke.format_element(r), (a, b, r)
    a = elems[0]
    if kind == "central":
        ok = hecke.is_central(a)
        return ("true" if ok else "false"), (a, ok)
    if kind == "sqrt":
        rep = hecke.in_sqrt_centre(a)
        text = f"in_sqrt={rep.in_sqrt} in_centre={rep.in_centre}"
        if rep.square_in_gamma is not None:
            text += " " + " ".join(
                f"{','.join(map(str, lam))}:{hecke.format_scalar(c)}"
                for lam, c in rep.square_in_gamma.items())
        return text, (a, rep)
    if kind == "express":
        coords = hecke.express_in_gamma(a, hecke.gamma_basis(n))
        return " ".join(f"{','.join(map(str, lam))}:{hecke.format_scalar(c)}"
                        for lam, c in coords.items()), (a, coords)
    text = json.dumps(hecke.element_to_json(a), sort_keys=True)
    return text, (a, hecke.element_from_json(json.loads(text)))


def _check_session(kind: str, n: int, args: tuple, text: str, data):
    """None if the output is exact, else what is wrong."""
    if kind in ("mul", "square", "commutator"):
        a, b, r = data
        want = _gmul(_at_one(a), _at_one(b))
        if kind == "commutator":
            want = _gsub(want, _gmul(_at_one(b), _at_one(a)))
        if _at_one(r) != want:
            return "product disagrees with the q = 1 oracle"
        if hecke.parse_element(text, n) != r:
            return "formatted product does not parse back to itself"
    elif kind == "central":
        a, ok = data
        if ok and not _central_at_one(n, _at_one(a)):
            return "called central but not central at q = 1"
        if args[0].startswith("@") or "*@" in args[0]:
            if not ok:
                return "a central reference was called not central"
    elif kind == "sqrt":
        a, rep = data
        if rep.in_sqrt and not _central_at_one(n, _gmul(_at_one(a),
                                                        _at_one(a))):
            return "square called central but not central at q = 1"
        if args[0].startswith("@") and not rep.in_sqrt:
            return f"{args[0]} should be a square root of a central element"
    elif kind == "express":
        a, coords = data
        if _class_sums_at_one(n, coords) != _at_one(a):
            return "coordinates disagree with class sums at q = 1"
    else:
        a, back = data
        if back != a:
            return "JSON round trip changed the element"
    return None


def _session_op_or_error(kind: str, n: int, args: tuple):
    try:
        return _session_op(kind, n, args)
    except hecke.HeckeError as exc:
        return f"error {type(exc).__name__}: {exc}", None


def session_pass(ops: list, tracer=None) -> PassResult:
    res = PassResult()
    run = _session_op_or_error if tracer is None else \
        tracer.span("session.op", _session_op_or_error)
    with Clock() as clock:
        outputs = [clock.time(run, kind, n, args) for kind, n, args in ops]
    res.end_timing(clock, tracer)
    for (kind, n, args), (text, data) in zip(ops, outputs):
        res.transcript.append(f"{kind} {n} {' | '.join(args)} => {text}")
        problem = ("raised" if data is None
                   else _check_session(kind, n, args, text, data))
        if problem:
            res.fail(f"{kind} n={n} {args}: {problem}")
    return res


# -- cli --------------------------------------------------------------------------------

def cli_inputs(seed: int, profile: str) -> list:
    rng = random.Random(f"cli:{seed}")
    if profile == "tiny":
        calls = [["mul", "--n", "3", _rand_element(rng, 3),
                  _rand_element(rng, 3)],
                 ["central", "--n", "3", _central_ref(rng, 3, seed)],
                 ["gamma", "3"], ["verify", "--n-max", "3"]]
        rng.shuffle(calls)
        return calls
    # Fixed verbs, degrees and reference kinds, so that a pass costs the
    # same for every seed; the seed draws element contents and the order.
    calls = [["mul", "--n", str(n), _rand_element(rng, n),
              _rand_element(rng, n)] for n in (3, 4, 5, 6)]
    calls += [["square", "--n", str(n), _rand_element(rng, n)]
              for n in (4, 6)]
    calls.append(["central", "--n", "5", f"{_rand_scalar(rng)}*@e:2"])
    calls.append(["central", "--n", "6", _rand_element(rng, 6)])
    calls.append(["sqrt-check", "--n", "4", _sqrt_ref(4, seed)])
    calls.append(["sqrt-check", "--n", "5", _rand_element(rng, 5)])
    calls.append(["express", "--n", "4", "@fulltwist"])
    calls.append(["express", "--n", "5", "@e:3"])
    calls += [["gamma", "3"], ["gamma", "4"], ["gamma", "5"]]
    kind = rng.choice(("triv", "sign"))
    k = hecke.LaurentPoly(dict(REFERENCE["centre"]["eigen_n4"]["3,1"][kind]))
    calls.append(["eigen", "--n", "4", "--gamma", "3,1",
                  "--k", hecke.format_scalar(k)])
    calls += [["catalog", "--n", "3"], ["catalog", "--n", "4"],
              ["verify", "--n-max", "4"]]
    rng.shuffle(calls)
    return calls


def _cli_command(argv: list, traced: bool) -> list:
    if traced:
        return [sys.executable, os.path.join(HERE, "worker.py"),
                "--cli-call", "--", *argv]
    return [sys.executable, "-m", "hecke.cli", *argv]


def cli_pass(calls: list, tracer=None) -> PassResult:
    res = PassResult()
    with Clock(inside=False) as clock:
        done = [clock.time(subprocess.run,
                           _cli_command(argv, tracer is not None),
                           capture_output=True, text=True, cwd=ROOT,
                           timeout=120)
                for argv in calls]
    res.end_timing(clock, None,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        res.trace = {}
        for proc in done:
            lines = proc.stderr.splitlines()
            if lines and lines[-1].startswith(tracing.TRACE_MARK):
                _merge(res.trace, json.loads(lines[-1][len(tracing.TRACE_MARK):]))
    for argv, proc in zip(calls, done):
        res.transcript.append(f"{' '.join(argv)} => {proc.returncode} "
                              f"{proc.stdout}")
        problem = _check_cli(argv, proc.returncode, proc.stdout)
        if problem:
            res.fail(f"{' '.join(argv[:3])}: {problem}")
    return res


def _merge(into: dict, summary: dict) -> None:
    for name, st in summary.items():
        if name == "spans":
            continue
        cur = into.setdefault(name, {})
        for key, val in st.items():
            cur[key] = cur.get(key, 0) + val


def _check_cli(argv: list, rc: int, out: str):
    verb = argv[0]
    lines = out.splitlines()
    if verb in ("mul", "square"):
        n = int(argv[2])
        if rc != 0:
            return f"exit code {rc}"
        a = hecke.parse_element(argv[3], n)
        b = a if verb == "square" else hecke.parse_element(argv[4], n)
        got = hecke.parse_element(out.strip(), n)
        if _at_one(got) != _gmul(_at_one(a), _at_one(b)):
            return "product disagrees with the q = 1 oracle"
    elif verb in ("central", "sqrt-check"):
        n = int(argv[2])
        a = hecke.parse_element(argv[3], n)
        if verb == "central":
            ok, said = hecke.is_central(a), lines == ["true"]
            must = argv[3].startswith("@") or "*@" in argv[3]
        else:
            ok = hecke.in_sqrt_centre(a).in_sqrt
            said = bool(lines) and lines[0] == "in_sqrt: true"
            must = argv[3].startswith("@")
        if rc != (0 if ok else 1) or said != ok or (must and not ok):
            return f"exit code {rc} with output {lines[:1]}"
    elif verb == "express":
        n = int(argv[2])
        if rc != 0:
            return f"exit code {rc}"
        coords = {}
        for line in lines:
            key, _, val = line.partition(": ")
            coords[tuple(map(int, key.split(",")))] = hecke.parse_scalar(val)
        if _class_sums_at_one(n, coords) != _at_one(
                hecke.parse_element(argv[3], n)):
            return "coordinates disagree with class sums at q = 1"
    elif verb == "gamma":
        n = int(argv[1])
        if rc != 0 or len(lines) != len(hecke.partitions_of(n)):
            return f"exit code {rc}, {len(lines)} basis elements"
        for line in lines:
            key, _, text = line.partition(": ")
            lam = tuple(map(int, key.split(",")))
            want = {w: 1 for w in hecke.conjugacy_class(
                n, hecke.Partition(lam))}
            if _at_one(hecke.parse_element(text, n)) != want:
                return f"gamma {key} is not its class sum at q = 1"
    elif verb == "eigen":
        ref = REFERENCE["centre"]["eigen_n4"][argv[4]]
        k = hecke.parse_scalar(argv[6])
        kind = "triv" if [list(t) for t in k.items()] == ref["triv"] else "sign"
        if rc != 0 or lines[:1] != [f"count: {ref[kind + '_dim']}"]:
            return f"exit code {rc} with output {lines[:1]}"
    elif verb == "catalog":
        n = int(argv[2])
        want = hecke.catalog(n)
        got = {}
        for line in lines:
            name, _, text = line.partition(": ")
            got[name] = hecke.parse_element(text, n)
        if rc != 0 or got != want:
            return "catalog differs from the library's"
    elif verb == "verify":
        if rc != 0 or not any(" fail=0" in line for line in lines[:3]):
            return f"exit code {rc}, report {lines[2:3]}"
    return None


WORKLOADS = {
    "registry": (registry_inputs, registry_pass),
    "registry-full": (lambda seed, profile:
                      registry_inputs(seed, profile, full=True),
                      registry_pass),
    "centre": (centre_inputs, centre_pass),
    "session": (session_inputs, session_pass),
    "cli": (cli_inputs, cli_pass),
}
