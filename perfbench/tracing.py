"""Per-layer tracing of the hecke package, installed from outside it.

Every traced name is a wrapper put in place of a function or method of
`hecke`; the package itself is not edited.  Two kinds of wrapper:

* aggregate wrappers for the hot and mid-level functions (LaurentPoly
  operators, `_rmul_gen`, the enumeration helpers, ...): they keep only a
  call count, optional input-term count and self time per name, because a
  registry pass makes millions of these calls;
* span wrappers at coarse boundaries (a verify item, a HeckeElement
  product, a solve, an eigen search, `cli.main`, and the benchmark's own
  session operations and CLI calls): they also record one span
  (name, start, end, parent) each.

Self time of any wrapped call is its duration minus the time covered by the
wrapped calls made directly inside it, so the self times of all names add
up to the traced time without double counting.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Prefix of the stderr line on which a traced CLI call reports its summary.
TRACE_MARK = "PERFBENCH-TRACE "

# metric name -> [(module, attribute)] for module-level functions, or
# [(module, class, attribute)] for methods.  Functions are replaced in every
# hecke module that imported them by name (center imports _rmul_gen, cli
# imports parse_element, ...), found by identity.
AGGREGATE = {
    "algebra.rmul_gen": [("hecke.algebra", "_rmul_gen")],
    "algebra.is_central": [("hecke.algebra", "is_central")],
    "algebra.module_ops": [("hecke.algebra", "HeckeElement", a) for a in
                           ("__add__", "__sub__", "__neg__", "scale",
                            "__rmul__")],
    "algebra.left_mult_matrix": [("hecke.algebra", "left_mult_matrix")],
    "laurent.mul": [("hecke.laurent", "LaurentPoly", a)
                    for a in ("__mul__", "__rmul__")],
    "laurent.add": [("hecke.laurent", "LaurentPoly", a)
                    for a in ("__add__", "__radd__")],
    "laurent.sub": [("hecke.laurent", "LaurentPoly", a)
                    for a in ("__sub__", "__rsub__")],
    "laurent.gcd": [("hecke.laurent", "lp_gcd")],
    "laurent.divexact": [("hecke.laurent", "LaurentPoly", "divexact")],
    "laurent.rational": [("hecke.laurent", "RationalFn", a) for a in
                         ("__add__", "__radd__", "__sub__", "__rsub__",
                          "__mul__", "__rmul__", "__truediv__",
                          "__rtruediv__", "__neg__", "inverse")],
    "linalg.add_rows": [("hecke.linalg", "SparseSystem", "add_rows")],
    "center.gamma_basis": [("hecke.center", "gamma_basis")],
    "center.invariants": [("hecke.center", "verify_gamma_invariants")],
    "center.centre_basis": [("hecke.center", "centre_basis")],
    "center.express": [("hecke.center", "express_in_gamma")],
    "sqrtcenter.in_sqrt": [("hecke.sqrtcenter", "in_sqrt_centre")],
    "sqrtcenter.even_words": [("hecke.sqrtcenter", "even_word_centrality")],
    "permutations.reduced_word": [("hecke.permutations", "Permutation",
                                   "reduced_word")],
    "permutations.enumerate": [("hecke.permutations", a) for a in
                               ("all_permutations", "conjugacy_class",
                                "minimal_class_elements", "partitions_of")],
    "elements.build": [("hecke.elements", a) for a in
                       ("murphy", "murphy_normalized", "dual_murphy",
                        "braid_murphy", "elem_sym", "elem_sym_normalized",
                        "x_elem", "y_elem", "t_longest", "xbar", "ybar",
                        "poincare", "full_twist_product", "named_element")],
    "parsing.parse": [("hecke.parsing", a)
                      for a in ("parse_element", "parse_scalar")],
    "parsing.format": [("hecke.parsing", a)
                       for a in ("format_element", "format_scalar")],
    "parsing.json": [("hecke.parsing", a)
                     for a in ("element_to_json", "element_from_json")],
}

SPANS = {
    "algebra.product": [("hecke.algebra", "HeckeElement", "__mul__")],
    "linalg.solve": [("hecke.linalg", "SparseSystem", "solve_unique")],
    "linalg.nullspace": [("hecke.linalg", "SparseSystem", "nullspace")],
    "sqrtcenter.eigen_search": [("hecke.sqrtcenter", "eigen_search")],
    "verify.item": [("hecke.verify", "_run_item")],
    "cli.main": [("hecke.cli", "main")],
}


class Tracer:
    """Counters and spans for one process."""

    def __init__(self):
        # name -> [calls, self seconds, input terms]
        self.stats: dict[str, list] = {}
        # (name, start, end, parent index, covered seconds)
        self.spans: list[tuple] = []
        self.rows_added = 0
        self.pivots = 0
        self._cov = [0.0]      # time covered by finished wrapped callees
        self._open = [-1]      # index of the innermost open span

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def aggregate(self, name: str, fn, count_terms: bool = False):
        st = self._stat(name)
        cov = self._cov

        def wrapper(*args, **kwargs):
            outer = cov[0]
            cov[0] = 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[0] += 1
                st[1] += dt - cov[0]
                if count_terms:
                    st[2] += len(args[0])
                cov[0] = outer + dt
        return wrapper

    def span(self, name: str, fn):
        st = self._stat(name)
        cov, opened, spans = self._cov, self._open, self.spans

        def wrapper(*args, **kwargs):
            outer = cov[0]
            cov[0] = 0.0
            parent = opened[0]
            idx = len(spans)
            spans.append(None)
            opened[0] = idx
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                covered = cov[0]
                spans[idx] = (name, t0, t1, parent, covered)
                st[0] += 1
                st[1] += (t1 - t0) - covered
                opened[0] = parent
                cov[0] = outer + (t1 - t0)
        return wrapper

    def _add_rows(self, fn):
        tracer = self

        def add_rows(system, rows):
            rows = list(rows)
            before = len(system.pivots)
            fn(system, rows)
            tracer.rows_added += len(rows)
            tracer.pivots += len(system.pivots) - before
        return add_rows

    def install(self) -> None:
        """Replace every target present in the loaded hecke modules."""
        for table, make in ((AGGREGATE, self.aggregate), (SPANS, self.span)):
            for name, targets in table.items():
                for target in targets:
                    if len(target) == 2:
                        _patch_function(target, name, make)
                    else:
                        self._patch_method(target, name, make)

    def _patch_method(self, target, name, make) -> None:
        mod, cls_name, attr = target
        cls = getattr(sys.modules.get(mod), cls_name, None)
        fn = cls.__dict__.get(attr) if cls is not None else None
        if fn is None:
            return
        if name == "linalg.add_rows":
            fn = self._add_rows(fn)
        setattr(cls, attr, make(name, fn))


def _patch_function(target, name, make) -> None:
    mod, attr = target
    fn = getattr(sys.modules.get(mod), attr, None)
    if fn is None:
        return
    wrapped = make(name, fn, True) if name == "algebra.rmul_gen" \
        else make(name, fn)
    for mname, module in list(sys.modules.items()):
        if module is None or not (mname == "hecke"
                                  or mname.startswith("hecke.")):
            continue
        for key, val in list(vars(module).items()):
            if val is fn:
                setattr(module, key, wrapped)


def summary(tracer: Tracer) -> dict:
    """Counts and self times per traced name, plus span statistics."""
    out = {name: {"calls": st[0], "self_s": st[1], "terms": st[2]}
           for name, st in tracer.stats.items()}
    out["linalg.rows"] = {"rows_added": tracer.rows_added,
                          "pivots": tracer.pivots}
    by_name: dict[str, int] = {}
    for name, *_ in tracer.spans:
        by_name[name] = by_name.get(name, 0) + 1
    slowest = sorted(tracer.spans, key=lambda s: s[2] - s[1],
                     reverse=True)[:5]
    out["spans"] = {
        "count": by_name,
        "slowest": [{"name": s[0], "seconds": s[2] - s[1],
                     "self_s": (s[2] - s[1]) - s[4],
                     "parent": tracer.spans[s[3]][0] if s[3] >= 0 else None}
                    for s in slowest],
    }
    return out
