"""Centrality at n = 7, which no tier-1 test reaches: is_central,
which steps on the right only and reads the left side through the
flip T_w -> T_(w^-1), against the two-sided generator comparison of
tests/generator_oracle.py, on T_w0 and T[1,2] + T[2,1] (flip-fixed,
not central), then xbar, ybar, T_w0^2 and the 15 minimal-basis
elements; each test must take the path the rule of cost
(algebra._fills) gives: the first two are tested before anything
numbers S_7 and take the LaurentPoly walk, building no tables, and
the rest are packed, the first three being dense and the others
read once the tables exist; is_central's time over all of them is
printed; then 15 one-lane walks (is_central on each minimal-basis
element) are compared with one 15-lane walk (algebra._central on
the whole basis): both must read true, and the 15-lane walk false
with one element perturbed by T[1], each time printed; the
15 minimal-basis elements themselves, which tier-1 checks against
the pinned solve only up to n = 5, are pinned by the sha256 of
their partitions and terms, key order included."""
import sys
from _common import json_sha256, terms, timed
from hecke import gamma_basis, parse_element, t_longest, xbar, ybar
from hecke.algebra import _INDEXED, _central, _flip, _packing, is_central
from generator_oracle import is_central_by_generators
t, pair = t_longest(7), parse_element("T[1,2] + T[2,1]", 7)

def named():
    yield "T_w0", t
    yield "T[1,2] + T[2,1]", pair
    yield "xbar", xbar(7)
    yield "ybar", ybar(7)
    yield "T_w0^2", t * t
    for lam, g in gamma_basis(7):
        yield f"gamma{tuple(lam)}", g

walked = {"T_w0", "T[1,2] + T[2,1]"}
wrong, took, count = 0, 0.0, 0
for name, h in named():
    packed = _packing(7, [h._terms], 1) is not None
    got, took_one = timed(is_central, h)
    took += took_one
    want = is_central_by_generators(h)
    count += 1
    if got != want or packed == (name in walked):
        print(f"{name}: is_central {got}, oracle {want}, packed {packed}")
        wrong += 1
    if name in walked and 7 in _INDEXED:
        print(f"{name}: S_7 numbered by the walk")
        wrong += 1
wrong += _flip(pair._terms) != pair._terms or is_central(pair)
print(f"n = 7: {count} centrality tests, {wrong} wrong; "
      f"is_central took {took:.3f} s")
elements = [g._terms for _, g in gamma_basis(7)]
each, took_each = timed(lambda: [is_central(g) for _, g in gamma_basis(7)])
lanes, took_lanes = timed(_central, 7, elements)
bumped = list(elements)
bumped[7] = (list(gamma_basis(7))[7][1] + parse_element("T[1]", 7))._terms
lanes_bumped, took_bumped = timed(_central, 7, bumped)
print(f"n = 7 minimal basis: one test each {all(each)} in {took_each:.3f} s, "
      f"one walk over lanes {lanes} in {took_lanes:.3f} s, "
      f"with one perturbed {lanes_bumped} in {took_bumped:.3f} s")
wrong += not all(each) or not lanes or lanes_bumped
got = json_sha256([[list(lam), terms(g)] for lam, g in gamma_basis(7)])
print(f"gamma_basis(7) sha256 {got}")
wrong += got != "9ff2b57318a0b09b392bfc2a33883844be1e01f08404c5045df7e921e2eee30c"
sys.exit(wrong)
