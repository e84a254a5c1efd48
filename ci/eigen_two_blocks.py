"""Two eigen searches whose eigenvalue lies on two blocks, so each
keeps two of them: gamma_(2,2) at k = -q at n = 4 (blocks (3,1) and
(2,1,1), 18 vectors) and gamma_(5) at k = 0 at n = 5 (blocks (3,2)
and (2,2,1), 50 vectors); the vectors, key order included, are
pinned by the sha256 of their JSON form, and each count and time is
printed.  The n = 5 search also guards the per-block spans of
sqrtcenter._spanned_basis: one span of the two blocks' sum gave the
same vectors ten times slower."""
import sys
from _common import json_sha256, terms, timed
from hecke import LaurentPoly, eigen_search, gamma_basis
wrong = 0
for n, lam, k, count, pin in (
        (4, (2, 2), LaurentPoly({2: -1}), 18,
         "4a84eca0bc4944a9aacf4a67cc6cf9bc566d0f18450ed56ba191fc545351b1df"),
        (5, (5,), LaurentPoly(0), 50,
         "f9317c8c190c5e2e86ffbf7093ba19eb23148468c220543fbea8815fd1ed3635")):
    g = gamma_basis(n)[lam]
    vecs, took = timed(eigen_search, n, g, k)
    got = json_sha256([terms(v) for v in vecs])
    print(f"gamma_{lam} at k = {k}, n = {n}: {len(vecs)} vectors "
          f"(want {count}), {took:.2f} s, sha256 {got}")
    wrong += len(vecs) != count or got != pin
sys.exit(wrong)
