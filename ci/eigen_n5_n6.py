"""First the Wedderburn blocks behind the searches, center._blocks at
n = 5 and 6, built cold and pinned by sha256: E_lam, the dimensions and
omega_lam of each block, key order included; each build time is printed.
Then every trivial- and sign-character eigen search at n = 5, k read off
gamma_lam * x and gamma_lam * y at the identity: 14 searches and 252
vectors, where tier-1 runs one; the vectors, key order included,
are pinned by the sha256 of their JSON form, and each count, the
dimension of the blocks the search kept, must equal the corank of
the n! x n! matrix modulo the prime (tests/fraction_oracle.py);
then the paper's claim that xbar^2 and ybar^2 are nonzerodivisors,
which the report checks at n = 3 and 4 only: ker(z - 0) = 0; then
the same 22 searches at n = 6, above the default linear-algebra cap:
1,460 vectors pinned by sha256, and the same two nonzerodivisors."""
import sys
from _common import json_sha256, terms, timed
from hecke import (AlgebraContext, Caps, Permutation, eigen_search,
                   gamma_basis, x_elem, xbar, y_elem, ybar)
from hecke.center import _blocks
from hecke.sqrtcenter import _CERT_POINTS, _at
from fraction_oracle import _corank

def searches(ctx, x, y, ident):
    """Both searches for each minimal-basis element: the sha256 of their
    document, the count of their vectors, and at n = 5 the coranks that
    differ from it."""
    doc, count, wrong = [], 0, 0
    for lam, g in gamma_basis(ctx):
        for kind, d in (("triv", x), ("sign", y)):
            k = (g * d).coeff(ident).divexact(d.coeff(ident))
            vecs = eigen_search(ctx, g, k)
            count += len(vecs)
            doc.append([list(lam), kind, k.to_pairs(), [terms(v) for v in vecs]])
            if ctx.n == 5:
                v0, powers = _CERT_POINTS[0], {}
                bound = _corank(5, g, _at(k, v0, powers), v0, powers)
                if bound != len(vecs):
                    print(f"{tuple(lam)} {kind}: {len(vecs)} vectors, corank {bound}")
                    wrong += 1
    return json_sha256(doc), count, wrong

def blocks_sha256(blocks):
    """The sha256 of _blocks' list: each block's shape, E_lam, dimension
    and omega_lam, with the keys in their order."""
    return json_sha256([[list(lam), [[list(mu), a.to_pairs()] for mu, a in e.items()],
                         d, [[list(nu), a.to_pairs()] for nu, a in omega.items()]]
                        for lam, e, d, omega in blocks])

wrong = 0
for n, pin in (
        (5, "c0e7b6315bbb53bb169fa738bab064fb07a60d4a3cc4ae108e01beefc251e87a"),
        (6, "079f90fed1fc1a54bcc52fe9b788c7169ed302bc5e461c201d03823b32162343")):
    blocks, took = timed(_blocks, gamma_basis(n))
    got = blocks_sha256(blocks)
    print(f"n = {n} blocks: {len(blocks)}, built cold in {took:.3f} s, sha256 {got}")
    wrong += got != pin

for n, caps, pin in (
        (5, Caps(), "ddd52bd7acca3ecf2a8a653724718d31a9b12c35d8a43737b2c279380aeed736"),
        (6, Caps(linalg_max=6), "b446115356f0937936fca4c9c0c322c2de7efbb668e64b7367d906262ba90731")):
    ctx = AlgebraContext(n, caps)
    x, y, ident = x_elem(ctx), y_elem(ctx), Permutation.identity(n)
    (got, count, differ), took = timed(searches, ctx, x, y, ident)
    wrong += differ
    what = "eigen searches and coranks" if n == 5 else "eigen searches"
    print(f"n = {n} {what}: {count} vectors, {took:.2f} s, sha256 {got}")
    wrong += got != pin
    for name, el in (("xbar", xbar(ctx)), ("ybar", ybar(ctx))):
        kernel, took = timed(lambda: eigen_search(ctx, el * el, 0))
        print(f"{name}^2 at n = {n}: {len(kernel)} vectors in its kernel, {took:.3f} s")
        wrong += kernel != []
sys.exit(wrong)
