"""The small products that take the few-term path of the kernel:
1,000 seeded products of 1- to 4-term factors at n = 4 and 300 at
n = 6, each checked against group_algebra_mul at q = 1, all pinned
by the sha256 of their terms, key order included; the mean time
per product is printed, so the fixed cost of a product shows in
every log."""
import random, sys
from _common import json_sha256, terms, timed
from hecke import HeckeElement, LaurentPoly, all_permutations, group_algebra_mul

def factor(rng, n, perms):
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 4)):
            exps = rng.sample(range(-3, 4), rng.randint(1, 2))
            terms[rng.choice(perms)] = LaurentPoly(
                {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in exps})
    return HeckeElement(n, terms)

wrong = 0
for n, count, pin in (
        (4, 1000, "95e568f4b44e4bba28690a9d889529992ca6f1c76be9e4c75708c61a0a071c03"),
        (6, 300, "09199371350dfa1212154e679c18cf3a941cea233b7b3592776f06708ca7598a")):
    rng, perms = random.Random(n), all_permutations(n)
    pairs = [(factor(rng, n, perms), factor(rng, n, perms)) for _ in range(count)]
    products, took = timed(lambda: [a * b for a, b in pairs])
    for (a, b), p in zip(pairs, products):
        wrong += p.specialize_group_algebra() != group_algebra_mul(
            a.specialize_group_algebra(), b.specialize_group_algebra())
    sha = json_sha256([terms(p) for p in products])
    print(f"n = {n}: {count} products of 1-4-term factors, "
          f"{took / count * 1e6:.1f} us each, sha256 {sha}")
    wrong += sha != pin
print(f"small products: {wrong} wrong")
sys.exit(wrong)
