"""The products of the two truncated roots at n = 7, where each factor
is c X_a less T_w0 and multiplies as 6 coset sums: each product is
pinned by the sha256 of its JSON document, derived from the word
walk (about 5-9 s each there), must be central, and xbar*ybar must
equal ybar*xbar; then (xbar*ybar)*ybar and ybar*(xbar*ybar), where
xbar*ybar has fewer terms than ybar but is not geometric, so ybar
on the walked side is taken as coset sums, both pinned by the sha256
the word walk gives (18-26 s each there); each product's time is
printed."""
import sys
from _common import json_sha256, timed
from hecke import element_to_json, is_central, xbar, ybar
x, y = xbar(7), ybar(7)
pinned = [
    ("xbar*ybar", x, y, "6689619618dcf2c201b4c2b0092b5f7f25bd097ee5d0a3c040ded2f445f1c5aa"),
    ("ybar*xbar", y, x, "6689619618dcf2c201b4c2b0092b5f7f25bd097ee5d0a3c040ded2f445f1c5aa"),
    ("xbar^2", x, x, "7c4501451cf5ca4667ae53bc58e99cbae65b3cf540a6514c3ee9946352f53e14"),
    ("ybar^2", y, y, "4b196369bc606d23a7d9f1447612223f0499309109a39a553abb76e2ae92e44f"),
]
wrong, got = 0, {}
for name, a, b, want in pinned:
    got[name], took = timed(lambda: a * b)
    sha = json_sha256(element_to_json(got[name]))
    central = is_central(got[name])
    print(f"{name} at n = 7: {took:.2f} s, sha256 {sha}, central {central}")
    wrong += (sha != want) + (not central)
wrong += got["xbar*ybar"] != got["ybar*xbar"]
xy = got["xbar*ybar"]
for name, a, b in (("(xbar*ybar)*ybar", xy, y), ("ybar*(xbar*ybar)", y, xy)):
    p, took = timed(lambda: a * b)
    sha = json_sha256(element_to_json(p))
    print(f"{name} at n = 7: {took:.2f} s, sha256 {sha}")
    wrong += sha != "02206aa691a029a9d94883875e8db6811b7b861c0545ae84eca9cfc7dcc5e85d"
print(f"n = 7 truncation products: {wrong} wrong")
sys.exit(wrong)
