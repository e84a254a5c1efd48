"""The widest products of the kernel: at n = 6 these two squares pack
61-bit digits and sum up to 91 distinct keyed coefficients, which no
tier-1 test or report item reaches; each prints its time and must
keep its exact result, pinned by the sha256 of its JSON document,
and its canonical text (720 terms, about 0.5 MB), pinned by the
sha256 of format_element with the time the printing took; the
process's peak resident set is printed after both."""
import sys
from _common import json_sha256, peak_kib, sha256, timed
from hecke import element_to_json, format_element, t_longest, xbar, ybar
x, y, t = xbar(6), ybar(6), t_longest(6)
pinned = [
    ("ybar*T_w0^2", y * t * t,
     "e10a1f74b64ebc5a73a6763a80265e0b3a07a62cbc3715b8a504eb6bd2c66bc1",
     "201e350c4e245bfe0c3e92d77caf4df7188db830faba778ab89b6523ca32357c"),
    ("xbar*ybar*T_w0", x * y * t,
     "9484d6971dfb072b751438bad82b8e322412941ad517eadb6a11489852f442af",
     "e5570b32657515df8ca11d8af81e756df817d613595e902f2e09b9ce21f12900"),
]
wrong = 0
for name, h, want, want_text in pinned:
    square, took = timed(lambda: h * h)
    got = json_sha256(element_to_json(square))
    print(f"({name})^2 at n = 6: {took:.2f} s, sha256 {got}")
    text, took = timed(format_element, square)
    got_text = sha256(text)
    print(f"  its text: {len(text)} bytes in {took:.3f} s, sha256 {got_text}")
    wrong += (got != want) + (got_text != want_text)
print(f"peak resident set after both squares: {peak_kib()} KiB")
sys.exit(wrong)
