"""The paper's claims one degree past the default enumeration cap,
under Caps(enum_max=8): xbar ybar = ybar xbar, and xbar^2, ybar^2
and T_w0^2 are central; the dense factors number S_8 and multiply as
coset sums, T_w0^2 walks one 28-letter word packed; each product's
and each centrality test's time is printed, then the process's peak
resident set."""
import sys
from _common import peak_kib, timed
from hecke import AlgebraContext, Caps, is_central, t_longest, xbar, ybar
ctx = AlgebraContext(8, Caps(enum_max=8))
x, y, t = xbar(ctx), ybar(ctx), t_longest(ctx)
wrong, got = 0, {}
for name, a, b in (("xbar*ybar", x, y), ("ybar*xbar", y, x),
                   ("xbar^2", x, x), ("ybar^2", y, y), ("T_w0^2", t, t)):
    got[name], took = timed(lambda: a * b)
    print(f"{name} at n = 8: {took:.2f} s")
commute = got["xbar*ybar"] == got["ybar*xbar"]
print(f"xbar*ybar = ybar*xbar at n = 8: {commute}")
wrong += not commute
for name in ("xbar^2", "ybar^2", "T_w0^2"):
    central, took = timed(is_central, got[name])
    print(f"{name} central at n = 8: {central}, {took:.2f} s")
    wrong += not central
print(f"peak resident set at n = 8: {peak_kib()} KiB; {wrong} wrong")
sys.exit(wrong)
