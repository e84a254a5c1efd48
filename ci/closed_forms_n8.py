"""The same five closed forms at n = 8, under Caps(enum_max=8), against
their minimal-basis coordinates and their expansions over the e_i(L),
which are built once and shared by the five forms; the coordinates
are read off the minimal-length coefficients once is_central has
passed; the basis's and each form's time are printed, each form's
express_in_gamma time on a line of its own, then the process's peak
resident set."""
from _common import peak_kib, timed
import hecke.sqrtcenter
from hecke import AlgebraContext, Caps, express_in_gamma, gamma_basis
from hecke.sqrtcenter import _CLOSED_FORMS, _check_closed_form
expressed = []

def expressing(el, gb):
    coords, took = timed(express_in_gamma, el, gb)
    expressed.append(took)
    return coords

hecke.sqrtcenter.express_in_gamma = expressing
ctx = AlgebraContext(8, Caps(enum_max=8))
gb, took = timed(gamma_basis, ctx)
print(f"gamma_basis(8): {took:.2f} s")
for name in _CLOSED_FORMS:
    _, took = timed(lambda: _check_closed_form(ctx, name, gb, esym=True))
    print(f"{name} at n = 8: {took:.2f} s")
    print(f"  its express_in_gamma: {expressed[-1]:.3f} s")
print(f"peak resident set after the five forms at n = 8: {peak_kib()} KiB")
