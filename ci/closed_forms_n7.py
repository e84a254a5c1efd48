"""The paper's closed forms at n = 7, which the report checks up to
n = 5 and tier-1 at n = 6: x, y, T_w0^2, xbar^2 and ybar^2 against
their minimal-basis coordinates and their expansions over the e_i(L),
as sqrtcenter._CLOSED_FORMS states them; a mismatch raises
MismatchError; the basis's and each form's time are printed, then
the process's peak resident set."""
from _common import peak_kib, timed
from hecke import gamma_basis
from hecke.sqrtcenter import _CLOSED_FORMS, _check_closed_form
gb, took = timed(gamma_basis, 7)
print(f"gamma_basis(7): {took:.2f} s")
for name in _CLOSED_FORMS:
    _, took = timed(lambda: _check_closed_form(7, name, gb, esym=True))
    print(f"{name} at n = 7: {took:.2f} s")
print(f"peak resident set after the five forms: {peak_kib()} KiB")
