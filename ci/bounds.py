"""No computation without a bound, end to end: one text for each bound
of the grammar (word length, power terms, power bits, exponent,
MAX_TERMS, nesting depth, the enumeration cap and the budget of
scalar-product pairs, which charges a power's products, a pair of
wide coefficients by its 64-bit words in a product of any size, and
a power of a wide monomial by the square of its words) is fed to
hecke mul in a fresh process; each must exit 3 with an error: line,
no output and no traceback, in under 2 s, and each time is printed;
the wide monomial texts are those of tests/test_cli.py; so must an
eigen search at n = 8, above the linear-algebra cap, in under 0.5 s,
since the cap is checked before the minimal basis is built; then a
chain of 4,000 sums after a 65,536-term scalar is parsed in-process,
its time printed, and must take under 1 s."""
import subprocess, sys
from _common import timed
from hecke import parse_scalar
from hecke.parsing import (MAX_EXPONENT, MAX_NESTING, MAX_POWER_TERMS,
                           MAX_WORD_LENGTH)
deep, N = MAX_NESTING + 1, 2**255 - 19
texts = [
    ("word length", 3, "T[" + ",".join("1" * (MAX_WORD_LENGTH + 1)) + "]"),
    ("power terms", 3, f"(v-1)^{MAX_POWER_TERMS}*T[]"),
    ("power bits", 3, "3^10000000*T[]"),
    ("exponent", 3, f"q^{MAX_EXPONENT // 2 + 1}*T[]"),
    ("scalar terms", 3, "(1+v)^512*(1+v^513)^512*T[1]"),
    ("nesting depth", 3, "(" * deep + "q" + ")" * deep + "*T[]"),
    ("enumeration cap", 8, "T[1]"),
    ("product pairs", 3, "*".join(["(1+v)^255"] * 16) + "*T[1]"),
    ("wide power", 3, f"({N}+{N}*v)^255*T[1]"),
    ("wide monomial product", 3, "*".join(["3^10000"] * 200) + "*T[1]"),
    ("wide binomial product", 3, "*".join(["(3^10000+v)"] * 31) + "*T[1]"),
    ("wide monomial sum", 3, "(" + "+".join(["7^21000"] * 4000) + ")*T[1]"),
]
cases = [(name, ["mul", "--n", str(n), text, "T[]"], 2)
         for name, n, text in texts]
cases.append(("eigen above the linear-algebra cap",
              ["eigen", "--n", "8", "--gamma", "8", "--k", "0",
               "--enum-max", "8"], 0.5))
wrong = 0
for name, argv, bound in cases:
    proc, took = timed(lambda: subprocess.run(
        [sys.executable, "-m", "hecke.cli", *argv], capture_output=True, text=True))
    ok = (proc.returncode == 3 and proc.stdout == ""
          and proc.stderr.startswith("error: ")
          and "Traceback" not in proc.stderr and took < bound)
    print(f"{name}: exit {proc.returncode} in {took:.2f} s, "
          f"{proc.stderr.strip()[:90]}")
    wrong += not ok
print(f"{wrong} of {len(cases)} bounds not held")
chain, took = timed(parse_scalar, "((1+v)^255*(1+v^256)^255" + "+1" * 4000 + ")")
print(f"4,000 sums after a {chain.num_terms()}-term scalar: {took:.3f} s")
sys.exit(wrong + (took > 1))
