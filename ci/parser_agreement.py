"""The parser against the earlier parser (tests/parser_oracle.py) on
the 1,824 texts of the benchmark's seed-0 session workload, taken
from perfbench/workloads.py without changing it: the same elements,
key order included; each parser's time over all texts is printed,
after one untimed pass has built the named elements they refer to."""
import sys
from _common import timed
from hecke import parse_element
from parser_oracle import oracle_element
from workloads import session_inputs
texts = [(a, n) for _, n, args in session_inputs(0, "full") for a in args]
for a, n in texts:
    parse_element(a, n)
parsed = {}
for name, parse in (("package", parse_element), ("oracle", oracle_element)):
    parsed[name], took = timed(lambda: [parse(a, n) for a, n in texts])
    print(f"{name} parser: {len(texts)} session texts in {took:.3f} s")
wrong = sum(a != b or list(a._terms) != list(b._terms)
            for a, b in zip(parsed["package"], parsed["oracle"]))
print(f"{wrong} of {len(texts)} texts differ")
sys.exit(wrong != 0)
