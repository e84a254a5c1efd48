"""A cold `import hecke.cli` loads only the modules the package runs, a
cold call that prints text loads no `json`, and the degree-4 catalog check
guards its fixtures without loading hashlib.

Each check runs in a fresh `python -S` interpreter.  Run this file directly
(`python tests/test_startup.py`) to check an interpreter without pytest.
"""

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Standard-library modules that cost milliseconds to import and that no
# import of hecke needs: dataclasses pulls in inspect, ast, dis and tokenize,
# hashlib loads OpenSSL, and fractions pulls in decimal.  json is loaded
# only by the code that reads or writes JSON.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
         "hashlib", "fractions", "decimal", "json")

PROBE = """
import sys
sys.path.insert(0, {src!r})
import hecke.cli
import hecke
{then}
print(" ".join(m for m in {heavy!r} if m in sys.modules))
"""

# The degree-4 catalog item compares the fixtures' canonical text with a
# committed copy; a digest of it would load OpenSSL into a cold verify.
H4_CHECKS = """
from hecke.verify import run_verify
report = run_verify(n_max=4, only=["09-h4-checks-n4"])
assert [r.status for r in report.results] == ["pass"], report
"""

MUL = 'hecke.cli.main(["mul", "--n", "3", "T[1]", "T[2]"{json}])'
VERIFY_JSON = 'hecke.cli.main(["verify", "--n-max", "2", "--json"])'


def probe(then: str = "") -> tuple:
    """What a fresh interpreter prints after importing hecke.cli and hecke
    and then running the code then, and the HEAVY modules present after."""
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         PROBE.format(src=SRC, heavy=HEAVY, then=then)],
        capture_output=True, text=True, check=True, timeout=120)
    lines = out.stdout.splitlines(keepends=True)
    return "".join(lines[:-1]), lines[-1].split()


def heavy_modules_loaded(then: str = "") -> list:
    return probe(then)[1]


def test_cold_import_loads_no_heavy_module():
    assert heavy_modules_loaded() == []


def test_cold_h4_catalog_check_leaves_hashlib_unloaded():
    assert "hashlib" not in heavy_modules_loaded(H4_CHECKS)


def test_cold_text_call_loads_no_heavy_module():
    assert probe(MUL.format(json="")) == ("T[1,2]\n", [])


def test_cold_json_calls_print_their_pinned_json():
    printed, _ = probe(MUL.format(json=', "--json"'))
    assert printed == ('{"basis": "T", "n": 3, "terms": '
                       '[{"coeff": [[0, "1"]], "perm": [2, 3, 1]}]}\n')
    printed, _ = probe(VERIFY_JSON)
    assert hashlib.sha256(printed.encode()).hexdigest() == (
        "a643312eb35c4afa3097b7ddb6cd7127aabc8ddff89b16cc235d725fde1541d2")


if __name__ == "__main__":
    loaded = heavy_modules_loaded() + heavy_modules_loaded(MUL.format(json=""))
    print(f"Python {sys.version.split()[0]}: "
          + (f"loaded {', '.join(loaded)}" if loaded else "no heavy module"))
    sys.exit(1 if loaded else 0)
