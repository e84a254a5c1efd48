"""A cold `import hecke.cli` loads only the modules the package runs, and
the degree-4 catalog check guards its fixtures without loading hashlib.

Each check runs in a fresh `python -S` interpreter.  Run this file directly
(`python tests/test_startup.py`) to check an interpreter without pytest.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Standard-library modules that cost milliseconds to import and that no
# import of hecke needs: dataclasses pulls in inspect, ast, dis and tokenize,
# hashlib loads OpenSSL, and fractions pulls in decimal.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
         "hashlib", "fractions", "decimal")

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


def heavy_modules_loaded(then: str = "") -> list:
    """The HEAVY modules present after importing hecke.cli and hecke, and
    then running the code then."""
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         PROBE.format(src=SRC, heavy=HEAVY, then=then)],
        capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cold_import_loads_no_heavy_module():
    assert heavy_modules_loaded() == []


def test_cold_h4_catalog_check_leaves_hashlib_unloaded():
    assert "hashlib" not in heavy_modules_loaded(H4_CHECKS)


if __name__ == "__main__":
    loaded = heavy_modules_loaded()
    print(f"Python {sys.version.split()[0]}: "
          + (f"loaded {', '.join(loaded)}" if loaded else "no heavy module"))
    sys.exit(1 if loaded else 0)
