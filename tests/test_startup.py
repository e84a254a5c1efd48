"""A cold `import hecke.cli` loads only the modules the package runs.

The check runs in a fresh `python -S` interpreter.  Run this file directly
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
print(" ".join(m for m in {heavy!r} if m in sys.modules))
"""


def heavy_modules_loaded() -> list:
    """The HEAVY modules present after importing hecke.cli and hecke."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(src=SRC, heavy=HEAVY)],
        capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cold_import_loads_no_heavy_module():
    assert heavy_modules_loaded() == []


if __name__ == "__main__":
    loaded = heavy_modules_loaded()
    print(f"Python {sys.version.split()[0]}: "
          + (f"loaded {', '.join(loaded)}" if loaded else "no heavy module"))
    sys.exit(1 if loaded else 0)
