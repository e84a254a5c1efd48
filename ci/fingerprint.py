"""The behavioural fingerprint, taken from the CLI's printed report as
ROADMAP.md defines it (tier-1 checks it only in-process): it takes about
a second."""
import hashlib, subprocess, sys
report = subprocess.run([sys.executable, "-m", "hecke.cli", "verify", "--n-max", "6",
                         "--json"], stdout=subprocess.PIPE).stdout
got = hashlib.sha256(report).hexdigest()
print(f"verify --n-max 6 --json sha256: {got}")
sys.exit(got != "2cb47925da7f0cdcb261f933e04ba233b4e49f60a6cab40580233df1e0cf87a9")
