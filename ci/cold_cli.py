"""What a cold CLI call costs: the median wall time of 7 fresh
`python -m hecke.cli` calls for each of three verbs, interpreter start,
import and argument parsing included.  It prints the times only and sets
no bound on them; it fails only when a call does."""
import statistics, subprocess, sys
from _common import timed

failed = 0
for argv in (["mul", "--n", "3", "T[1]", "T[2]"], ["gamma", "3"],
             ["verify", "--n-max", "2"]):
    times = []
    for _ in range(7):
        code, took = timed(lambda: subprocess.call(
            [sys.executable, "-m", "hecke.cli", *argv], stdout=subprocess.DEVNULL))
        failed += code != 0
        times.append(took)
    print(f"{' '.join(argv)}: median {statistics.median(times) * 1e3:.1f} ms "
          f"over 7 cold calls")
sys.exit(failed)
