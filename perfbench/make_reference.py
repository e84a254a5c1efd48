"""Write the benchmark's exactness references from the current source.

    python3 perfbench/make_reference.py

Writes registry_n6_seed0.json (the canonical run_verify(n_max=6, seed=0)
report, whose sha256 must stay the fingerprint in workloads.py) and
reference.json: digests of the gamma bases for n = 3..6, centre_basis
sizes, the n = 4 eigenvalues and eigenspace dimensions, and the seed-0
transcript digest of every workload and profile.  Run it only when a
change alters results on purpose, and say so with the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run

HERE = run.HERE
sys.path.insert(0, os.path.join(run.ROOT, "src"))

import hecke  # noqa: E402
from workloads import _canon, _sha  # noqa: E402


def centre_reference() -> dict:
    caps = hecke.Caps(linalg_max=6)
    gamma = {}
    for n in (3, 4, 5, 6):
        gb = hecke.gamma_basis(hecke.AlgebraContext(n, caps))
        gamma[str(n)] = _sha([[list(lam), _canon(g)] for lam, g in gb])
    dims = {str(n): len(hecke.centre_basis(hecke.AlgebraContext(n, caps))
                        .vectors) for n in (3, 4, 5)}
    ctx = hecke.AlgebraContext(4, caps)
    ident = hecke.Permutation.identity(4)
    eigen = {}
    for lam, g in hecke.gamma_basis(ctx):
        entry = {}
        for kind, d in (("triv", hecke.x_elem(ctx)), ("sign", hecke.y_elem(ctx))):
            gd = g * d
            k = gd.coeff(ident).divexact(d.coeff(ident))
            assert gd == d.scale(k)
            entry[kind] = [list(t) for t in k.items()]
            entry[kind + "_dim"] = len(hecke.eigen_search(ctx, g, k))
        eigen[",".join(map(str, lam))] = entry
    return {"gamma_sha256": gamma, "centre_dim": dims, "eigen_n4": eigen}


def main() -> int:
    report = hecke.run_verify(n_max=6, seed=0).to_json()
    with open(os.path.join(HERE, "registry_n6_seed0.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report)
    print("registry sha256", hashlib.sha256(report.encode()).hexdigest())
    ref = {"centre": centre_reference(),
           "transcript_seed0": {"full": {}, "tiny": {}}}
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
    for profile in ("full", "tiny"):
        for name in run.WORKLOADS:
            out = run.Run(name, 0, profile).spawn("pass")
            if "error" in out or out["failed"]:
                print(name, profile, out.get("error") or out["errors"])
                return 1
            ref["transcript_seed0"][profile][name] = out["transcript"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(ref["transcript_seed0"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
