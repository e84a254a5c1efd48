"""The commutator solve at n = 6, above the default linear-algebra cap,
where tier-1 stops at n = 5: centre_basis must equal the reduced
echelon basis of the minimal basis, vector for vector and key for
key; the solve's time is printed, with the rows that reach the
elimination out of the rows offered."""
import sys
from _common import timed
from hecke import AlgebraContext, Caps, all_permutations, centre_basis, gamma_basis
from hecke.center import _commutator_rows
from hecke.linalg import SparseSystem, reduced_basis
ctx = AlgebraContext(6, Caps(linalg_max=6))
inserted, insert = [], SparseSystem._insert
SparseSystem._insert = lambda system, row: inserted.append(1) or insert(system, row)
kernel, took = timed(lambda: [v._terms for v in centre_basis(ctx).vectors])
SparseSystem._insert = insert
reduced = reduced_basis([g._terms for _, g in gamma_basis(ctx)],
                        all_permutations(6))
same = kernel == reduced and [list(v) for v in kernel] == [list(v) for v in reduced]
print(f"centre_basis at n = 6: {len(kernel)} vectors in {took:.2f} s, "
      f"{len(inserted)} of {len(_commutator_rows(6))} rows inserted, "
      f"the reduced minimal basis: {same}")
sys.exit(not same)
