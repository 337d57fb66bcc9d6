"""
When is the spectral framework the only one of its kind?
========================================================

A framework dominates another when the second keeps every vector's length
and has no larger inner product across any edge. Universal completability
means every dominated framework is congruent to the original, and it
reduces to a linear question: the space of symmetric witness matrices must
be zero.

This script certifies some graphs, exhibits a witness when certification
fails, and walks the witness down to a genuinely different framework.
"""

from eigenframe import (
    dominated_frameworks,
    is_universally_completable,
    least_eigenspace,
    least_eigenvalue_framework,
    neighborhood_condition,
    xspace,
)
from eigenframe.completability import clique_condition_any, gershgorin_scale
from eigenframe.frameworks import dominates
from eigenframe.graphs import cycle, from_edges, kneser

# odd cycles: irrational least eigenvalue, so the floating backend decides,
# reporting the singular-value margin of the complement-edge system whose
# full rank it proves
for n in (5, 7, 9, 11):
    verdict = is_universally_completable(least_eigenspace(cycle(n), "floating"))
    xs = verdict.witness
    print(f"C{n}: completable={verdict.uc}  margin={xs.sv_margin:.3g}")

# the Petersen graph certifies exactly (integer eigenvalue, modular rank).
# Its least eigenspace is certified once; every check reads that one
# eigenspace and follows its backend.
pet = least_eigenspace(kneser(5, 2), "exact")
print("\nPetersen:", is_universally_completable(pet).uc)

# two sufficient conditions that skip the linear solve entirely
print("neighborhood condition:", neighborhood_condition(pet).holds)
print("clique condition:", clique_condition_any(pet)[0])

# the smallest failure: two disjoint edges. The witness space is a line.
two_k2 = least_eigenspace(from_edges(4, [(0, 1), (2, 3)]), "exact")
xs = xspace(two_k2)
print("\ntwo disjoint edges: witness dimension =", xs.dim)
x = xs.basis[0]
print("witness matrix rows:", [[str(x[i, j]) for j in range(4)] for i in range(4)])

# push the framework along the witness: same bars, different shape.
# The safe step size comes from a Gershgorin bound.
fw = least_eigenvalue_framework(two_k2)
c = gershgorin_scale(x)
moved = dominated_frameworks(fw, x, c=c)
print("step size:", c)
print("original rank:", fw.d, " moved rank:", moved.d)
print("moved is dominated:", dominates(fw, moved))
print("same Gram matrix:", moved.gram == fw.gram)
