"""
Spectral frameworks from the bottom of the spectrum
===================================================

A graph's least adjacency eigenvalue tau comes with an eigenspace, and
placing each vertex at the corresponding row of an orthonormal eigenbasis
gives a point configuration whose Gram matrix is the orthogonal projector
onto that eigenspace. This script builds a few of these configurations and
inspects the matrices that make them rigid.
"""

from fractions import Fraction

from eigenframe import (
    adjacency_matrix,
    canonical_stress,
    kneser,
    kneser_framework,
    least_eigenspace,
    least_eigenvalue_framework,
)
from eigenframe.graphs import from_edges

# the complete graph on four vertices: tau = -1 with multiplicity 3,
# so the points live in 3 dimensions (a regular tetrahedron)
k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
les = least_eigenspace(k4, "exact")
fw = least_eigenvalue_framework(les)
print("K4: tau =", les.spectrum.tau, " multiplicity =", les.spectrum.tau_multiplicity)
print("K4 framework dimension:", fw.d)
print("Gram row 0:", [str(fw.gram[0, j]) for j in range(4)])

# the Gram matrix is an exact projector: squaring changes nothing
assert fw.gram @ fw.gram == fw.gram

# eigenvector check: A P = tau P, column by column of the projector
assert adjacency_matrix(k4) @ fw.gram == fw.gram * fw.tau

# the Petersen graph, built as the disjointness graph of 2-element subsets
pet = kneser(5, 2)
fw_pet = least_eigenvalue_framework(least_eigenspace(pet, "exact"))
print("\nPetersen: tau =", fw_pet.tau, " multiplicity =", fw_pet.tau_multiplicity)
print("diagonal entry:", fw_pet.gram[0, 0], " (equals multiplicity / vertices)")

# the same configuration arises from set characteristic vectors: centering
# the 0/1 incidence vectors of the 2-subsets lands in the tau-eigenspace
fw_sets = kneser_framework(5, 2)
unit = fw_sets.rescaled(Fraction(1, fw_sets.gram[0, 0]))
scaled_projector = fw_pet.gram * Fraction(fw_pet.n, fw_pet.d)
print("set construction matches the projector:", unit.gram == scaled_projector)

# a spherical stress for the framework: shift the adjacency matrix by -tau.
# Five conditions are verified (PSD, support, signs, kernel, corank).
from eigenframe.exact import rank_exact

stress = canonical_stress(k4)
print("\nstress matrix for K4 passes all five checks")
print("corank:", stress.z.nrows - rank_exact(stress.z), " equals framework dimension", stress.framework.d)
