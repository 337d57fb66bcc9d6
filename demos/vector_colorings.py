"""
Optimal vector colorings and when they are unique
=================================================

A vector t-coloring puts a unit vector on each vertex with adjacent pairs
at inner product -1/(t-1) or below. For 1-walk-regular graphs the optimum
is t = 1 - deg/tau and one optimal solution comes straight from the least
eigenvalue framework. Sometimes it is the only optimal solution; this
script shows both outcomes.
"""

from eigenframe import (
    is_one_walk_regular,
    is_uniquely_vector_colorable_1wr,
    least_eigenspace,
    optimal_vector_coloring_1wr,
    validate_coloring,
)
from eigenframe.graphs import cycle, from_edges, kneser

# walk regularity is the entry ticket; a star fails it
star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
print("star walk-regular:", is_one_walk_regular(star).ok)
print("C6 walk-regular:", is_one_walk_regular(cycle(6)).ok)

# Kneser graphs: the optimum lands exactly at t = n/r
for n, r in [(5, 2), (6, 2), (7, 3)]:
    col = optimal_vector_coloring_1wr(kneser(n, r))
    print(f"K({n},{r}): t = {col.t}")

# the hexagon: t = 2, vectors alternate between two antipodal points
col = optimal_vector_coloring_1wr(cycle(6))
print("\nC6: t =", col.t)
print("verdict:", validate_coloring(cycle(6), col.gram, col.t).status)

# uniqueness holds for the Petersen graph, decided exactly on its certified
# least eigenspace
res = is_uniquely_vector_colorable_1wr(least_eigenspace(kneser(5, 2), "exact"))
print("\nPetersen uniquely colorable:", res.uvc)

# two disjoint triangles are walk-regular but each triangle can spin
# independently, so a second optimal coloring exists
two_k3 = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
res = is_uniquely_vector_colorable_1wr(two_k3)
print("\ntwo triangles uniquely colorable:", res.uvc)
print("reason:", res.reason)
print("witness dimension:", res.x_dim)
alt = res.alternate
print("alternate coloring found at the same t =", alt.t)
print("alternate verdict:", validate_coloring(two_k3, alt.gram, alt.t).status)
print("grams differ:", alt.gram != res.coloring.gram)
