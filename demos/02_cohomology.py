"""Mod-q cohomology in degrees 1 and 2, cup products, decomposable part.

H^1 is Hom(G, Z/q); H^2 is solved from the normalized 2-cocycle identity; the
decomposable part of H^2 is the span of cup products of degree-1 classes
modulo coboundaries.  The striking phenomenon: for the level-3 quotient of a
free group every cup product is a coboundary.
"""

from qcw import SeriesParams, free_presentation, third_quotient, to_table
from qcw.cohom import GroupCohomology
from qcw.qcentral import abelian_table, cyclic_table

# --- a tiny dictionary of H^2 dimensions ------------------------------------
for table, q, name in [
    (cyclic_table(2), 2, "Z/2"),
    (cyclic_table(4), 2, "Z/4 (coefficients Z/2)"),
    (cyclic_table(4), 4, "Z/4 (coefficients Z/4)"),
    (abelian_table([2, 2]), 2, "Z/2 x Z/2"),
]:
    ctx = GroupCohomology(table, q)
    print(
        f"{name}: dim H^1 = {ctx.h1_space().dimension}, "
        f"dim H^2 = {ctx.h2_space().dimension}, "
        f"decomposable = {ctx.dec_module().rank}"
    )

# --- cup products on the Klein four group ------------------------------------
# H^*( (Z/2)^2, F_2 ) is the polynomial algebra F_2[x, y]; in degree 2 the
# products x^2, xy, y^2 fill all of H^2.
ctx = GroupCohomology(abelian_table([2, 2]), 2)
x, y = ctx.h1_space().basis
print("\nKlein four group, cup pairing in decomposable coordinates:")
print(ctx.pairing().values.reshape(2, 2, -1))

# --- vanishing for the free quotient ------------------------------------------
# For E(2,2) = (free rank 2)^[3,2] the two degree-1 classes cup to
# coboundaries: the decomposable part of H^2 is zero, mirroring the fact that
# free pro-p groups have no degree-2 cohomology.
t = to_table(third_quotient(free_presentation(2), SeriesParams(p=2, d=1)))
ctx = GroupCohomology(t, 2)
print(f"\nE(2,2): dim H^1 = {ctx.h1_space().dimension}")
# a cup product is a coboundary iff its decomposable coordinates vanish
values = ctx.pairing().values
for name, (i, j) in [("x.x", (0, 0)), ("x.y", (0, 1)), ("y.y", (1, 1))]:
    print(f"  cup {name} is a coboundary: {not values[i, j].any()}")
print(f"  decomposable H^2 dimension: {ctx.dec_module().rank}")
