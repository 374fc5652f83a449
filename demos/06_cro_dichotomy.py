"""Consistent-random-ordering systems and the uniqueness dichotomy at a
finite truncation level.

One exact-rational variable per ordered isomorphism class, one mass row per
base class, one restriction row per point-deletion.  The uniform assignment
is always a solution; the question is whether anything else is.
"""

from homord import (
    build_cro_system,
    dirac_solutions,
    projected_dimension,
    uniqueness_report,
)


def banner(name, level):
    r = uniqueness_report(build_cro_system(name, level))
    verdict = "UNIQUE (rigid side)" if r.unique_at_truncation else "NOT unique"
    print(
        f"{name:<14} L{level}:  {r.num_variables:>3} vars, {r.num_rows:>3} rows, "
        f"nullspace dim {r.nullspace_dim:>2}, {r.dirac_count} Dirac  ->  {verdict}"
    )
    return r


print("pure sets: permutations act transitively on orders, nothing to vary")
for L in (2, 3, 4, 5):
    banner("pure_set", L)

print("\nlinear orders: the built-in order can be copied or reversed")
for L in (2, 3, 4):
    r = banner("linear_order", L)

print("\neach 0/1 solution picks one ordered class per level:")
for sol in r.dirac_solutions:
    print("   ", " / ".join(c.decode("ascii") for c in sorted(sol)))

print("\ngraphs: a positive-dimensional solution set with no 0/1 points at all")
g3 = banner("graph", 3)
g4 = banner("graph", 4)

proj = projected_dimension(build_cro_system("graph", 4), 3)
print(
    f"\nlevel-4 solutions seen through level-<=3 coordinates: dimension {proj}"
    f" (standalone level-3 system: {g3.nullspace_dim});"
    " deeper constraints never widen the shallow picture"
)

print("\ntriangle-free graphs and tournaments for contrast:")
banner("kn_free_graph:3", 4)
banner("tournament", 4)

sols = dirac_solutions(build_cro_system("graph", 3))
print(f"\ndirect 0/1 search on graphs at L3 confirms: {len(sols)} solutions")
