"""Reference colouring search: the backtracker without propagation.

This is the search ``ramsey.verify_arrow`` used before the forward-checking
kernel ``ramsey.colouring_search``.  It colours copies in index order,
colours ascending with the first copy pinned to 0, and tests a group only
once its largest member is coloured.  It never rules a colour out ahead of
time, so it is obviously faithful to the definition; the tests compare the
kernel's verdict, colouring and node count against it.

``oracle_mono_sets`` builds the groups of an arrow C -> (B)^A_k as
``ramsey._mono_sets`` did before it mapped the copies of A in B through
each copy of B: every copy of A is tested against every copy of B.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ramseyforge.structures import Structure, copy_images


def oracle_mono_sets(C: Structure, A: Structure, B: Structure) -> tuple[list, list, list]:
    """The copies of A and of B in C, and per copy of B the indices of the
    copies of A that are subsets of it, ascending."""
    a_images = copy_images(A, C)
    b_images = copy_images(B, C)
    index = {img: i for i, img in enumerate(a_images)}
    groups = []
    for img in b_images:
        inside = [index[a] for a in a_images if a <= img]
        groups.append(tuple(inside))
    return a_images, b_images, groups


def oracle_search(
    n: int, k: int, groups: Sequence[tuple]
) -> tuple[Optional[list[int]], int]:
    """Complete backtracking search for a colouring with no monochromatic
    group.  Returns (colouring, nodes examined); None when every colouring
    has a monochromatic group."""
    if any(len(g) <= 1 for g in groups):
        return None, 0
    # evaluate each group once its largest index is coloured
    by_last: list[list[tuple]] = [[] for _ in range(n)]
    for g in groups:
        by_last[max(g)].append(g)
    colouring = [0] * n
    examined = 0

    def rec(i: int) -> bool:
        nonlocal examined
        # colour-permutation symmetry: the first copy may be pinned to 0
        for c in range(1 if i == 0 else k):
            colouring[i] = c
            examined += 1
            ok = True
            for g in by_last[i]:
                c0 = colouring[g[0]]
                if all(colouring[j] == c0 for j in g[1:]):
                    ok = False
                    break
            if ok and (i + 1 == n or rec(i + 1)):
                return True
        return False

    if n and rec(0):
        return list(colouring), examined
    return None, examined
