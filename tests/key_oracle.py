"""Reference canonical key: every permutation inside the invariant groups.

This is ``structures.canonical_key`` as it was before it searched by branch
and bound.  Pinned vertices take the labels 0..p-1 in the given order; the
free vertices are grouped by ``oracle_invariant``, the groups take labels in
sorted invariant order, and every permutation inside every group is
encoded.  The key is the least encoding.  It is n! on a vertex-transitive
structure, so the tests call it only on structures of at most 7 vertices.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ramseyforge.structures import Structure


def oracle_invariant(A: Structure, v: str) -> tuple:
    """v's occurrence counts by position and its loops, per symbol in
    sorted name order, by a scan of every tuple."""
    out = []
    for name, ts in sorted(A.relations.items()):
        occ = [0] * A.language.arity(name)
        loops = 0
        for t in ts:
            for i, u in enumerate(t):
                if u == v:
                    occ[i] += 1
            if all(u == v for u in t):
                loops += 1
        out.append((name, tuple(occ), loops))
    return tuple(out)


def oracle_canonical_key(A: Structure, pinned: Sequence[str] = ()) -> tuple:
    pinned = list(pinned)
    free = [v for v in A.vertices if v not in set(pinned)]
    groups: dict[tuple, list[str]] = {}
    for v in free:
        groups.setdefault(oracle_invariant(A, v), []).append(v)
    group_items = sorted(groups.items())
    pools = [itertools.permutations(vs) for _, vs in group_items]

    base = len(pinned)
    best = None
    for arrangement in itertools.product(*pools):
        label = {v: i for i, v in enumerate(pinned)}
        i = base
        for perm in arrangement:
            for v in perm:
                label[v] = i
                i += 1
        enc = tuple(
            (name, tuple(sorted(tuple(label[v] for v in t) for t in ts)))
            for name, ts in sorted(A.relations.items())
        )
        if best is None or enc < best:
            best = enc
    return (A.language, len(A.vertices), len(pinned), best)
