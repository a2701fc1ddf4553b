"""Reference U-closure: rescan every closure tuple until nothing changes.

This is ``closures.u_closure_set`` as it was before it indexed the closure
tuples by root vertex: it rebuilds the list of (root coordinates, tuple)
pairs on every call and sweeps it until a sweep adds nothing.
"""

from __future__ import annotations

from typing import Iterable

from ramseyforge.closures import ClosureDescription
from ramseyforge.errors import StructureError
from ramseyforge.structures import Structure


def oracle_u_closure_set(A: Structure, U: ClosureDescription, S: Iterable[str]) -> frozenset:
    current = set(S)
    unknown = current - set(A.vertices)
    if unknown:
        raise StructureError(f"unknown vertices {sorted(unknown)}")
    pending = [(t[: entry.root_size], t) for entry in U for t in A.tuples(entry.symbol)]
    changed = True
    while changed:
        changed = False
        waiting = []
        for root, t in pending:
            if current.issuperset(root):
                current.update(t)
                changed = True
            else:
                waiting.append((root, t))
        pending = waiting
    return frozenset(current)
