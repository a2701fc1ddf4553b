"""Closure descriptions and the closed / semi-closed / substructure predicates.

A closure description turns selected relations into partial functions: every
embedding of the entry's root into a structure must extend to exactly one
tuple of the closure relation (out-degree one), and no other prefix may carry
a tuple.  Roots live on the canonical vertices "1".."m" and must be nonempty
and irreducible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from ._record import frozen
from .errors import CapError, PreconditionError, StructureError
from .structures import (
    Structure,
    free_amalgamation,
    induced_substructure,
    is_irreducible,
    search_morphisms,
)


@frozen
class ClosureEntry:
    symbol: str
    root: Structure

    def __post_init__(self):
        m = len(self.root.vertices)
        if m == 0:
            raise StructureError("closure roots must be nonempty")
        if not is_irreducible(self.root):
            raise StructureError("closure roots must be irreducible")
        expected = sorted(str(i) for i in range(1, m + 1))
        if list(self.root.vertices) != expected:
            raise StructureError('closure roots use canonical vertices "1".."m"')

    @property
    def root_size(self) -> int:
        return len(self.root.vertices)

    def root_tuple(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(1, self.root_size + 1))


@frozen
class ClosureDescription:
    entries: tuple[ClosureEntry, ...]

    def __post_init__(self):
        if len(set(self.entries)) != len(self.entries):
            raise StructureError("duplicate closure entries")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def is_unary(self) -> bool:
        return all(e.root_size == 1 for e in self.entries)


EMPTY_CLOSURES = ClosureDescription(())


def closure_description(*entries: tuple[str, Structure]) -> ClosureDescription:
    return ClosureDescription(tuple(ClosureEntry(sym, root) for sym, root in entries))


def out_degree(A: Structure, symbol: str, prefix: Sequence[str]) -> int:
    """Number of completions of the prefix to tuples of the relation."""
    prefix = tuple(prefix)
    k = len(prefix)
    n = A.language.arity(symbol)
    if k > n:
        raise StructureError("prefix longer than the relation's arity")
    return sum(1 for t in A.tuples(symbol) if t[:k] == prefix)


def _entry_arity(A: Structure, entry: ClosureEntry) -> int:
    n = A.language.arity(entry.symbol)
    if entry.root_size > n:
        raise StructureError(
            f"root of {entry.symbol!r} has {entry.root_size} vertices, arity is {n}"
        )
    return n


def _root_prefixes(A: Structure, entry: ClosureEntry) -> set[tuple[str, ...]]:
    """Prefix tuples that represent embeddings of the entry's root into A."""
    order = entry.root_tuple()
    out = set()
    for m in search_morphisms(entry.root, A, "embedding"):
        d = m.as_dict()
        out.add(tuple(d[v] for v in order))
    return out


def _closure_groups(A: Structure, entry: ClosureEntry) -> dict[tuple, set[tuple]]:
    m = entry.root_size
    groups: dict[tuple, set[tuple]] = {}
    for t in A.tuples(entry.symbol):
        groups.setdefault(t[:m], set()).add(t)
    return groups


@frozen
class ClosureViolation:
    entry: ClosureEntry
    prefix: tuple[str, ...]
    reason: str

    def __str__(self):
        return f"{self.entry.symbol}@{self.prefix}: {self.reason}"


def _entry_violation(
    A: Structure, entry: ClosureEntry, need_tuple_at_roots: bool
) -> Optional[ClosureViolation]:
    """The first violation of one entry, prefixes in sorted order: tuples at
    non-root prefixes and out-degrees above one, then (for closedness) roots
    without a tuple."""
    _entry_arity(A, entry)
    roots = _root_prefixes(A, entry)
    groups = _closure_groups(A, entry)
    for prefix in sorted(groups):
        if prefix not in roots:
            return ClosureViolation(entry, prefix, "tuple at a non-root prefix")
        if len(groups[prefix]) > 1:
            return ClosureViolation(entry, prefix, "out-degree above one")
    if need_tuple_at_roots:
        for prefix in sorted(roots):
            if prefix not in groups:
                return ClosureViolation(entry, prefix, "root embedding without a tuple")
    return None


def closed_violation(A: Structure, U: ClosureDescription) -> Optional[ClosureViolation]:
    for entry in U:
        found = _entry_violation(A, entry, need_tuple_at_roots=True)
        if found is not None:
            return found
    return None


def is_U_closed(A: Structure, U: ClosureDescription) -> bool:
    return closed_violation(A, U) is None


def semi_closed_violation(A: Structure, U: ClosureDescription) -> Optional[ClosureViolation]:
    for entry in U:
        found = _entry_violation(A, entry, need_tuple_at_roots=False)
        if found is not None:
            return found
    return None


def is_U_semi_closed(A: Structure, U: ClosureDescription) -> bool:
    return semi_closed_violation(A, U) is None


def is_U_substructure(A, B: Structure, U: ClosureDescription) -> bool:
    """No closure tuple of B roots inside A but leaves A: the U-closure of
    A's vertices in B adds nothing.

    ``A`` may be a Structure (then it must be induced in B) or a plain
    collection of B's vertices.
    """
    if isinstance(A, Structure):
        sub = frozenset(A.vertices)
        if induced_substructure(B, sub) != A:
            raise PreconditionError("A must be an induced substructure of B")
    else:
        sub = frozenset(A)
    return u_closure_set(B, U, sub) == sub


def u_closure(A: Structure, U: ClosureDescription, S: Iterable[str]) -> Structure:
    """Minimal U-closed substructure of A containing S (A must be U-closed)."""
    if not is_U_closed(A, U):
        raise PreconditionError("u_closure requires a U-closed ambient structure")
    return induced_substructure(A, u_closure_set(A, U, S))


def _closure_index(A: Structure, U: ClosureDescription) -> dict[str, list]:
    """Per vertex v of A, the closure rules whose root coordinates include
    v, as ``(rule, distinct root vertices)``; a rule is ``(root
    coordinates, tuple)``.  Cached on A per closure description."""
    cache = A._closures
    if cache is None:
        cache = {}
        object.__setattr__(A, "_closures", cache)
    index = cache.get(U)
    if index is None:
        index = {v: [] for v in A.vertices}
        rules = {(t[: entry.root_size], t) for entry in U for t in A.tuples(entry.symbol)}
        for rule in rules:
            root = set(rule[0])
            for v in root:
                index[v].append((rule, len(root)))
        cache[U] = index
    return index


def u_closure_set(A: Structure, U: ClosureDescription, S: Iterable[str]) -> frozenset:
    """Vertex set of the least U-substructure of A containing S.

    Least fixed point of: whenever all root coordinates of a closure tuple
    lie inside, the whole tuple does.  Each vertex that comes in counts
    itself off the rules indexed under it (``_closure_index``); a rule
    whose count reaches its number of root vertices brings its tuple in.
    """
    current = set(S)
    unknown = current - set(A.vertices)
    if unknown:
        raise StructureError(f"unknown vertices {sorted(unknown)}")
    index = _closure_index(A, U)
    hits: dict[tuple, int] = {}
    todo = list(current)
    while todo:
        for rule, need in index[todo.pop()]:
            hits[rule] = got = hits.get(rule, 0) + 1
            if got == need:
                for u in rule[1]:
                    if u not in current:
                        current.add(u)
                        todo.append(u)
    return frozenset(current)


U_SIZE_CANDIDATE_CAP = 20


def u_size(A: Structure, U: ClosureDescription) -> int:
    """Minimum number of generators whose U-closure is all of A.

    Raises CapError when more than ``U_SIZE_CANDIDATE_CAP`` vertices lie
    outside the closure of the forced generators."""
    if not is_U_closed(A, U):
        raise PreconditionError("u_size requires a U-closed structure")
    everything = frozenset(A.vertices)
    if not everything:
        return 0
    # vertices that never occur past a root prefix must be generators
    addable: set[str] = set()
    for entry in U:
        m = entry.root_size
        for t in A.tuples(entry.symbol):
            addable.update(t[m:])
    mandatory = sorted(set(A.vertices) - addable)
    covered = u_closure_set(A, U, mandatory)
    if covered == everything:
        return len(mandatory)
    rest = sorted(everything - covered)
    if len(rest) > U_SIZE_CANDIDATE_CAP:
        raise CapError(
            f"u_size guard: {len(rest)} generator candidates exceed cap {U_SIZE_CANDIDATE_CAP}",
            projected=len(rest),
        )
    for k in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            if u_closure_set(A, U, mandatory + list(combo)) == everything:
                return len(mandatory) + k
    raise StructureError("unreachable: full vertex set generates itself")


@frozen
class PreservationReport:
    preserved: bool
    violation: Optional[ClosureViolation]
    structure: Structure

    def __bool__(self):
        return self.preserved


def free_amalgam_preserves_closed(
    B1: Structure, B2: Structure, A: Structure, U: ClosureDescription
) -> PreservationReport:
    """Build the free amalgamation over A and re-check U-closedness."""
    am = free_amalgamation(B1, B2, A)
    violation = closed_violation(am.structure, U)
    return PreservationReport(violation is None, violation, am.structure)
