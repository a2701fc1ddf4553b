"""Micro-scale Ramsey constructions and the arrow verifier.

The product partite lemma, pictures and the partite construction step, the
pigeonhole-style construction for structures with unary functions, and a
complete colouring search deciding C -> (B)^A_k at desk scale.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ._record import frozen
from .build import linear_order_tuples
from .closures import (
    ClosureDescription,
    EMPTY_CLOSURES,
    closed_violation,
    closure_description,
    is_U_closed,
    is_U_substructure,
    semi_closed_violation,
    u_closure_set,
)
from .errors import CapError, PreconditionError, StructureError
from .structures import (
    Language,
    Morphism,
    Structure,
    _copy_search,
    canonical_key,
    copy_images,
    gaifman_distances,
    induced_substructure,
    linear_order,
    search_morphisms,
    verify_morphism,
)


# ---------------------------------------------------------------------------
# partite systems


@frozen
class PartiteSystem:
    """A structure partitioned over a base with a homomorphism-embedding
    projection; tuples meet each part in at most one vertex."""

    base: Structure
    carrier: Structure
    part_of: tuple[tuple[str, str], ...]

    @staticmethod
    def make(base: Structure, carrier: Structure, part_of: Mapping[str, str]) -> "PartiteSystem":
        system = PartiteSystem(base, carrier, tuple(sorted(part_of.items())))
        system.validate()
        return system

    def parts(self) -> dict[str, str]:
        return dict(self.part_of)

    def part_members(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {p: [] for p in self.base.vertices}
        for v, p in self.part_of:
            out[p].append(v)
        return out

    def projection(self) -> Morphism:
        return Morphism.make(
            self.carrier, self.base, self.parts(), "homomorphism-embedding"
        )

    def validate(self) -> None:
        parts = self.parts()
        if set(parts) != set(self.carrier.vertices):
            raise PreconditionError("part assignment must cover the carrier")
        base_vs = set(self.base.vertices)
        for v, p in parts.items():
            if p not in base_vs:
                raise PreconditionError(f"part {p!r} is not a base vertex")
        for name, ts in self.carrier.relations.items():
            for t in ts:
                distinct = set(t)
                if len({parts[v] for v in distinct}) != len(distinct):
                    raise PreconditionError(f"non-transversal tuple {t!r} in {name!r}")
        if not verify_morphism(self.projection()):
            raise PreconditionError("projection is not a homomorphism-embedding")

    def induced_over(self, base_vertices: Iterable[str]) -> "PartiteSystem":
        keep_parts = set(base_vertices)
        verts = [v for v, p in self.part_of if p in keep_parts]
        return PartiteSystem.make(
            induced_substructure(self.base, keep_parts),
            induced_substructure(self.carrier, verts),
            {v: p for v, p in self.part_of if p in keep_parts},
        )


def partite_copies(system: PartiteSystem) -> list[Morphism]:
    """Embeddings of the base into the carrier inverting the projection."""
    parts = system.parts()
    out = []
    for m in search_morphisms(system.base, system.carrier, "embedding"):
        d = m.as_dict()
        if all(parts[w] == a for a, w in d.items()):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# the colouring search


def colouring_search(
    n: int,
    k: int,
    groups: Sequence[Sequence[int]],
    node_budget: Optional[int] = None,
) -> tuple[Optional[list[int]], int]:
    """Complete search for a k-colouring of 0..n-1 that leaves no group
    monochromatic.  Returns (colouring, nodes); the colouring is None when
    every colouring has a monochromatic group.

    Copies are coloured in index order, colours ascending, with copy 0
    pinned to colour 0 (permuting colours is a symmetry), so the colouring
    found is the lexicographically least good one with copy 0 coloured 0.
    Forward checking: once every member of a group but the last carries
    colour c, c is ruled out at the last member, and a branch dies as soon
    as some uncoloured copy has all k colours ruled out.  A node is one
    colour given to one copy where it was not ruled out; with copy 0 pinned
    a complete search takes at most (k^n - 1)/(k - 1) nodes for k >= 2.
    Raises CapError once more than ``node_budget`` nodes would be needed.
    """
    if k < 1:
        raise PreconditionError("at least one colour is required")
    masks = []
    for g in groups:
        m = 0
        for i in g:
            m |= 1 << i
        if m & (m - 1) == 0:
            # at most one distinct member: monochromatic under every colouring
            return None, 0
        masks.append(m)
    if n == 0:
        return [], 0
    # Colouring a group's second-largest member leaves only its largest
    # uncoloured: file the group there as (the other members, the largest).
    triggers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m in masks:
        top = 1 << (m.bit_length() - 1)
        rest = m ^ top
        triggers[rest.bit_length() - 1].append((rest, top))

    colouring = [0] * n
    mono = [0] * k  # mono[c]: copies coloured c
    banned = [0] * k  # banned[c]: uncoloured copies where c is ruled out
    saved = [0] * n  # banned[colouring[i]] before copy i was coloured
    budget = math.inf if node_budget is None else node_budget
    nodes = 0
    i, c = 0, 0
    while True:
        bit = 1 << i
        limit = 1 if i == 0 else k
        while c < limit and banned[c] & bit:
            c += 1
        if c == limit:
            if i == 0:
                return None, nodes
            i -= 1
            c = colouring[i]
            mono[c] ^= 1 << i
            banned[c] = saved[i]
            c += 1
            continue
        nodes += 1
        if nodes > budget:
            raise CapError(f"colouring search ran out of its {budget} node budget")
        with_c = mono[c] | bit
        ban = 0
        for rest, top in triggers[i]:
            if rest & with_c == rest:
                ban |= top
        if ban:
            dead = ban
            for d in range(k):
                if d != c:
                    dead &= banned[d]
            if dead:
                c += 1
                continue
        colouring[i] = c
        mono[c] = with_c
        saved[i] = banned[c]
        banned[c] |= ban
        if i + 1 == n:
            return colouring, nodes
        i, c = i + 1, 0


# ---------------------------------------------------------------------------
# Hales-Jewett


@frozen
class CombinatorialLine:
    """Moving coordinates plus a fixed assignment on the rest."""

    moving: frozenset[int]
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.moving:
            raise StructureError("combinatorial lines need a moving coordinate")


def lines_for(t: int, N: int) -> list[tuple[CombinatorialLine, tuple[tuple[int, ...], ...]]]:
    """All combinatorial lines of the N-cube over an alphabet of size t,
    with their point sets."""
    out = []
    coords = list(range(N))
    for r in range(1, N + 1):
        for moving in itertools.combinations(coords, r):
            rest = [i for i in coords if i not in moving]
            for values in itertools.product(range(t), repeat=len(rest)):
                fixed = dict(zip(rest, values))
                points = []
                for letter in range(t):
                    point = tuple(
                        letter if i in moving else fixed[i] for i in coords
                    )
                    points.append(point)
                line = CombinatorialLine(
                    frozenset(moving), tuple(sorted(fixed.items()))
                )
                out.append((line, tuple(points)))
    return out


@frozen
class HalesJewettResult:
    value: Optional[int]
    lower_bound: int
    conclusive: bool
    colourings_examined: int


HJ_DIMENSION_CAP = 8
HJ_COLOURING_CAP = 2**24


def hales_jewett_N(t: int, k: int) -> HalesJewettResult:
    """Least N such that every k-colouring of the N-cube over t letters has
    a monochromatic combinatorial line, by complete colouring search over
    the points with the lines as groups.

    Inconclusive (with the best lower bound) once k^(t^N) exceeds
    ``HJ_COLOURING_CAP`` or N exceeds ``HJ_DIMENSION_CAP``.
    ``colourings_examined`` counts the search nodes over all dimensions
    tried.
    """
    if t < 1 or k < 1:
        raise PreconditionError("alphabet and colour counts must be positive")
    if t == 1:
        return HalesJewettResult(1, 1, True, 0)
    examined = 0
    lower = 1
    for N in range(1, HJ_DIMENSION_CAP + 1):
        points = t**N
        if k**points > HJ_COLOURING_CAP:
            return HalesJewettResult(None, lower, False, examined)
        index = {p: i for i, p in enumerate(itertools.product(range(t), repeat=N))}
        line_sets = [
            tuple(index[p] for p in pts) for _, pts in lines_for(t, N)
        ]
        colouring, nodes = colouring_search(points, k, line_sets)
        examined += nodes
        if colouring is None:
            return HalesJewettResult(N, N, True, examined)
        lower = N + 1
    return HalesJewettResult(None, lower, False, examined)


# ---------------------------------------------------------------------------
# the product partite lemma


@frozen
class LineEmbedding:
    line: CombinatorialLine
    morphism: Morphism


@frozen
class PartiteLemmaResult:
    system: PartiteSystem
    lines: tuple[LineEmbedding, ...]
    alphabet: tuple[Morphism, ...]  # the partite copies of the base, in order


def _function_vertex(values: Sequence[str]) -> str:
    return "w(" + ",".join(values) + ")"


def partite_lemma(
    A: Structure,
    B: PartiteSystem,
    U: ClosureDescription = EMPTY_CLOSURES,
    N: Optional[int] = None,
    size_guard: int = 50_000,
) -> PartiteLemmaResult:
    """The coordinatewise power of a partite system, with one copy of the
    input system per combinatorial line.

    The output system is semi-closed for U, closed whenever the input is,
    every line embedding is a partite embedding, and every line image is a
    U-substructure; all of this is asserted on every run.
    """
    if B.base != A:
        raise PreconditionError("the system must be partite over the given base")
    violation = semi_closed_violation(B.carrier, U)
    if violation is not None:
        raise PreconditionError(f"input system is not U-semi-closed: {violation}")
    copies = partite_copies(B)
    t = len(copies)
    if t == 0:
        raise PreconditionError("the base has no partite copy in the carrier")
    if N is None:
        hj = hales_jewett_N(t, 2)
        if not hj.conclusive:
            raise CapError(
                f"Hales-Jewett dimension unavailable for alphabet {t}",
            )
        N = hj.value

    members = B.part_members()
    projected = sum(len(vs) ** N for vs in members.values())
    if projected > size_guard:
        raise CapError("partite power exceeds the size guard", projected=projected)

    part_of: dict[str, str] = {}
    functions: dict[str, dict[str, tuple[str, ...]]] = {}
    for p, vs in members.items():
        functions[p] = {}
        for values in itertools.product(sorted(vs), repeat=N):
            name = _function_vertex(values)
            functions[p][name] = values
            part_of[name] = p

    rels: dict[str, list] = {name: [] for name in B.carrier.language.names()}
    parts = B.parts()
    for name, ts in B.carrier.relations.items():
        groups: dict[tuple, list] = {}
        for tup in ts:
            seen: dict[str, int] = {}
            shape = []
            for v in tup:
                if v not in seen:
                    seen[v] = len(seen)
                shape.append(seen[v])
            sig = (tuple(parts[v] for v in tup), tuple(shape))
            groups.setdefault(sig, []).append(tup)
        for (sig_parts, _), tuples in groups.items():
            for slices in itertools.product(tuples, repeat=N):
                prod = []
                for pos in range(len(sig_parts)):
                    values = tuple(s[pos] for s in slices)
                    prod.append(_function_vertex(values))
                rels[name].append(tuple(prod))
    carrier = Structure(B.carrier.language, part_of.keys(), rels)
    system = PartiteSystem.make(A, carrier, part_of)

    violation = semi_closed_violation(carrier, U)
    if violation is not None:
        raise StructureError(f"partite power lost semi-closedness: {violation}")
    if is_U_closed(B.carrier, U) and not is_U_closed(carrier, U):
        raise StructureError("partite power of a closed system must be closed")

    copy_maps = [m.as_dict() for m in copies]
    copy_vertex_in_part = [
        {parts[w]: w for w in d.values()} for d in copy_maps
    ]
    lines = []
    for line, _points in lines_for(t, N):
        fixed = dict(line.fixed)
        mapping = {}
        for v in B.carrier.vertices:
            p = parts[v]
            values = tuple(
                v if i in line.moving else copy_vertex_in_part[fixed[i]][p]
                for i in range(N)
            )
            mapping[v] = _function_vertex(values)
        m = Morphism.make(B.carrier, carrier, mapping, "embedding")
        if not verify_morphism(m):
            raise StructureError("line embedding failed verification")
        image_parts = {mapping[v]: parts[v] for v in B.carrier.vertices}
        for w, p in image_parts.items():
            if part_of[w] != p:
                raise StructureError("line embedding does not preserve parts")
        if not is_U_substructure(m.image_vertices(), carrier, U):
            raise StructureError("line image is not a U-substructure")
        lines.append(LineEmbedding(line, m))
    return PartiteLemmaResult(system, tuple(lines), tuple(copies))


# ---------------------------------------------------------------------------
# pictures


def picture_zero(B: Structure, C0: Structure) -> PartiteSystem:
    """The disjoint union of one fresh copy of B per copy of B in C0,
    partitioned by the copies' images."""
    if B.language != C0.language:
        raise PreconditionError("picture inputs must share a language")
    verts: list[str] = []
    part_of: dict[str, str] = {}
    rels: dict[str, list] = {name: [] for name in C0.language.names()}
    for c, image in enumerate(copy_images(B, C0)):
        sub = induced_substructure(C0, image)
        rename = {w: f"p{c}.{w}" for w in sub.vertices}
        for w, name in rename.items():
            verts.append(name)
            part_of[name] = w
        for sym, ts in sub.relations.items():
            rels[sym].extend(tuple(rename[w] for w in t) for t in ts)
    carrier = Structure(C0.language, verts, rels)
    return PartiteSystem.make(C0, carrier, part_of)


# ---------------------------------------------------------------------------
# identification of isomorphic marked closures


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True


def _marked_closure(system: PartiteSystem, U: ClosureDescription, v: str):
    """The closure of v with part marks encoded as unary relations."""
    cl = sorted(u_closure_set(system.carrier, U, [v]))
    sub = induced_substructure(system.carrier, cl)
    parts = system.parts()
    base_order = list(system.base.vertices)
    mark_symbols = [(f"part:{p}", 1) for p in base_order]
    lang = Language(tuple(sub.language.symbols) + tuple(mark_symbols))
    rels = {name: list(ts) for name, ts in sub.relations.items()}
    for w in cl:
        rels.setdefault(f"part:{parts[w]}", []).append((w,))
    return Structure(lang, cl, rels)


def _closure_iso(c1: Structure, c2: Structure, v: str, w: str) -> Optional[Morphism]:
    if len(c1.vertices) != len(c2.vertices):
        return None
    for m in search_morphisms(c1, c2, "embedding", fixed={v: w}):
        return m
    return None


def _identify(
    vertices: Iterable[str], candidates: Sequence[str], closures: Mapping[str, Structure]
) -> tuple[dict[str, str], dict[str, tuple]]:
    """Merge candidates whose closures are isomorphic with the candidate
    pinned, along with every pair the isomorphism matches, until stable.

    Pairs are tried in ``itertools.combinations`` order over ``candidates``,
    only when their pinned canonical keys agree.  Returns each vertex's class
    representative (the class minimum) and the candidates' keys.
    """
    keys = {v: canonical_key(closures[v], pinned=[v]) for v in candidates}
    uf = _UnionFind(vertices)
    changed = True
    while changed:
        changed = False
        for v, w in itertools.combinations(candidates, 2):
            if keys[v] != keys[w] or uf.find(v) == uf.find(w):
                continue
            iso = _closure_iso(closures[v], closures[w], v, w)
            if iso is None:
                continue
            for x, y in iso.as_dict().items():
                if uf.union(x, y):
                    changed = True
    return {v: uf.find(v) for v in uf.parent}, keys


def identification_step(
    system: PartiteSystem, U: ClosureDescription, part: str
) -> PartiteSystem:
    """Collapse the given part by identifying vertices with isomorphic
    part-marked closures, propagating along the witnessing isomorphisms."""
    parts = system.parts()
    in_part = sorted(v for v, p in parts.items() if p == part)
    closures = {v: _marked_closure(system, U, v) for v in in_part}
    rep, _ = _identify(system.carrier.vertices, in_part, closures)
    for v, r in rep.items():
        if parts[v] != parts[r]:
            raise StructureError("identification merged across parts")
    verts = sorted(set(rep.values()))
    rels = {
        name: [tuple(rep[v] for v in t) for t in ts]
        for name, ts in system.carrier.relations.items()
    }
    carrier = Structure(system.carrier.language, verts, rels)
    out = PartiteSystem.make(
        system.base, carrier, {v: parts[v] for v in verts}
    )
    violation = closed_violation(carrier, U)
    if violation is not None:
        raise StructureError(f"identification broke closedness: {violation}")
    return out


# ---------------------------------------------------------------------------
# the partite construction


@frozen
class ConstructionResult:
    structure: Structure
    projection: Morphism
    picture_sizes: tuple[int, ...]
    steps: tuple[str, ...]


def partite_construction(
    A: Structure,
    B: Structure,
    C0: Structure,
    U: ClosureDescription = EMPTY_CLOSURES,
    size_guard: int = 50_000,
    assert_arrow: bool = False,
) -> ConstructionResult:
    """Run the picture induction over all copies of A in C0.

    Steps whose base copy is a single vertex under a unary closure
    description use the identification device (collapse by isomorphic
    part-marked closures); other steps use the product partite lemma, which
    demands a computable Hales-Jewett dimension and respects the size guard.
    """
    for name, struct in (("A", A), ("B", B)):
        if not is_U_closed(struct, U):
            raise PreconditionError(f"{name} must be U-closed")
    if not assert_arrow:
        report = verify_arrow(C0, A, B, 2)
        if report.holds != "proved":
            raise PreconditionError(
                "C0 must arrow (B) over A with 2 colours; pass assert_arrow=True to override"
            )
    copiesA = copy_images(A, C0)
    for image in copiesA:
        if not is_U_substructure(image, C0, U):
            raise PreconditionError(
                f"copy of A at {sorted(image)} is not a U-substructure of C0"
            )

    system = picture_zero(B, C0)
    sizes = [len(system.carrier.vertices)]
    steps: list[str] = []
    unary = U.is_unary()
    for image in copiesA:
        if len(image) == 1 and unary:
            (part,) = tuple(image)
            system = identification_step(system, U, part)
            steps.append(f"identify:{part}")
        else:
            system = _lemma_step(system, image, U, size_guard)
            steps.append(f"power:{'+'.join(sorted(image))}")
        sizes.append(len(system.carrier.vertices))
        if len(system.carrier.vertices) > size_guard:
            raise CapError(
                "picture exceeded the size guard",
                projected=len(system.carrier.vertices),
            )
    carrier = system.carrier
    violation = closed_violation(carrier, U)
    if violation is not None:
        raise StructureError(f"construction output is not closed: {violation}")
    projection = system.projection()
    if not verify_morphism(projection):
        raise StructureError("projection of the final picture fails verification")
    return ConstructionResult(carrier, projection, tuple(sizes), tuple(steps))


def _lemma_step(
    system: PartiteSystem,
    image: frozenset,
    U: ClosureDescription,
    size_guard: int,
) -> PartiteSystem:
    """One picture step: partite power over the copy, then free extension of
    every line copy back to a copy of the whole picture."""
    sub = system.induced_over(image)
    if not partite_copies(sub):
        return system
    result = partite_lemma(sub.base, sub, U, size_guard=size_guard)
    D = result.system
    carried = set(sub.carrier.vertices)
    outside = [v for v in system.carrier.vertices if v not in carried]
    projected = len(D.carrier.vertices) + len(result.lines) * len(outside)
    if projected > size_guard:
        raise CapError("picture step exceeds the size guard", projected=projected)

    parts = system.parts()
    part_of: dict[str, str] = dict(D.part_of)
    rels: dict[str, list] = {name: list(ts) for name, ts in D.carrier.relations.items()}
    verts = list(D.carrier.vertices)
    for idx, line in enumerate(result.lines):
        glue = line.morphism.as_dict()
        rename = dict(glue)
        for v in outside:
            name = f"l{idx}.{v}"
            rename[v] = name
            verts.append(name)
            part_of[name] = parts[v]
        for sym, ts in system.carrier.relations.items():
            for t in ts:
                if all(v in carried for v in t):
                    continue
                rels[sym].append(tuple(rename[v] for v in t))
    carrier = Structure(system.carrier.language, verts, rels)
    return PartiteSystem.make(system.base, carrier, part_of)


# ---------------------------------------------------------------------------
# unary functions: pigeonhole construction


_SMALL_PAIR_RAMSEY = {2: 2, 3: 6}


def _ramsey_dimension(a: int, b: int, supplied: Optional[int]) -> int:
    if supplied is not None:
        if supplied < b:
            raise PreconditionError("supplied dimension is below |B|")
        return supplied
    if b == a:
        return a
    if a == 1:
        return 2 * (b - 1) + 1
    if a == 2 and b in _SMALL_PAIR_RAMSEY:
        return _SMALL_PAIR_RAMSEY[b]
    raise PreconditionError(
        f"no built-in Ramsey dimension for |A|={a}, |B|={b}; supply N explicitly"
    )


def _order_ranks(A: Structure) -> list[str]:
    """Vertices in the linear order given by the order symbol."""
    if A.language.order_symbol is None:
        raise PreconditionError("ordered structures must declare an order symbol")
    ranked = linear_order(A)
    if ranked is None:
        raise PreconditionError("the order relation must be linear")
    return ranked


def _function_symbols(A: Structure) -> list[str]:
    return [
        name
        for name, arity in A.language.symbols
        if arity == 2 and name != A.language.order_symbol
    ]


def _out_degree_defect(A: Structure) -> Optional[tuple[str, str]]:
    """The first function symbol and vertex at which A's out-degree is not
    exactly one, or None."""
    for name in _function_symbols(A):
        starts = Counter(t[0] for t in A.tuples(name))
        for v in A.vertices:
            if starts[v] != 1:
                return name, v
    return None


@frozen
class UnaryRamseyResult:
    structure: Structure
    copies: tuple[Morphism, ...]
    dimension: int


def unary_ramsey(A: Structure, B: Structure, N: Optional[int] = None) -> UnaryRamseyResult:
    """A Ramsey structure for ordered structures with unary functions.

    Builds indexed disjoint copies of B on every ascending |B|-subset of a
    Ramsey-sized index set, identifies vertices with isomorphic index-marked
    function closures, and drops the marks.  The quotient restricted to each
    indexed copy is asserted to be an embedding.
    """
    if A.language != B.language:
        raise PreconditionError("inputs must share a language")
    for struct in (A, B):
        defect = _out_degree_defect(struct)
        if defect is not None:
            name, v = defect
            raise PreconditionError(f"{name!r} must have out-degree exactly one at {v!r}")
        _order_ranks(struct)
    a, b = len(A.vertices), len(B.vertices)
    if a > b:
        raise PreconditionError("A must embed into B")
    dim = _ramsey_dimension(a, b, N)

    ranked = _order_ranks(B)
    fsyms = _function_symbols(B)
    order_sym = B.language.order_symbol
    mark_lang = Language(
        tuple((name, 2) for name in fsyms)
        + tuple((f"m{i}", 1) for i in range(1, dim + 1)),
    )

    verts: list[str] = []
    marks: dict[str, int] = {}
    origin: dict[str, tuple[int, str]] = {}
    rels: dict[str, list] = {name: [] for name in fsyms}
    copy_names: list[dict[str, str]] = []
    for c, indices in enumerate(itertools.combinations(range(1, dim + 1), b)):
        rename = {w: f"i{c}.{w}" for w in B.vertices}
        copy_names.append(rename)
        for rank, w in enumerate(ranked):
            name = rename[w]
            verts.append(name)
            marks[name] = indices[rank]
            origin[name] = (c, w)
        for sym in fsyms:
            rels[sym].extend(
                tuple(rename[w] for w in t) for t in B.tuples(sym)
            )

    mark_rels = {f"m{i}": [] for i in range(1, dim + 1)}
    for v, i in marks.items():
        mark_rels[f"m{i}"].append((v,))
    P = Structure(mark_lang, verts, {**rels, **mark_rels})

    # identify isomorphic marked function orbits; every union joins equal
    # keys and every equal-key pair is merged, so pair order is immaterial
    root = Structure(mark_lang, ["1"], {})
    orbits = closure_description(*((sym, root) for sym in fsyms))
    subs = {v: induced_substructure(P, u_closure_set(P, orbits, [v])) for v in verts}
    rep, keys = _identify(verts, verts, subs)
    for v, r in rep.items():
        if marks[v] != marks[r]:
            raise StructureError("identification merged distinct index marks")

    classes = sorted(set(rep.values()), key=lambda r: (marks[r], repr(keys[r]), r))
    final_name = {r: f"c{i}" for i, r in enumerate(classes)}
    out_rels: dict[str, list] = {name: [] for name in fsyms}
    for sym in fsyms:
        seen = set()
        for t in P.tuples(sym):
            image = tuple(final_name[rep[v]] for v in t)
            seen.add(image)
        out_rels[sym] = sorted(seen)
    order = [final_name[r] for r in classes]
    out_rels[order_sym] = linear_order_tuples(order)
    C = Structure(B.language, order, out_rels)
    if _out_degree_defect(C) is not None:
        raise StructureError("quotient broke the out-degree-one invariant")

    copy_embeddings = []
    for rename in copy_names:
        mapping = {w: final_name[rep[rename[w]]] for w in B.vertices}
        m = Morphism.make(B, C, mapping, "embedding")
        if not verify_morphism(m):
            raise StructureError("quotient is not an embedding on an indexed copy")
        copy_embeddings.append(m)
    return UnaryRamseyResult(C, tuple(copy_embeddings), dim)


# ---------------------------------------------------------------------------
# the arrow verifier


@frozen
class ArrowReport:
    holds: str  # "proved" | "refuted" | "inconclusive"
    colouring: Optional[tuple[int, ...]]
    copies_of_a: tuple[tuple[str, ...], ...]
    copies_of_b: tuple[tuple[str, ...], ...]
    mode: str
    colourings_examined: int
    seed: Optional[int] = None

    def certificate(self) -> Optional[dict[str, int]]:
        if self.colouring is None:
            return None
        return {
            ",".join(copy): colour
            for copy, colour in zip(self.copies_of_a, self.colouring)
        }


def _mono_sets(C: Structure, A: Structure, B: Structure) -> tuple[list, list, list]:
    """The copies of A and of B in C, as ``copy_images`` orders them, and
    per copy of B the ascending indices of the copies of A inside it.

    An embedding of B maps the copies of A in B onto exactly the copies of
    A in C inside its image.  So the copies of A in B are found once, as
    positions in ``B.vertices``, and read off each copy's assignment
    vector; no copy of A is tested against every copy of B.
    """
    a_images = copy_images(A, C)
    index = {img: i for i, img in enumerate(a_images)}
    position = {v: i for i, v in enumerate(B.vertices)}
    inside = [tuple(map(position.__getitem__, img)) for img in copy_images(A, B)]
    b_copies = sorted(((frozenset(vec), vec) for vec in _copy_search(B, C)), key=lambda c: sorted(c[0]))
    groups = [
        tuple(sorted(index[frozenset(map(vec.__getitem__, at))] for at in inside))
        for _, vec in b_copies
    ]
    return a_images, [img for img, _ in b_copies], groups


def _has_mono(colouring: Sequence[int], groups: Sequence[tuple]) -> bool:
    for g in groups:
        if not g:
            return True
        c0 = colouring[g[0]]
        if all(colouring[i] == c0 for i in g[1:]):
            return True
    return False


def verify_arrow(
    C: Structure,
    A: Structure,
    B: Structure,
    k: int,
    mode: str = "auto",
    sample: int = 10_000,
    seed: int = 0,
    exhaustive_cap: int = 2**24,
) -> ArrowReport:
    """Decide whether every k-colouring of the copies of A in C leaves some
    copy of B monochromatic.

    Copies are image vertex sets (``copy_images``), found with one
    embedding each rather than one per automorphism of A or B; they are
    indexed in the order of their sorted tuples, and the certificate names
    each copy of A by that tuple.

    ``exhaustive`` runs the complete colouring search (``colouring_search``)
    with ``exhaustive_cap`` as its node budget and raises CapError only when
    the budget runs out.  A refutation carries the lexicographically least
    good colouring with the first copy coloured 0; "proved" comes only from
    a finished complete search.  ``auto`` tries the complete search first
    with min(``exhaustive_cap``, ``sample`` x #copies of A) nodes, the
    number of colour draws sampling would make anyway, and samples only
    when that budget runs out; ``sampled`` draws ``sample`` random
    colourings and can refute but never prove.  For k >= 2 every instance
    with k^(#copies of A) within the budget finishes within it.  The
    default cap of 2^24 nodes bounds a hopeless ``exhaustive`` search to
    a few tens of seconds.
    """
    if k < 1:
        raise PreconditionError("at least one colour is required")
    a_images, b_images, groups = _mono_sets(C, A, B)
    copies_a = tuple(tuple(sorted(img)) for img in a_images)
    copies_b = tuple(tuple(sorted(img)) for img in b_images)
    n = len(a_images)
    if not b_images:
        return ArrowReport(
            "refuted", tuple([0] * n), copies_a, copies_b, "degenerate", 0
        )
    if mode in ("auto", "exhaustive"):
        budget = exhaustive_cap if mode == "exhaustive" else min(exhaustive_cap, sample * n)
        try:
            colouring, examined = colouring_search(n, k, groups, budget)
        except CapError:
            if mode == "exhaustive":
                raise
            mode = "sampled"
        else:
            if colouring is None:
                return ArrowReport(
                    "proved", None, copies_a, copies_b, "exhaustive", examined
                )
            return ArrowReport(
                "refuted", tuple(colouring), copies_a, copies_b, "exhaustive", examined
            )
    if mode != "sampled":
        raise PreconditionError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    for trial in range(sample):
        colouring = [rng.randrange(k) for _ in range(n)]
        if not _has_mono(colouring, groups):
            return ArrowReport(
                "refuted", tuple(colouring), copies_a, copies_b, "sampled", trial + 1, seed
            )
    return ArrowReport(
        "inconclusive", None, copies_a, copies_b, "sampled", sample, seed
    )


def arrow_certificate_refutes(
    C: Structure, A: Structure, B: Structure, colouring: Sequence[int]
) -> bool:
    """Re-check a refutation: the colouring leaves no copy of B
    monochromatic."""
    _, b_images, groups = _mono_sets(C, A, B)
    if not b_images:
        return True
    return not _has_mono(list(colouring), groups)


# ---------------------------------------------------------------------------
# admissible reordering


def admissible_reorder(
    C: Structure,
    B: Structure,
    type_rank: Callable[[Structure], int],
) -> Structure:
    """Reorder C so one-vertex isomorphism types follow the given ranking
    while every copy of B keeps an embedding.

    B itself must be admissibly ordered (lower-ranked vertices first);
    otherwise no reordering can preserve its copies.
    """
    order_sym = C.language.order_symbol
    if order_sym is None:
        raise PreconditionError("reordering requires an order symbol")
    old_order = _order_ranks(C)
    rank = {v: type_rank(induced_substructure(C, [v])) for v in C.vertices}

    b_order = _order_ranks(B)
    b_rank = {v: type_rank(induced_substructure(B, [v])) for v in B.vertices}
    for i, u in enumerate(b_order):
        for v in b_order[i + 1:]:
            if b_rank[u] > b_rank[v]:
                raise PreconditionError(
                    "B interleaves vertex types against the requested ranking"
                )

    new_order = sorted(old_order, key=lambda v: (rank[v], old_order.index(v)))
    reordered = C.replace({order_sym: linear_order_tuples(new_order)})
    for image in copy_images(B, C):
        survives = any(
            True
            for _ in search_morphisms(
                B, induced_substructure(reordered, image), "embedding"
            )
        )
        if not survives:
            raise StructureError("reordering destroyed a tracked copy")
    return reordered


# ---------------------------------------------------------------------------
# distance lifts of graphs with large odd girth


@frozen
class DistanceLift:
    """Truncated-distance relations of a graph avoiding short odd cycles."""

    graph: Structure
    girth_bound: int
    rho: tuple[tuple[int, frozenset], ...]
    order: tuple[str, ...]

    def rho_map(self) -> dict[int, frozenset]:
        return dict(self.rho)

    def language(self) -> Language:
        symbols = list(self.graph.language.symbols)
        for i, _ in self.rho:
            symbols.append((f"rho:{i}", 2))
        symbols.append(("leq", 2))
        return Language(tuple(symbols), "leq")

    def as_structure(self) -> Structure:
        rels = {name: list(ts) for name, ts in self.graph.relations.items()}
        for i, pairs in self.rho:
            rels[f"rho:{i}"] = sorted(pairs)
        rels["leq"] = linear_order_tuples(self.order)
        return Structure(self.language(), self.graph.vertices, rels)


def graph_distances(G: Structure) -> dict[tuple[str, str], int]:
    return {(s, v): d for s in G.vertices for v, d in gaifman_distances(G, s).items()}


def distance_lift_fixture(G: Structure, l: int) -> DistanceLift:
    """Distance relations rho_2 .. rho_{(l-1)/2} of a graph with no
    homomorphism-embedding from the l-cycle, plus a lexicographic order."""
    if l % 2 == 0 or l < 5:
        raise PreconditionError("the forbidden cycle length must be odd and >= 5")
    from .build import cycle_graph
    from .pieces import forb_membership

    if G.language.names() != ("E",):
        raise PreconditionError("distance lifts take plain graphs")
    membership = forb_membership(G, [cycle_graph(l)])
    if not membership:
        raise PreconditionError("the graph contains a short odd closed walk")
    dist = graph_distances(G)
    rho: dict[int, set] = {i: set() for i in range(2, (l - 1) // 2 + 1)}
    for (u, v), d in dist.items():
        if u != v and d in rho:
            rho[d].add((u, v))
    return DistanceLift(
        G,
        l,
        tuple((i, frozenset(ts)) for i, ts in sorted(rho.items())),
        tuple(sorted(G.vertices)),
    )
