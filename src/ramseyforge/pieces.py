"""Pieces of structures, piece equivalence, and homogenising lifts.

A piece is a connected chunk cut off by a minimal separating cut, rooted at
the cut.  For a finite family F, pieces are grouped by their incompatibility
sets (which complements glue back to a member); the classes index the lifted
relations of the canonical F-lift, the homogenisation of the class of
structures avoiding homomorphism-embeddings from F.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._record import frozen
from .errors import PreconditionError, StructureError
from .structures import (
    Language,
    Morphism,
    Structure,
    _vertex_masks,
    are_isomorphic,
    canonical_key,
    compile_search,
    induced_substructure,
    is_connected,
    search_morphisms,
)


@frozen
class RootedStructure:
    """A structure with an ordered tuple of distinct root vertices."""

    body: Structure
    root: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.root)) != len(self.root):
            raise StructureError("root vertices must be distinct")
        vs = set(self.body.vertices)
        for v in self.root:
            if v not in vs:
                raise StructureError(f"root vertex {v!r} not in the body")

    @property
    def width(self) -> int:
        return len(self.root)

    def key(self) -> tuple:
        return canonical_key(self.body, pinned=self.root)

    def root_structure(self) -> Structure:
        return induced_substructure(self.body, self.root)

    def interior(self) -> frozenset:
        return frozenset(self.body.vertices) - frozenset(self.root)


@frozen
class Piece:
    """A piece of ``origin``: the side of a minimal separating cut together
    with the cut, rooted at the cut in a fixed order."""

    body: Structure
    root: tuple[str, ...]
    origin: Structure

    def rooted(self) -> RootedStructure:
        return RootedStructure(self.body, self.root)

    @property
    def width(self) -> int:
        return len(self.root)


@frozen
class Cut:
    cut: frozenset
    sides: tuple[frozenset, frozenset]


def _cut_candidates(nbrs: list[int]) -> Iterator[int]:
    """The vertex sets R, as bitmasks, that leave at least two vertices
    and in which every vertex has at least two neighbours outside R
    (``nbrs[i]`` is vertex i's neighbourhood).  R grows vertex by vertex;
    adding a vertex only takes neighbours away, so a branch stops at the
    first vertex of R left with fewer than two."""
    n = len(nbrs)
    everything = (1 << n) - 1
    stack = [(0, 0)]
    while stack:
        i, R = stack.pop()
        if i == n:
            if (everything & ~R).bit_count() >= 2:
                yield R
            continue
        stack.append((i + 1, R))
        R |= 1 << i
        rest = everything & ~R
        touched = [i] + [j for j in range(i) if R >> j & 1 and nbrs[i] >> j & 1]
        if all((nbrs[j] & rest).bit_count() >= 2 for j in touched):
            stack.append((i + 1, R))


def minimal_separating_cuts(A: Structure) -> list[Cut]:
    """All (R, component pair) with R = N(side1) = N(side2).

    The sides are components of A - R: two vertices are joined when a
    tuple avoiding R contains both, so a tuple through R joins nothing.  N
    is the Gaifman neighbourhood in A.  Vertex sets are bitmasks over A's
    sorted vertices.  A vertex of R needs a neighbour in each side, so only
    the sets of ``_cut_candidates`` are tried.
    """
    verts = A.vertices
    index, nbrs = _vertex_masks(A)[:2]
    spans = set()
    for ts in A.relations.values():
        for t in ts:
            span = sum(1 << index[v] for v in set(t))
            if span & (span - 1):
                spans.add(span)

    def members(mask: int) -> frozenset:
        return frozenset(v for i, v in enumerate(verts) if mask >> i & 1)

    out = []
    for R in _cut_candidates(nbrs):
        comps = []
        for span in spans:
            if span & R:
                continue
            for c in [c for c in comps if c & span]:
                comps.remove(c)
                span |= c
            comps.append(span)
        joined = R
        for c in comps:
            joined |= c
        comps += [1 << i for i in range(len(verts)) if not joined >> i & 1]
        sides = []
        for c in comps:
            near = 0
            for i in range(len(verts)):
                if c >> i & 1:
                    near |= nbrs[i]
            if near & ~c == R:
                sides.append(members(c))
        cut = members(R)
        for pair in itertools.combinations(sorted(sides, key=sorted), 2):
            out.append(Cut(cut, pair))
    out.sort(key=lambda c: (sorted(c.cut), sorted(map(sorted, c.sides))))
    return out


def pieces(A: Structure) -> list[Piece]:
    """Pieces of a connected structure, up to rooted isomorphism.

    Every minimal separating cut contributes each of its sides under every
    root ordering; representatives are deterministic.
    """
    if not is_connected(A):
        raise PreconditionError("pieces are defined for connected structures")
    found: dict[tuple, Piece] = {}
    for cut in minimal_separating_cuts(A):
        for side in cut.sides:
            body = induced_substructure(A, side | cut.cut)
            for order in itertools.permutations(sorted(cut.cut)):
                piece = Piece(body, tuple(order), A)
                found.setdefault(piece.rooted().key(), piece)
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# gluing


def piece_glue(P1: RootedStructure, P2: RootedStructure) -> Optional[Structure]:
    """Free amalgamation identifying the roots in order; None when the
    root-induced structures disagree under the order bijection."""
    if P1.width != P2.width:
        return None
    r1, r2 = P1.root_structure(), P2.root_structure()
    bij = dict(zip(P1.root, P2.root))
    image = r1.rename({v: f"g{i}" for i, v in enumerate(P1.root)})
    image2 = r2.rename({v: f"g{i}" for i, v in enumerate(P2.root)})
    if image != image2:
        return None
    m1 = {v: f"g{P1.root.index(v)}" if v in P1.root else f"a.{v}" for v in P1.body.vertices}
    m2 = {v: f"g{P2.root.index(v)}" if v in P2.root else f"b.{v}" for v in P2.body.vertices}
    verts = sorted(set(m1.values()) | set(m2.values()))
    rels: dict[str, list] = {name: [] for name in P1.body.language.names()}
    for name, ts in P1.body.relations.items():
        rels[name].extend(tuple(m1[v] for v in t) for t in ts)
    for name, ts in P2.body.relations.items():
        rels[name].extend(tuple(m2[v] for v in t) for t in ts)
    return Structure(P1.body.language, verts, rels)


# ---------------------------------------------------------------------------
# families and equivalence


class PieceFamily:
    """A finite family F with its derived piece data.

    Pieces of one class share their incompatibility set: the complements
    (drawn from decompositions of members) gluing with them to a member.  For
    finite F equality of these restricted sets decides the full equivalence.
    """

    def __init__(self, members: Sequence[Structure]):
        members = tuple(members)
        if not members:
            raise PreconditionError("piece families must be nonempty")
        lang = members[0].language
        for M in members:
            if M.language != lang:
                raise PreconditionError("family members must share a language")
            if not is_connected(M):
                raise PreconditionError("family members must be connected")
        self.language = lang
        self.members = members

        piece_pool: dict[tuple, Piece] = {}
        complement_pool: dict[tuple, RootedStructure] = {}
        for M in members:
            # A side's complement is often the body of the cut's other
            # side, so each (vertex set, root order) of M is keyed once.
            bodies: dict[frozenset, Structure] = {}
            keys: dict[tuple[frozenset, tuple], tuple] = {}

            def rooted(S: frozenset, order: tuple) -> tuple[tuple, Structure]:
                body = bodies.get(S)
                if body is None:
                    body = bodies[S] = induced_substructure(M, S)
                key = keys.get((S, order))
                if key is None:
                    key = keys[S, order] = canonical_key(body, order)
                return key, body

            for cut in minimal_separating_cuts(M):
                for side in cut.sides:
                    co_side = frozenset(M.vertices) - side
                    for order in itertools.permutations(sorted(cut.cut)):
                        key, body = rooted(side | cut.cut, order)
                        if key not in piece_pool:
                            piece_pool[key] = Piece(body, order, M)
                        key, body = rooted(co_side, order)
                        if key not in complement_pool:
                            complement_pool[key] = RootedStructure(body, order)
        piece_keys = sorted(piece_pool)
        self.pieces = [piece_pool[k] for k in piece_keys]
        self._complement_keys = tuple(sorted(complement_pool))
        self.complements = [complement_pool[k] for k in self._complement_keys]

        # Rooted keys are computed once, in the pools above; everything
        # below looks them up.
        self._inc_cache: dict[tuple, frozenset] = {}
        groups: dict[tuple[int, frozenset], tuple[tuple, list[Piece]]] = {}
        for key, piece in zip(piece_keys, self.pieces):
            group = (piece.width, self._incompatibility(piece.rooted(), key))
            groups.setdefault(group, (key, []))[1].append(piece)
        # classes by width, then by the key of their first piece
        ordered = sorted(groups.items(), key=lambda kv: (kv[0][0], kv[1][0]))
        self.classes = tuple(
            PieceClass(i, width, tuple(ps))
            for i, ((width, _), (_, ps)) in enumerate(ordered)
        )

    @functools.cached_property
    def member_keys(self) -> frozenset:
        """Canonical keys of the members, computed on first use."""
        return frozenset(canonical_key(M) for M in self.members)

    def is_member(self, A: Structure) -> bool:
        """Isomorphic to some family member (by backtracking search)."""
        return any(are_isomorphic(A, M) is not None for M in self.members)

    def incompatibility_keys(self, P: RootedStructure) -> frozenset:
        return self._incompatibility(P, P.key())

    def _incompatibility(self, P: RootedStructure, key: tuple) -> frozenset:
        """The keys of the complements gluing with P to a member; ``key``
        is P's rooted key, which indexes the cache."""
        cached = self._inc_cache.get(key)
        if cached is None:
            cached = self._inc_cache[key] = frozenset(
                D_key
                for D, D_key in zip(self.complements, self._complement_keys)
                if D.width == P.width
                and (glued := piece_glue(P, D)) is not None
                and self.is_member(glued)
            )
        return cached

    def incompatibility_set(self, P: RootedStructure) -> list[RootedStructure]:
        keys = self.incompatibility_keys(P)
        return [
            D for D, D_key in zip(self.complements, self._complement_keys) if D_key in keys
        ]


@frozen
class PieceClass:
    index: int
    width: int
    pieces: tuple[Piece, ...]

    @property
    def representative(self) -> Piece:
        return self.pieces[0]


def incompatibility_set(P, family) -> list[RootedStructure]:
    family = family if isinstance(family, PieceFamily) else PieceFamily(family)
    rooted = P.rooted() if isinstance(P, Piece) else P
    return family.incompatibility_set(rooted)


def piece_equivalence_classes(family) -> tuple[PieceClass, ...]:
    family = family if isinstance(family, PieceFamily) else PieceFamily(family)
    return family.classes


# ---------------------------------------------------------------------------
# membership


@frozen
class MembershipReport:
    member: bool
    forbidden: Optional[Structure] = None
    witness: Optional[Morphism] = None

    def __bool__(self):
        return self.member


_MODE_KINDS = {
    "hom-embedding": "homomorphism-embedding",
    "homomorphism": "homomorphism",
    "embedding": "embedding",
    "monomorphism": "monomorphism",
}


def forb_membership(A: Structure, members: Iterable[Structure], mode: str = "hom-embedding") -> MembershipReport:
    """Does A avoid every family member under the given morphism mode?

    Each member takes one search into A, stopped at the first morphism,
    which is the witness.  In the default mode the search is screened by
    walk length and parity (``structures.compile_search``), so an odd
    cycle is refuted at once in a bipartite graph and after a few steps
    of each path in a graph of larger odd girth: Forb(C9) membership of
    K6,6 takes well under a millisecond, of the 11-cycle blown up three
    times under 0.1 s.
    """
    kind = _MODE_KINDS.get(mode)
    if kind is None:
        raise PreconditionError(f"unknown membership mode {mode!r}")
    for F in members:
        for m in search_morphisms(F, A, kind):
            return MembershipReport(False, F, m)
    return MembershipReport(True)


# ---------------------------------------------------------------------------
# lifts


@frozen
class LiftedStructure:
    """An F-lift: a base structure plus class-indexed tuple relations."""

    base: Structure
    ext: tuple[tuple[int, frozenset], ...]
    family: PieceFamily

    @staticmethod
    def make(base: Structure, ext: Mapping[int, Iterable[tuple]], family: PieceFamily) -> "LiftedStructure":
        widths = {cls.index: cls.width for cls in family.classes}
        norm = []
        for i in sorted(widths):
            tuples = frozenset(map(tuple, ext.get(i, ())))
            for t in tuples:
                if len(t) != widths[i]:
                    raise StructureError(
                        f"class {i} tuples must have width {widths[i]}"
                    )
            norm.append((i, tuples))
        return LiftedStructure(base, tuple(norm), family)

    def ext_map(self) -> dict[int, frozenset]:
        return dict(self.ext)

    def restrict(self, vertices: Iterable[str]) -> "LiftedStructure":
        keep = set(vertices)
        return LiftedStructure.make(
            induced_substructure(self.base, keep),
            {
                i: {t for t in ts if all(v in keep for v in t)}
                for i, ts in self.ext
            },
            self.family,
        )

    def lifted_language(self) -> Language:
        symbols = list(self.base.language.symbols)
        for cls in self.family.classes:
            symbols.append((f"ext:{cls.index}:{cls.width}", cls.width))
        return Language(tuple(symbols), self.base.language.order_symbol)

    def as_structure(self) -> Structure:
        rels = {name: list(ts) for name, ts in self.base.relations.items()}
        for i, ts in self.ext:
            cls = self.family.classes[i]
            rels[f"ext:{cls.index}:{cls.width}"] = sorted(ts)
        return Structure(self.lifted_language(), self.base.vertices, rels)

    def __eq__(self, other):
        return (
            isinstance(other, LiftedStructure)
            and self.base == other.base
            and self.ext == other.ext
            and (
                self.family is other.family
                or self.family.member_keys == other.family.member_keys
            )
        )

    def __hash__(self):
        return hash((self.base, self.ext))


def canonical_lift(A: Structure, family) -> LiftedStructure:
    """Tuples of class i: roots of homomorphism-embeddings of class-i pieces
    into A that are injective on the root.

    Each class piece takes one projected search into A
    (``structures.compile_search`` with ``project``): the piece's sorted
    root is pinned and enumerated like any other vertices, and the run
    yields the image tuples with a map below them, which are put back in
    root order.  A class's tuples are the union over its pieces.
    """
    family = family if isinstance(family, PieceFamily) else PieceFamily(family)
    if A.language != family.language:
        raise PreconditionError("lift base must share the family's language")
    ext: dict[int, set] = {}
    for cls in family.classes:
        found = ext[cls.index] = set()
        for piece in cls.pieces:
            pinned = tuple(sorted(piece.root))
            # where each root vertex sits in the sorted root
            where = [pinned.index(v) for v in piece.root]
            run = compile_search(piece.body, A, "homomorphism-embedding", pinned, project=True)
            found.update(tuple(map(images.__getitem__, where)) for images in run(()))
    return LiftedStructure.make(A, ext, family)


@frozen
class MaximalLiftResult:
    lift: LiftedStructure
    witness: Structure
    status: str  # "stable" | "inconclusive"


def maximal_lift(A: Structure, family, growth_cap: Optional[int] = None) -> MaximalLiftResult:
    """Saturate the canonical lift of A by attaching pieces inside Forb(F).

    Grows a witness W containing A; a class tuple can be added when a fresh
    copy of a class piece attaches at it without creating a family member.
    Stable when no attachment is possible within the growth cap; otherwise
    the result is flagged inconclusive.
    """
    family = family if isinstance(family, PieceFamily) else PieceFamily(family)
    if not forb_membership(A, family.members):
        raise PreconditionError("the base structure must avoid the family")
    if growth_cap is None:
        growth_cap = max(len(M.vertices) for M in family.members)

    W = A
    capped = False
    changed = True
    counter = 0
    while changed:
        changed = False
        current = canonical_lift(W, family).restrict(A.vertices)
        ext = current.ext_map()
        for cls in family.classes:
            for at in itertools.permutations(A.vertices, cls.width):
                if at in ext[cls.index]:
                    continue
                for piece in cls.pieces:
                    extra = len(piece.body.vertices) - piece.width
                    if len(W.vertices) - len(A.vertices) + extra > growth_cap:
                        capped = True
                        continue
                    W2 = _attach(W, piece, at, counter)
                    if W2 is None:
                        continue
                    if forb_membership(W2, family.members):
                        W = W2
                        counter += 1
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    final = canonical_lift(W, family).restrict(A.vertices)
    return MaximalLiftResult(final, W, "inconclusive" if capped else "stable")


def _attach(W: Structure, piece: Piece, at: tuple[str, ...], counter: int) -> Optional[Structure]:
    """W plus a fresh copy of the piece's interior glued at the root tuple,
    or None when the piece's root-internal tuples are absent at the site."""
    root_map = dict(zip(piece.root, at))
    rootset = set(piece.root)
    for name, ts in piece.body.relations.items():
        target = W.tuples(name)
        for t in ts:
            if all(v in rootset for v in t):
                if tuple(root_map[v] for v in t) not in target:
                    return None
    rename = dict(root_map)
    for v in piece.body.vertices:
        if v not in rootset:
            rename[v] = f"x{counter}.{v}"
    rels = {name: list(ts) for name, ts in W.relations.items()}
    for name, ts in piece.body.relations.items():
        rels[name].extend(tuple(rename[v] for v in t) for t in ts)
    verts = list(W.vertices) + [rename[v] for v in piece.body.vertices if v not in rootset]
    return Structure(W.language, verts, rels)


@frozen
class WitnessAmalgamResult:
    ok: bool
    structure: Optional[Structure]
    lift: Optional[LiftedStructure]
    failures: tuple[str, ...]

    def __bool__(self):
        return self.ok


def witness_amalgam(
    X: LiftedStructure,
    Y: LiftedStructure,
    Z: LiftedStructure,
    W_X: Structure,
    W_Y: Structure,
) -> WitnessAmalgamResult:
    """Free amalgamation of two witnesses over the shadow of their common
    part; re-checks membership and that the amalgam still witnesses X and Y."""
    family = X.family
    failures: list[str] = []
    zv = set(Z.base.vertices)
    if set(W_X.vertices) & set(W_Y.vertices) != zv:
        raise PreconditionError("witness overlap must be exactly the common part")
    for label, W, L in (("left", W_X, X), ("right", W_Y, Y)):
        if not set(L.base.vertices) <= set(W.vertices):
            raise PreconditionError(f"{label} witness does not contain its lift base")
        if induced_substructure(W, L.base.vertices) != L.base:
            raise PreconditionError(f"{label} witness does not induce its lift base")
    if induced_substructure(W_X, zv) != Z.base or induced_substructure(W_Y, zv) != Z.base:
        raise PreconditionError("witnesses disagree on the shadow of the common part")

    from .structures import free_amalgamation

    am = free_amalgamation(W_X, W_Y, induced_substructure(W_X, zv))
    D = am.structure
    membership = forb_membership(D, family.members)
    if not membership:
        failures.append("amalgam contains a family member")
        return WitnessAmalgamResult(False, D, None, tuple(failures))
    lift = canonical_lift(D, family)
    for label, L in (("left", X), ("right", Y), ("common", Z)):
        if lift.restrict(L.base.vertices) != L:
            failures.append(f"amalgam lift does not restrict to the {label} part")
    return WitnessAmalgamResult(not failures, D, lift, tuple(failures))


# ---------------------------------------------------------------------------
# serialization sidecar


def lift_sidecar(L: LiftedStructure) -> dict:
    from .rsf import structure_to_obj

    return {
        str(cls.index): {
            "width": cls.width,
            "piece": structure_to_obj(
                cls.representative.body, root=cls.representative.root
            ),
        }
        for cls in L.family.classes
    }
