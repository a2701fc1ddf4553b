"""Finite relational structures: languages, morphisms, amalgamation.

Vertices are opaque text tokens; every enumeration is ordered
lexicographically on tokens so that all outputs are deterministic.
Undirected edges are stored as both ordered pairs and the order relation,
when present, is stored reflexively; neither convention is inferred, callers
declare the tuples they mean.
"""

from __future__ import annotations

import itertools
from collections import Counter
from itertools import accumulate, chain, count, repeat
from operator import add, ge, itemgetter, mul, or_, sub
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ._record import frozen
from .errors import CapError, LanguageMismatchError, MorphismError, StructureError

MORPHISM_KINDS = (
    "homomorphism",
    "monomorphism",
    "embedding",
    "homomorphism-embedding",
)


@frozen
class Language:
    """A relational signature: named symbols with positive arities.

    ``order_symbol`` optionally designates one binary symbol as the linear
    order used by ordered classes; it takes part in irreducibility checks
    like any other symbol (drop its tuples first for irreducibility
    without the order).
    """

    symbols: tuple[tuple[str, int], ...]
    order_symbol: Optional[str] = None

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise StructureError("duplicate symbol names in language")
        for name, arity in self.symbols:
            if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
                raise StructureError(f"symbol {name!r} has invalid arity {arity!r}")
        if self.order_symbol is not None:
            if self.arity(self.order_symbol) != 2:
                raise StructureError("order symbol must be binary")

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise StructureError(f"unknown symbol {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def has(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


def language(*symbols: tuple[str, int], order_symbol: Optional[str] = None) -> Language:
    return Language(tuple(symbols), order_symbol)


class Structure:
    """An immutable finite relational structure over a fixed language.

    ``vertices`` is kept sorted; ``relations`` maps every symbol of the
    language to a frozenset of tuples. Tuples may only use declared vertices
    and must match the symbol's arity.
    """

    # Every slot after ``_relations`` is a cache filled lazily, per
    # instance.  ``_key`` and ``_hash`` are built on the first comparison
    # or hash (``_keyed``); for the other six see ``search_morphisms``,
    # ``copies_of`` and ``closures.u_closure_set``.  ``_plans`` holds one
    # ``_Plan`` per tuple of pinned vertices.  ``_nbhd``, ``_walks`` and
    # ``_comps`` hold bitmasks over the sorted vertices, bit j for
    # ``vertices[j]``: the Gaifman neighbourhoods, which every Gaifman
    # reader uses, the successor and predecessor rows of each binary
    # symbol and the marks of unary symbols and loops, which a search ANDs
    # in, and the wider tuples filed for embedding targets (see
    # ``_vertex_masks``); walk ends per length; and the connected
    # components with their parity (see ``_components``).
    __slots__ = (
        "language", "vertices", "_relations", "_key", "_hash",
        "_plans", "_profile", "_nbhd", "_walks", "_comps", "_closures",
    )

    def __init__(
        self,
        language: Language,
        vertices: Iterable[str],
        relations: Optional[Mapping[str, Iterable[Sequence[str]]]] = None,
    ):
        verts = list(vertices)
        vset = set(verts)
        if len(vset) != len(verts):
            raise StructureError("vertex identifiers must be distinct")
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "vertices", tuple(sorted(verts)))
        rels: dict[str, frozenset] = {name: frozenset() for name in language.names()}
        for name, tuples in (relations or {}).items():
            arity = language.arity(name)
            ts = list(map(tuple, tuples))
            if not (set(map(len, ts)) <= {arity} and vset.issuperset(chain.from_iterable(ts))):
                _refuse_tuples(name, arity, ts, vset)
            rels[name] = frozenset(ts)
        object.__setattr__(self, "_relations", rels)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_plans", None)
        object.__setattr__(self, "_profile", None)
        object.__setattr__(self, "_nbhd", None)
        object.__setattr__(self, "_walks", None)
        object.__setattr__(self, "_comps", None)
        object.__setattr__(self, "_closures", None)

    # -- basic accessors ---------------------------------------------------

    def tuples(self, name: str) -> frozenset:
        try:
            return self._relations[name]
        except KeyError:
            raise StructureError(f"unknown symbol {name!r}") from None

    @property
    def relations(self) -> Mapping[str, frozenset]:
        """Read-only view of symbol -> tuples; no copy is made."""
        return MappingProxyType(self._relations)

    def all_tuples(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        for name in sorted(self._relations):
            for t in sorted(self._relations[name]):
                yield name, t

    def vertex_count(self) -> int:
        return len(self.vertices)

    def tuple_count(self) -> int:
        return sum(len(ts) for ts in self._relations.values())

    def _keyed(self) -> tuple:
        """The key that equality compares, with its hash, built on first
        use: the language, the vertices and the sorted tuples per symbol."""
        key = self._key
        if key is None:
            rels = self._relations
            key = (
                self.language,
                self.vertices,
                tuple((name, tuple(sorted(rels[name]))) for name in sorted(rels)),
            )
            object.__setattr__(self, "_key", key)
            object.__setattr__(self, "_hash", hash(key))
        return key

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Structure) and self._keyed() == other._keyed()

    def __hash__(self) -> int:
        if self._hash is None:
            self._keyed()
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(ts)}" for name, ts in sorted(self._relations.items()) if ts
        )
        return f"Structure({len(self.vertices)} vertices; {rels})"

    # -- derived data -------------------------------------------------------

    def replace(self, relations: Mapping[str, Iterable[Sequence[str]]]) -> "Structure":
        """Copy with some relations replaced wholesale."""
        rels = {name: ts for name, ts in self._relations.items()}
        for name, ts in relations.items():
            rels[name] = ts
        return Structure(self.language, self.vertices, rels)

    def rename(self, mapping: Mapping[str, str]) -> "Structure":
        """Copy with vertices renamed by an injective mapping."""
        if len(set(mapping.values())) != len(mapping):
            raise StructureError("rename mapping must be injective")
        def m(v):
            return mapping.get(v, v)
        rels = {
            name: [tuple(m(v) for v in t) for t in ts]
            for name, ts in self._relations.items()
        }
        return Structure(self.language, [m(v) for v in self.vertices], rels)


def _refuse_tuples(name: str, arity: int, ts: list, vset: set) -> None:
    """Raise for the first tuple of ``ts``, in input order, of the wrong
    length or on a vertex outside ``vset``."""
    for t in ts:
        if len(t) != arity:
            raise StructureError(f"tuple {t!r} has length {len(t)}, expected {arity} for {name!r}")
        for v in t:
            if v not in vset:
                raise StructureError(f"tuple {t!r} uses undeclared vertex {v!r}")


@frozen
class Morphism:
    """A map between structures together with its claimed kind.

    The certificate is re-checkable: ``verify_morphism`` decides whether the
    mapping really is of the declared kind.  Constructing one checks the
    kind; the searches build theirs through ``_morphism``, which does not.
    """

    # Slots keep morphisms small: the searches yield many of them.  The
    # record's fields are the annotations below, so slot names must match;
    # ``_morphism`` fills the slots through their descriptors.
    __slots__ = ("source", "target", "map", "kind")

    source: Structure
    target: Structure
    map: tuple[tuple[str, str], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in MORPHISM_KINDS:
            raise MorphismError(f"unknown morphism kind {self.kind!r}")

    def __reduce__(self):  # slot state would be restored through __setattr__
        return _morphism, (self.source, self.target, self.map, self.kind)

    @staticmethod
    def make(source: Structure, target: Structure, mapping: Mapping[str, str], kind: str) -> "Morphism":
        return Morphism(source, target, tuple(sorted(mapping.items())), kind)

    def as_dict(self) -> dict[str, str]:
        return dict(self.map)

    def image_vertices(self) -> frozenset:
        return frozenset(v for _, v in self.map)

    def compose(self, other: "Morphism", kind: Optional[str] = None) -> "Morphism":
        """self after other: other maps into self's source."""
        if other.target != self.source:
            raise MorphismError("composition mismatch")
        d = self.as_dict()
        comp = {u: d[v] for u, v in other.map}
        return Morphism.make(other.source, self.target, comp, kind or self.kind)


_new_morphism = object.__new__
_set_source, _set_target, _set_map, _set_kind = (
    getattr(Morphism, name).__set__ for name in ("source", "target", "map", "kind")
)


def _morphism(source: Structure, target: Structure, map: tuple, kind: str) -> Morphism:
    """A ``Morphism`` built through its slots, without ``__post_init__``.

    Only for maps whose kind is known to be valid: those of
    ``search_morphisms``, which checks the kind on entry, and the witness
    embeddings of ``copies_of``.  It equals, hashes and prints like
    ``Morphism(source, target, map, kind)``.
    """
    m = _new_morphism(Morphism)
    _set_source(m, source)
    _set_target(m, target)
    _set_map(m, map)
    _set_kind(m, kind)
    return m


# ---------------------------------------------------------------------------
# verification


def _check_total(f: Morphism) -> dict[str, str]:
    d = f.as_dict()
    src = set(f.source.vertices)
    if set(d) != src:
        raise MorphismError("map is not total on the source vertices")
    tgt = set(f.target.vertices)
    for v in d.values():
        if v not in tgt:
            raise MorphismError(f"map sends a vertex to undeclared {v!r}")
    return d


def _is_homomorphism(source: Structure, target: Structure, d: Mapping[str, str]) -> bool:
    for name, ts in source._relations.items():
        tt = target.tuples(name)
        for t in ts:
            if tuple(d[v] for v in t) not in tt:
                return False
    return True


def _reflects_on_image(source: Structure, target: Structure, d: Mapping[str, str]) -> bool:
    """For injective d: every target tuple inside the image pulls back."""
    inv = {w: v for v, w in d.items()}
    img = set(inv)
    for name, ts in target._relations.items():
        st = source.tuples(name)
        for t in ts:
            if all(w in img for w in t):
                if tuple(inv[w] for w in t) not in st:
                    return False
    return True


def _spans_irreducible(A: Structure, span: frozenset) -> bool:
    """Is span contained in some irreducible induced substructure of A?

    Backtracking over choices of covering tuples: a vertex set S induces an
    irreducible substructure iff every pair of S co-occurs in a tuple lying
    inside S.  Memoised per call on grown sets.
    """
    if len(span) <= 1:
        return True
    index, _, closed = _vertex_masks(A)[:3]
    # quick necessary condition: span is a clique of the Gaifman graph
    js = [index[v] for v in span]
    m = sum(1 << j for j in js)
    if any(closed[j] & m != m for j in js):
        return False
    if len(span) == 2:  # the tuple joining two neighbours induces an irreducible substructure
        return True
    all_tuples = [set(t) for _, t in A.all_tuples()]
    seen_fail: set[frozenset] = set()

    def grow(S: frozenset) -> bool:
        if S in seen_fail:
            return False
        for u, v in itertools.combinations(sorted(S), 2):
            covered = False
            options = []
            for tv in all_tuples:
                if u in tv and v in tv:
                    if tv <= S:
                        covered = True
                        break
                    options.append(tv)
            if covered:
                continue
            for tv in options:
                if grow(S | frozenset(tv)):
                    return True
            seen_fail.add(S)
            return False
        return True

    try:
        return grow(frozenset(span))
    finally:
        del grow  # unlink the recursive closure (see canonical_key)


def _is_hom_embedding(source: Structure, target: Structure, d: Mapping[str, str]) -> bool:
    """For a homomorphism d: does it separate Gaifman neighbours and send
    no span obligation of the source into the target?  That is the
    homomorphism-embedding test of ``_span_obligations``, on the
    obligations the search filed for its unpinned plan."""
    verts, opened = source.vertices, _vertex_masks(source)[1]
    for j, u in enumerate(verts):
        if any(d[verts[x]] == d[u] for x in _bits(opened[j] >> j << j)):
            return False
    marks, pairs, checks = _span_obligations(source, ())
    order, symbols, rels = _source_plan(source, ()).order, source.language.symbols, target._relations
    arity = dict(symbols)
    for v, names, refused in zip(order, marks, pairs):
        w = d[v]
        for name in names:
            if (w,) * arity[name] in rels[name]:
                return False
        for e, r in refused:
            u = d[order[e]]
            if ((w, u) if r & 1 else (u, w)) in rels[symbols[(r >> 1) - 1][0]]:
                return False
    return not any(get(d) in rels[name] for cs in checks for name, get in cs)


def verify_morphism(f: Morphism) -> bool:
    """Re-check a morphism certificate against its declared kind."""
    d = _check_total(f)
    if not _is_homomorphism(f.source, f.target, d):
        return False
    if f.kind == "homomorphism":
        return True
    if f.kind == "monomorphism":
        return len(set(d.values())) == len(d)
    if f.kind == "embedding":
        if len(set(d.values())) != len(d):
            return False
        return _reflects_on_image(f.source, f.target, d)
    return _is_hom_embedding(f.source, f.target, d)


# ---------------------------------------------------------------------------
# enumeration


# Row indices into the ``rows`` of ``_vertex_masks``: the open and closed
# Gaifman neighbourhoods, then per symbol, at its place p in the language,
# ``2 + 2p`` for successors and ``3 + 2p`` for predecessors (None unless the
# symbol is binary), then, in a compiled search, the walk ends from length
# 2 up.
_OPEN, _CLOSED = 0, 1


class _Plan:
    """The search plan of a source for one tuple of pinned vertices, with
    every table a search reads off the source, per depth.

    ``order`` is the search order: the pinned vertices, then the others in
    sorted order.  Each tuple of the source is filed at the depth of its
    last vertex in that order; at depth i, with ``v = order[i]``:

    - ``held[i]`` names the unary symbols U with ``(v,)`` in U and the
      binary symbols R with the loop ``(v, v)`` in R: screens on the
      target's marks;
    - ``pairs[i]`` lists ``(e, r)`` for every binary tuple joining v to
      ``order[e]``, e < i: v's image must lie in the row r (see ``_OPEN``)
      at ``order[e]``'s image, its successors when the tuple runs from
      ``order[e]`` to v and its predecessors when it runs back;
    - ``checks[i]`` holds ``(name, getter)`` for every tuple of arity at
      least 3, the getter reading the tuple's image off the partial map,
      and ``occurrences[i]`` counts v's occurrences in those tuples;
    - ``earlier[i]`` lists the depths of the Gaifman neighbours of v
      before it.

    The depth-form ``obligations``, ``walks`` and ``bounds`` start as
    None, each filled on first use by ``_span_obligations``,
    ``_walk_pairs`` or ``_orbit_bounds``; ``steps`` maps each search shape
    to its step table (``_search_steps``).  No plan refers to its source
    or to a target, so the source's ``_plans`` makes no cycle and a table
    serves every target.
    """

    __slots__ = ("order", "held", "pairs", "checks", "occurrences", "earlier",
                 "obligations", "walks", "bounds", "steps")

    def __init__(self, order, held, pairs, checks, occurrences, earlier):
        self.order, self.held, self.pairs, self.checks = order, held, pairs, checks
        self.occurrences, self.earlier = occurrences, earlier
        self.obligations = self.walks = self.bounds = None
        self.steps = {}


def _file_tuple(depth: dict, p: int, name: str, t: tuple, marks: list, pairs: list, wide: list) -> int:
    """File the tuple t of the symbol at place p and named ``name`` at the
    depth i of its last vertex: a unary tuple or a loop under ``marks[i]``,
    any other binary tuple as an ``(e, r)`` row under ``pairs[i]``, and a
    wider tuple as ``(name, getter)`` under ``wide[i]``.  Returns i."""
    i = max(map(depth.__getitem__, t))
    if len(t) > 2:
        wide[i].append((name, itemgetter(*t)))
    elif t[0] == t[-1]:
        marks[i].append(name)
    else:
        e = depth[t[0]]
        pairs[i].append((e, 2 + 2 * p) if e < i else (depth[t[1]], 3 + 2 * p))
    return i


def _source_plan(A: Structure, pinned: tuple[str, ...]) -> _Plan:
    """The ``_Plan`` of A for a tuple of pinned vertices, cached on A."""
    plans = A._plans
    if plans is None:
        plans = {}
        object.__setattr__(A, "_plans", plans)
    plan = plans.get(pinned)
    if plan is None:
        rest = set(A.vertices).difference(pinned)
        order = pinned + tuple(v for v in A.vertices if v in rest)
        depth = {v: i for i, v in enumerate(order)}
        held: list[list] = [[] for _ in order]
        pairs: list[list] = [[] for _ in order]
        checks: list[list] = [[] for _ in order]
        occurrences = [0] * len(order)
        for p, (name, _) in enumerate(A.language.symbols):
            for t in sorted(A._relations[name]):
                i = _file_tuple(depth, p, name, t, held, pairs, checks)
                if len(t) > 2:
                    occurrences[i] += t.count(order[i])
        index, opened = _vertex_masks(A)[:2]
        earlier = tuple(
            tuple(j for j, u in enumerate(order[:i]) if opened[index[v]] >> index[u] & 1)
            for i, v in enumerate(order)
        )
        plan = plans[pinned] = _Plan(order, *map(_frozen, (held, pairs, checks)),
                                     tuple(occurrences), earlier)
    return plan


def _frozen(per_depth: list) -> tuple:
    return tuple(map(tuple, per_depth))


def _span_obligations(A: Structure, pinned: tuple[str, ...]) -> tuple:
    """The span obligations of A, filed by depth of the plan for a tuple of
    pinned vertices and cached on that plan.

    An obligation is a tuple s of A's vertices, of a symbol R's arity, with
    s not in R^A and ``set(s)`` inside an irreducible induced substructure
    of A.  A homomorphism d that separates Gaifman neighbours is a
    homomorphism-embedding iff d(s) lies outside R^B for every obligation:
    a target tuple that fails to pull back on an irreducible span is the
    image of one.  Only tuples whose distinct members are pairwise Gaifman
    neighbours can be obligations, so only those vertex sets are tested,
    each once.

    Returns ``(marks, pairs, checks)``, each obligation filed like a tuple
    of the plan (``_file_tuple``): ``marks[i]`` names the unary symbols R
    with ``(order[i],)`` an obligation and the binary ones with the loop
    ``(order[i], order[i])`` one; ``pairs[i]`` lists ``(e, r)`` for the
    other binary obligations on ``order[i]`` and an earlier
    ``order[e]``, a search refusing the row r at ``order[e]``'s image;
    ``checks[i]`` holds ``(name, getter)`` for every wider obligation whose
    last vertex in the plan's order is ``order[i]``.
    """
    plan = _source_plan(A, pinned)
    if plan.obligations is None:
        verts, opened = A.vertices, _vertex_masks(A)[1]
        depth = {v: i for i, v in enumerate(plan.order)}
        top = max((arity for _, arity in A.language.symbols), default=0)
        marks: list[list] = [[] for _ in verts]
        pairs: list[list] = [[] for _ in verts]
        checks: list[list] = [[] for _ in verts]

        # the cliques of the Gaifman graph on at most ``top`` vertices that
        # extend S by the later vertices of ``rest``, in sorted order
        def cliques(S: tuple, rest: int) -> Iterator[tuple]:
            yield S
            if len(S) < top:
                for j in _bits(rest):
                    rest ^= 1 << j
                    yield from cliques(S + (verts[j],), rest & opened[j])

        try:
            for j, v in enumerate(verts):
                for S in cliques((v,), opened[j] >> j << j):
                    found = [
                        (p, name, s)
                        for p, (name, arity) in enumerate(A.language.symbols)
                        if arity >= len(S)
                        for s in itertools.product(S, repeat=arity)
                        if len(set(s)) == len(S) and s not in A._relations[name]
                    ]
                    if found and _spans_irreducible(A, frozenset(S)):
                        for p, name, s in found:
                            _file_tuple(depth, p, name, s, marks, pairs, checks)
        finally:
            del cliques  # unlink the recursive closure (see canonical_key)
        plan.obligations = (_frozen(marks), _frozen(pairs), _frozen(checks))
    return plan.obligations


def gaifman_distances(A: Structure, v: str, inside: Optional[Iterable[str]] = None) -> dict[str, int]:
    """Gaifman distances from v to the vertices it reaches, by
    breadth-first search on the neighbourhood masks, layer by layer and in
    sorted order within a layer; with ``inside``, along paths through that
    vertex set only."""
    index, opened = _vertex_masks(A)[:2]
    allowed = -1 if inside is None else sum(1 << index[u] for u in set(inside))
    verts = A.vertices
    dist, L = {v: 0}, 0
    layer = seen = 1 << index[v]
    while layer:
        L += 1
        reached = 0
        for j in _bits(layer):
            reached |= opened[j]
        layer = reached & allowed & ~seen
        seen |= layer
        for j in _bits(layer):
            dist[verts[j]] = L
    return dist


def _walk_pairs(A: Structure, pinned: tuple[str, ...]) -> tuple:
    """The walk-length screens of the plan of A for a tuple of pinned
    vertices, per depth; cached on that plan.

    With ``order`` the plan's order, ``walks[i]`` lists ``(e, L)`` for each
    earlier depth e whose vertex u has Gaifman distance L to ``v =
    order[i]`` in A at least 2 and shorter than their distance inside
    ``A[order[:i + 1]]``.  A map that separates Gaifman neighbours sends a
    shortest u-v path onto a walk of exactly L steps, so ``d[v]`` ends
    such a walk from ``d[u]``.  Where the two distances are equal, the
    placed path already implies it, and distance 1 is the neighbour
    screen.
    """
    plan = _source_plan(A, pinned)
    if plan.walks is None:
        order = plan.order
        found = []
        for i, v in enumerate(order):
            far = gaifman_distances(A, v)
            near = gaifman_distances(A, v, set(order[:i + 1]))
            # a distance inside the placed vertices is never below the distance in A
            found.append(tuple(
                (e, far[u]) for e, u in enumerate(order[:i])
                if far.get(u, 0) >= 2 and near.get(u) != far[u]
            ))
        plan.walks = tuple(found)
    return plan.walks


def _orbit_bounds(A: Structure) -> tuple:
    """Per depth of the unpinned plan of A, the earlier depths whose
    images a copy search must exceed; cached on that plan.

    With ``order`` the plan's order, let ``orbit[i]`` be the orbit of
    ``order[i]`` under the automorphisms of A that fix ``order[:i]``
    pointwise.  ``bounds[j]`` lists i for every i < j with
    ``order[j]`` in ``orbit[i]``.  An embedding f is the least of its coset
    f∘Aut(A), in the order of assignment vectors, iff
    ``f(order[i]) < f(order[j])`` for all those pairs: a non-identity
    automorphism s first moves some ``order[i]``, into ``orbit[i]``, and
    f∘s is smaller than f exactly when it is smaller there.  Embeddings with
    one image form one such coset, so a search held to these bounds yields
    one embedding per copy of A, the first one of the unbounded search.

    ``orbit[i]`` is one projected search per i: automorphisms with
    ``order[:i + 1]`` pinned, ``order[:i]`` fixed to itself, yield the
    images of ``order[i]``.  Aut(A) itself is never enumerated.
    """
    plan = _source_plan(A, ())
    if plan.bounds is None:
        order = plan.order
        depth = {v: j for j, v in enumerate(order)}
        found: list[list] = [[] for _ in order]
        for i in range(len(order) - 1):
            run = compile_search(A, A, "embedding", order[:i + 1], project=True)
            for images in run(order[:i]):
                j = depth[images[i]]
                if j > i:
                    found[j].append(i)
        plan.bounds = tuple(map(tuple, found))
    return plan.bounds


def _profiles(B: Structure) -> dict[str, list[int]]:
    """The vertex profiles of B, cached on B: ``profile[w]`` counts w's
    occurrences by (symbol, position).  The slots run over the language's
    symbols in declaration order and over each symbol's positions, so
    profiles of two structures over one language compare slot by slot.
    """
    if B._profile is None:
        base, width = {}, 0
        for name, arity in B.language.symbols:
            base[name] = width
            width += arity
        profile = {w: [0] * width for w in B.vertices}
        for name, ts in B._relations.items():
            for t in ts:
                for i, w in enumerate(t, base[name]):
                    profile[w][i] += 1
        object.__setattr__(B, "_profile", profile)
    return B._profile


def _vertex_masks(B: Structure, filed: bool = False) -> tuple:
    """The bitmask view of B, built in one pass over the tuples and cached
    on B: the only form in which B keeps its Gaifman graph, read by the
    search and by every other Gaifman reader.

    Bit j of a mask stands for ``B.vertices[j]``; the vertices are sorted,
    so ascending bit order is sorted vertex order.  Returns ``(index,
    open, closed, alone, by_top, rows, marks)``: ``index`` maps each vertex
    to its bit; ``open[j]`` and ``closed[j]`` are the Gaifman
    neighbourhood of vertex j without and with j itself.

    ``rows`` and ``marks`` hold the tuples of arity at most 2, which a
    search checks as masks.  ``rows`` starts with ``open`` and ``closed``;
    then, per symbol in language order, its successor rows (bit x of
    ``succ[j]`` when ``(j, x)`` is a tuple) and predecessor rows (bit x of
    ``pred[j]`` when ``(x, j)`` is), or two None for a symbol that is not
    binary (see ``_OPEN``).  ``marks`` maps each unary symbol to the mask
    of its members and each binary one to the mask of its loops.

    ``alone`` and ``by_top`` file the occurrences of j in the tuples of
    arity at least 3, for the reflection count: ``alone[j]`` counts those
    in tuples on j alone; every other such tuple is filed under its top
    member besides j, a neighbour's bit x, with ``by_top[j][x] =
    [occurrences in tuples on j and x alone, masks of the other tuples,
    once per occurrence]``.  A tuple lies inside a vertex set holding j
    only if its top member does, so the count over a set visits only its
    members' entries.  Only an embedding search reads these two, so they
    are None unless ``filed`` asks; then masks built without them are
    built again, with them.
    """
    cache = B._nbhd
    if cache is None or filed and cache[3] is None:
        index = {w: j for j, w in enumerate(B.vertices)}
        n = len(index)
        closed = [1 << j for j in range(n)]
        alone, by_top = ([0] * n, [{} for _ in closed]) if filed else (None, None)
        rows, marks = [None, None], {}
        for name, arity in B.language.symbols:
            ts = B._relations[name]
            if arity == 1:
                marks[name] = sum([1 << index[w] for w, in ts])
                rows += (None, None)
            elif arity == 2:
                succ, pred, loops = [0] * n, [0] * n, 0
                for a, b in ts:
                    a, b = index[a], index[b]
                    succ[a] |= 1 << b
                    pred[b] |= 1 << a
                    if a == b:
                        loops |= 1 << a
                closed = list(map(or_, map(or_, closed, succ), pred))
                marks[name] = loops
                rows += (succ, pred)
            else:
                rows += (None, None)
                for t in ts:
                    js = list(map(index.__getitem__, t))
                    m = 0
                    for j in js:
                        m |= 1 << j
                    for j in js:
                        closed[j] |= m
                        if not filed:
                            continue
                        others = m ^ 1 << j
                        if not others:
                            alone[j] += 1
                            continue
                        top = 1 << others.bit_length() - 1
                        entry = by_top[j].get(top)
                        if entry is None:
                            entry = by_top[j][top] = [0, []]
                        if others == top:
                            entry[0] += 1
                        else:
                            entry[1].append(m)
        opened = [m ^ 1 << j for j, m in enumerate(closed)]
        rows[_OPEN], rows[_CLOSED] = opened, closed
        cache = (index, opened, closed, alone, by_top, tuple(rows), marks)
        object.__setattr__(B, "_nbhd", cache)
    return cache


# the ``by_top`` entry of a neighbour that tops no tuple
_UNFILED = (0, ())


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _walk_ends(B: Structure, length: int) -> list[int]:
    """``ends[j]``: the ends of the walks of exactly ``length`` steps from
    vertex j in the Gaifman graph of B, as a mask.  Cached on B by length,
    each length built from the one below it: a walk of L steps is a step
    to a neighbour and a walk of L - 1 steps from there."""
    walks = B._walks
    if walks is None:
        walks = []
        object.__setattr__(B, "_walks", walks)
    opened = _vertex_masks(B)[1]
    while len(walks) < length:
        if not walks:
            walks.append(opened)
            continue
        fewer, ends = walks[-1], []
        for m in opened:
            e = 0
            for x in _bits(m):
                e |= fewer[x]
            ends.append(e)
        walks.append(ends)
    return walks[length - 1]


def _components(A: Structure) -> tuple:
    """The connected components of the Gaifman graph of A, cached on A:
    ``(mask, odd)`` per component, in order of least vertex, with ``odd``
    true when the component is not bipartite.  One breadth-first search
    per component on the open neighbourhoods: a component has an odd cycle
    iff one of its edges joins two vertices at equal distance from its
    least vertex."""
    comps = A._comps
    if comps is None:
        opened = _vertex_masks(A)[1]
        full = (1 << len(opened)) - 1
        found, seen = [], 0
        while seen != full:
            # the component of the least vertex not seen yet, layer by layer
            layer = component = ~seen & (seen + 1)
            odd = False
            while layer:
                reached = 0
                for j in _bits(layer):
                    nbrs = opened[j]
                    odd = odd or bool(nbrs & layer)
                    reached |= nbrs
                layer = reached & ~component
                component |= layer
            seen |= component
            found.append((component, odd))
        comps = tuple(found)
        object.__setattr__(A, "_comps", comps)
    return comps


def _odd_mask(A: Structure) -> int:
    """The mask of the vertices of A whose Gaifman component is not
    bipartite (see ``_components``)."""
    return sum(m for m, odd in _components(A) if odd)


def search_morphisms(
    A: Structure,
    B: Structure,
    kind: str,
    fixed: Optional[Mapping[str, str]] = None,
    require_injective: bool = False,
) -> Iterator[Morphism]:
    """Backtracking enumeration of morphisms A -> B of the given kind.

    ``fixed`` pins part of the map.  Deterministic: pinned source vertices
    come first in sorted order, then the others in sorted order; at each
    depth candidates are tried in B's sorted vertex order.  So the output
    order is the lexicographic order of assignment vectors, and it does not
    depend on the hash seed.

    The search is indexed.  Every pruning below removes only partial maps
    that cannot extend to a morphism of the requested kind, so the output,
    order included, is that of trying every target vertex at every depth.

    - **Compiled source plan.**  Once per source and tuple of pinned
      vertices (cached on A), each source tuple is assigned to the depth of
      its last vertex in the search order.  At depth i only those tuples
      are checked against B; together they cover every tuple exactly once.
    - **Tuples of arity at most 2 as mask rows.**  B keeps, per binary
      symbol, each vertex's successors and predecessors as a bitmask over
      its sorted vertices, and the members of each unary symbol and the
      loops of each binary one as one mask (Ullmann's bit-matrix
      refinement, J. ACM 1976).  A binary tuple joining ``v = order[i]``
      to an earlier u admits only the row at ``d[u]``, a loop or unary
      tuple at v only the marked vertices, so each is one AND on entering
      depth i, and the candidates, taken lowest bit first (sorted order),
      all satisfy them.  Only wider tuples are checked per candidate.
    - **Neighbour-drawn candidates.**  The plan also lists, per depth, the
      Gaifman neighbours u of v placed earlier.  u and v share a source
      tuple, so their images share a target tuple or coincide: v's image
      lies in ``adj_B(d[u]) | {d[u]}``, and in ``adj_B(d[u])`` alone when
      the map must separate u and v (injective kinds and
      homomorphism-embeddings).  A neighbour joined by a binary tuple needs
      no such AND, its row lies inside, unless a homomorphism-embedding
      that need not be injective must still keep ``d[u]`` out.
    - **Reflection by rows up to arity 2, by count above** (embeddings).
      Every binary non-tuple between v and an earlier u is one AND with
      the complement of the row at ``d[u]`` (in a language with no wider
      symbol, one AND with the complement of ``d[u]``'s neighbourhood when
      u and v are not Gaifman neighbours), and a unary symbol or a loop
      that v lacks one AND with the complement of its mark.  For the wider
      symbols, when v is mapped to w, the occurrences of w in target
      tuples inside the image are counted.  The depth's wider source
      tuples map injectively onto some of those tuples, with w occurring
      where v did, so every one of them pulls back to a source tuple
      exactly when the count equals v's occurrences in them.  A partial
      map that fails cannot extend to an embedding.  The count visits only
      the wider tuples that ``_vertex_masks`` files under w's neighbours in
      the image, filed for embedding targets only.  Monomorphisms and
      embeddings also skip targets whose (symbol, position) occurrence
      counts fall below v's.
    - **Span reflection as plan checks** (homomorphism-embeddings).  The
      source's span obligations (tuples outside a relation of A whose
      vertices lie in an irreducible substructure; see
      ``_span_obligations``) are filed, like the plan's tuples, at the
      depth of their last vertex: the binary ones as complemented rows, the
      unary ones and loops as complemented marks, and a candidate is
      rejected as soon as it sends a wider one into the relation of B.  A
      map that separates Gaifman neighbours and sends no obligation into B
      is a homomorphism-embedding, so complete maps need no further check.
    - **Walk-length and parity screens** (homomorphism-embeddings).  Such
      a map separates Gaifman neighbours, so it sends a shortest path of L
      steps onto a walk of exactly L steps and an odd closed walk onto an
      odd closed walk.  A candidate at source distance L from a placed
      vertex must end an L-step walk from that vertex's image, and a
      vertex placed with no earlier neighbour, pinned or not, whose
      component is not bipartite must go to a non-bipartite component of
      B.  So a member of Forb(C9) such as K6,6 is refuted at C9's first
      vertex, and one of odd girth 11 after five steps of each path, not
      after every path.  Plain homomorphisms may merge neighbours and are
      never screened (see ``compile_search``).

    The plans (with their obligations, walk screens, orbit bounds and one
    step table per search shape), the profiles, and the neighbourhood,
    row, mark, incidence and walk-end masks are filled lazily on the
    structures themselves, so their set-up is paid once per structure.
    The search itself is ``compile_search`` followed by one run, whose
    assignment vectors are wrapped here, each into one ``Morphism``; the
    kernel builds none.  That one kernel also serves the copy searches
    (with orbit bounds), which read the vectors directly, and
    projections: which images of the pinned vertices extend to a
    morphism, in one run, for canonical lifts and orbit bounds.
    """
    if A.language != B.language:
        raise LanguageMismatchError("morphism search requires a shared language")
    if kind not in MORPHISM_KINDS:
        raise MorphismError(f"unknown morphism kind {kind!r}")
    fixed = dict(fixed or {})
    if fixed:
        a_verts, b_verts = set(A.vertices), set(B.vertices)
        for v, w in fixed.items():
            if v not in a_verts or w not in b_verts:
                raise MorphismError("fixed assignment uses undeclared vertices")
    pinned = tuple(sorted(fixed))
    run = compile_search(A, B, kind, pinned, require_injective)
    verts = A.vertices
    for vec in run(tuple(map(fixed.__getitem__, pinned))):
        yield _morphism(A, B, tuple(zip(verts, vec)), kind)


def _search_steps(A: Structure, pinned: tuple[str, ...], kind: str, injective: bool,
                  project: bool, bounded: bool) -> tuple:
    """The step table of a search of A of one shape, cached on the plan
    for ``pinned``: everything that ``compile_search`` reads off A, and
    nothing of a target, so one table serves every target.

    Returns ``(steps, screens, walk_top, reflect)``.  ``steps[i]`` is the
    tuple that a run unpacks on entering depth i: the source vertex
    ``order[i]``; ``(e, r)`` pairs whose rows (see ``_OPEN``) at the image
    of depth e the candidates must lie in, and ``(e, r)`` pairs whose rows
    they must avoid; the depths whose images they must exceed (the orbit
    bounds, when ``bounded``); whether they must avoid the earlier images;
    the wider checks and obligations, ``(name, getter)``; the occurrences
    for the reflection count; whether a candidate needs any of those
    three; and whether i is the last depth.  ``screens[i]`` is ``(held,
    avoided, parity)``: the marks a candidate must carry and those it must
    not, and whether it must lie in a non-bipartite component.
    ``walk_top`` is the longest walk screened, whose ends are the rows
    after the language's; ``reflect`` whether the reflection count runs.
    """
    plan = _source_plan(A, pinned)
    shape = (kind, injective, project, bounded)
    table = plan.steps.get(shape)
    if table is None:
        order, symbols = plan.order, A.language.symbols
        n, k = len(order), len(pinned)
        wide = any(arity > 2 for _, arity in symbols)
        pairwise = kind == "homomorphism-embedding"
        reflect = kind == "embedding"
        screened = pairwise or (project and injective)
        none = ((),) * n
        marks, refused, avoid = _span_obligations(A, pinned) if pairwise else (none,) * 3
        walks = _walk_pairs(A, pinned) if screened else none
        bounds = _orbit_bounds(A) if bounded else none
        odd_a, index_a = (_odd_mask(A), _vertex_masks(A)[0]) if screened else (0, None)
        binary = [r for p, (_, arity) in enumerate(symbols) if arity == 2 for r in (2 + 2 * p, 3 + 2 * p)]
        nbhd = _OPEN if injective or pairwise else _CLOSED
        steps, screens = [], []
        for i, v in enumerate(order):
            plain, near = plan.pairs[i], plan.earlier[i]
            tied = {e for e, _ in plain}
            # a neighbour's row lies inside its neighbourhood and leaves
            # out its image only where the map must be injective
            pos = tuple((e, nbhd) for e in near if e not in tied or pairwise and not injective)
            pos += plain + tuple((e, 2 * len(symbols) + L) for e, L in walks[i])
            neg, avoided = refused[i], marks[i]
            if reflect:
                # with no symbol wider than 2, a non-neighbour's image must
                # avoid every row at the other image: its neighbourhood
                neg = tuple(
                    pair
                    for e in range(i)
                    for pair in ([(e, _OPEN)] if not wide and e not in near else
                                 [(e, r) for r in binary if (e, r) not in plain])
                )
                avoided = tuple(name for name, arity in symbols
                                if arity <= 2 and name not in plan.held[i])
            screens.append((plan.held[i], avoided, bool(odd_a and not near and odd_a >> index_a[v] & 1)))
            checks, occ = plan.checks[i], plan.occurrences[i] if reflect else 0
            steps.append((v, pos, neg, bounds[i], injective or (project and i < k), checks,
                          avoid[i], occ, bool(checks or avoid[i] or reflect and wide), i + 1 == n))
        walk_top = max((L for pairs in walks for _, L in pairs), default=0)
        table = plan.steps[shape] = (tuple(steps), tuple(screens), walk_top, reflect and wide)
    return table


def compile_search(
    A: Structure,
    B: Structure,
    kind: str,
    pinned: tuple[str, ...] = (),
    require_injective: bool = False,
    bounded: bool = False,
    project: bool = False,
) -> Callable[[tuple[str, ...]], Iterator]:
    """The compile step of ``search_morphisms``, for repeated pinned runs.

    ``pinned`` is a sorted tuple of distinct source vertices.  The result
    ``run(values)`` yields assignment vectors in ``A.vertices`` order: the
    images of A's vertices under each map that ``search_morphisms(A, B,
    kind, fixed=dict(zip(pinned, values)), require_injective=...)``
    yields, in the same order, and ``()`` once for an empty A, so a caller
    asks ``is not None`` of a first vector, never its truth.  No
    ``Morphism`` is built here.  Runs are independent of each other.
    Everything A contributes is the step table ``_search_steps`` cached on
    A's plan for this shape of search; compiling pairs it with B's cached
    masks (``_vertex_masks``) and walk ends and binds nothing per depth.
    The per-depth screens, on B's marks, profiles and components, are
    built on a run's first entry to a depth and kept for later runs.  The
    arguments are not validated; ``search_morphisms`` is the checked entry
    point.

    A run is one flat loop over bitmasks of B's vertices (bit j for
    ``B.vertices[j]``), with no generator or call per search node.  On
    entering depth i it builds the candidate mask once, as one AND chain:
    the rows at the earlier images (their neighbourhoods, the successors
    or predecessors that the depth's binary tuples require, the walk
    ends), the complemented rows that binary non-tuples or obligations
    forbid, the depth's screen, the images of the earlier depths cleared
    when the map must be injective there, and the bits above the largest
    bounded image.  The depth's remaining candidates wait on a stack while
    the run goes deeper, and are taken lowest bit first, which is B's
    sorted vertex order.  Only the checks and span obligations of arity
    at least 3 and the reflection count then test each candidate in turn.

    With ``bounded`` (a copy search: ``kind`` an unpinned embedding), a
    candidate must exceed the images of the earlier depths that
    ``_orbit_bounds`` names; the output is then the subsequence of maps
    that satisfy them.

    With ``project`` (and ``pinned`` non-empty), ``run(values)`` answers
    a projection instead: it yields every tuple of pairwise distinct
    images of ``pinned`` that starts with ``values`` (a prefix, possibly
    empty) and extends to a morphism, once each, in lexicographic order.
    The pinned depths after the prefix are searched like the others;
    the first complete map below a pinned tuple yields it, and the run
    goes straight back to the last pinned depth, so one run replaces a
    run per tuple.

    Every homomorphism-embedding search, and every projection of an
    injective kind, screens candidates twice; all these maps separate
    Gaifman neighbours.  By walk length (``_walk_pairs``): at source
    distance L from a placed u, a candidate must end a walk of exactly L
    steps from u's image in B (``_walk_ends``).  By parity
    (``_odd_mask``): at a depth whose vertex has no earlier Gaifman
    neighbour, pinned depths included, a vertex of a non-bipartite
    component must go to a non-bipartite component of B.  Without them an
    image of the wrong parity or too far away is refuted only after every
    path below it.  Plain homomorphisms may merge neighbours, so neither
    screen holds for them.  Iso and copy searches (unprojected embeddings)
    go without: there the screens cost more than they save.
    """
    injective = require_injective or kind in ("monomorphism", "embedding")
    if injective and len(A.vertices) > len(B.vertices):
        return lambda values: iter(())
    steps, specs, walk_top, reflect = _search_steps(A, pinned, kind, injective, project, bounded)
    n, k = len(steps), len(pinned)
    verts, verts_a = B.vertices, A.vertices
    rels = B._relations
    index, opened, _, alone, by_top, rows, marks = _vertex_masks(B, reflect)
    if walk_top:
        rows += tuple(_walk_ends(B, L) for L in range(2, walk_top + 1))
    full = (1 << len(verts)) - 1
    profiles = kind in ("monomorphism", "embedding")
    # Per depth, the targets that order[i] may take: those carrying its
    # marks and none of those it must avoid, (monomorphisms and
    # embeddings) with (symbol, position) counts covering its own, and
    # (parity depths) in a non-bipartite component of B.  Each screen is
    # built on first use and kept for later runs; None marks one not
    # built yet.
    screens: list[Optional[int]] = [None] * n

    def screen(i: int) -> int:
        held, avoided, parity = specs[i]
        ok = full
        if profiles:
            pa, prof_b = _profiles(A)[steps[i][0]], _profiles(B)
            ok = sum(1 << j for j, w in enumerate(verts) if all(map(ge, prof_b[w], pa)))
        for name in held:
            ok &= marks[name]
        for name in avoided:
            ok &= ~marks[name]
        if parity:
            ok &= _odd_mask(B)
        screens[i] = ok
        return ok

    def run(values: tuple[str, ...]) -> Iterator:
        if n == 0:
            yield ()
            return
        fixed = len(values)
        d: dict[str, str] = {}
        at = [0] * n  # the image's bit position, per depth placed
        used = [0] * (n + 1)  # the images of the depths before each depth
        rest = [0] * n  # per depth, the candidates not tried yet while deeper ones run
        i, fresh = 0, True
        while True:
            v, pos, neg, above, distinct, checks, avoid, occ, tested, last = steps[i]
            if fresh:
                m = 1 << index[values[i]] if i < fixed else full
                for e, r in pos:
                    m &= rows[r][at[e]]
                for e, r in neg:
                    m &= ~rows[r][at[e]]
                ok = screens[i]
                m &= screen(i) if ok is None else ok
                if distinct:
                    m &= ~used[i]
                if above:
                    m &= -2 << max(map(at.__getitem__, above))
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                d[v] = verts[j]
                if tested:
                    if any(get(d) not in rels[name] for name, get in checks) or any(
                        get(d) in rels[name] for name, get in avoid
                    ):
                        continue
                    if reflect:
                        # the candidate's occurrences in wider target tuples inside the image
                        u, count, filed = used[i] | low, alone[j], by_top[j]
                        tops = u & opened[j]
                        while tops:
                            x = tops & -tops
                            tops ^= x
                            pairs, wider = filed.get(x, _UNFILED)
                            count += pairs
                            for t in wider:
                                count += u | t == u
                        if count != occ:
                            continue
                if not last:
                    rest[i], at[i], used[i + 1] = m, j, used[i] | low
                    i, fresh = i + 1, True
                    break
                if not project:
                    yield tuple(map(d.__getitem__, verts_a))
                    continue
                yield tuple(map(d.__getitem__, pinned))
                if i >= k:
                    # a witness below the pinned tuple: on to the next one
                    i = k - 1
                    if i < 0:
                        return
                    m, fresh = rest[i], False
                    break
            else:
                i -= 1
                if i < 0:
                    return
                m, fresh = rest[i], False

    return run


def enumerate_morphisms(A: Structure, B: Structure, kind: str) -> list[Morphism]:
    """Complete, duplicate-free, deterministically ordered morphism set."""
    return list(search_morphisms(A, B, kind))


def _copy_search(A: Structure, B: Structure) -> Iterator[tuple[str, ...]]:
    """One embedding per copy of A in B, the least of its coset f∘Aut(A),
    as its assignment vector in ``A.vertices`` order, in the order of
    those vectors."""
    if A.language != B.language:
        raise LanguageMismatchError("morphism search requires a shared language")
    return compile_search(A, B, "embedding", bounded=True)(())


def copy_images(A: Structure, B: Structure) -> list[frozenset]:
    """The copies of A in B as image vertex sets, in the order of their
    sorted tuples: the keys of ``copies_of``, found with one embedding per
    copy instead of |Aut(A)|.  Each copy is the vertex set of one
    assignment vector of the copy search; no ``Morphism`` is built."""
    return sorted(map(frozenset, _copy_search(A, B)), key=sorted)


def copies_of(A: Structure, B: Structure) -> dict[frozenset, list[Morphism]]:
    """Copies of A in B: image vertex sets, in the order of their sorted
    tuples, each with all its witness embeddings in the order of their
    assignment vectors.

    Embeddings with one image form a coset f∘Aut(A).  The search finds the
    assignment vector of the least embedding of each coset only (see
    ``_orbit_bounds``), and each is composed with every automorphism of A
    to give the witnesses.  Aut(A) is enumerated once, as vectors, when
    the first copy turns up.  The order of the composed vectors depends
    only on how the least vector's images rank, so the automorphisms are
    sorted once per rank pattern, as getters.  The witnesses are the only
    ``Morphism`` objects built.  Callers that need only the images use
    ``copy_images``.
    """
    out: dict[frozenset, list[Morphism]] = {}
    verts = A.vertices
    perms = None
    getters: dict[tuple, list[itemgetter]] = {}
    for vec in _copy_search(A, B):
        if len(verts) < 2:
            # Aut(A) is trivial; an itemgetter of one index gives no tuple
            out[frozenset(vec)] = [_morphism(A, B, tuple(zip(verts, vec)), "embedding")]
            continue
        if perms is None:
            index = {v: i for i, v in enumerate(verts)}
            perms = [tuple(map(index.__getitem__, s)) for s in compile_search(A, A, "embedding")(())]
        pattern = tuple(sorted(range(len(vec)), key=vec.__getitem__))
        gets = getters.get(pattern)
        if gets is None:
            rank = dict(zip(pattern, count()))
            perms.sort(key=lambda perm: list(map(rank.__getitem__, perm)))
            gets = getters[pattern] = [itemgetter(*perm) for perm in perms]
        out[frozenset(vec)] = [
            _morphism(A, B, tuple(zip(verts, get(vec))), "embedding") for get in gets
        ]
    return dict(sorted(out.items(), key=lambda kv: tuple(sorted(kv[0]))))


# ---------------------------------------------------------------------------
# substructures, irreducibility, connectivity


def induced_substructure(A: Structure, S: Iterable[str]) -> Structure:
    S = set(S)
    verts = set(A.vertices)
    for v in S:
        if v not in verts:
            raise StructureError(f"unknown vertex {v!r}")
    rels = {
        name: [t for t in ts if S.issuperset(t)]
        for name, ts in A._relations.items()
    }
    return Structure(A.language, sorted(S), rels)


GAIFMAN_LANGUAGE = Language((("E", 2),))


def gaifman_graph(A: Structure) -> Structure:
    """The 2-section: symmetric binary structure of co-occurring pairs."""
    verts, opened = A.vertices, _vertex_masks(A)[1]
    edges = [(u, verts[x]) for j, u in enumerate(verts) for x in _bits(opened[j])]
    return Structure(GAIFMAN_LANGUAGE, verts, {"E": edges})


def is_irreducible(A: Structure) -> bool:
    """Is every pair of distinct vertices of A in some tuple?"""
    closed = _vertex_masks(A)[2]
    full = (1 << len(closed)) - 1
    return all(m == full for m in closed)


def connected_components(A: Structure) -> list[frozenset]:
    """The vertex sets of the Gaifman components of A, in order of least
    vertex."""
    verts = A.vertices
    return [frozenset(verts[j] for j in _bits(m)) for m, _ in _components(A)]


def is_connected(A: Structure) -> bool:
    return len(_components(A)) <= 1


def linear_order(A: Structure) -> Optional[list[str]]:
    """A's vertices in ascending order, or None when A has no order symbol
    or its order relation is not linear.

    The order is linear exactly when each pair of distinct vertices is
    ordered one way and, reflexive pairs included, the vertices have
    1, 2, ..., n predecessors.
    """
    order = A.language.order_symbol
    if order is None:
        return None
    leq = A.tuples(order)
    for u, v in itertools.combinations(A.vertices, 2):
        if ((u, v) in leq) == ((v, u) in leq):
            return None
    below = Counter(v for _, v in leq)
    ranked = sorted(A.vertices, key=below.__getitem__)
    if [below[v] for v in ranked] != list(range(1, len(ranked) + 1)):
        return None
    return ranked


# ---------------------------------------------------------------------------
# amalgamation


@frozen
class Amalgam:
    structure: Structure
    left: Morphism
    right: Morphism


def free_amalgamation(
    B1: Structure,
    B2: Structure,
    A: Structure,
    alpha1: Optional[Morphism] = None,
    alpha2: Optional[Morphism] = None,
) -> Amalgam:
    """Glue B1 and B2 along A with no identifications and no cross tuples.

    When the alphas are omitted, A must be an induced substructure of both
    (inclusion embeddings).  The result keeps B1's vertex names; fresh names
    are derived for B2's private vertices when they collide.
    """
    if alpha1 is None:
        alpha1 = Morphism.make(A, B1, {v: v for v in A.vertices}, "embedding")
    if alpha2 is None:
        alpha2 = Morphism.make(A, B2, {v: v for v in A.vertices}, "embedding")
    for alpha in (alpha1, alpha2):
        if not verify_morphism(alpha):
            raise MorphismError("free amalgamation requires embedding inputs")
    if alpha1.source != A or alpha2.source != A:
        raise MorphismError("alpha maps must start at the shared structure")

    a1 = alpha1.as_dict()
    a2inv = {w: v for v, w in alpha2.map}
    beta1 = {v: v for v in B1.vertices}
    taken = set(B1.vertices)
    beta2 = {}
    for w in B2.vertices:
        if w in a2inv:
            beta2[w] = a1[a2inv[w]]
        else:
            name = w
            while name in taken:
                name += "'"
            beta2[w] = name
            taken.add(name)

    verts = sorted(taken)
    rels: dict[str, list] = {name: [] for name in B1.language.names()}
    for name, ts in B1._relations.items():
        rels[name].extend(ts)
    for name, ts in B2._relations.items():
        rels[name].extend(tuple(beta2[v] for v in t) for t in ts)
    C = Structure(B1.language, verts, rels)
    return Amalgam(
        C,
        Morphism.make(B1, C, beta1, "embedding"),
        Morphism.make(B2, C, beta2, "embedding"),
    )


def is_strong_amalgamation(
    C: Structure,
    B1: Structure,
    B2: Structure,
    A: Structure,
    beta1: Morphism,
    beta2: Morphism,
) -> bool:
    """beta1(x1) = beta2(x2) exactly when x1 = x2 is a vertex of A."""
    if not (verify_morphism(beta1) and verify_morphism(beta2)):
        return False
    d1, d2 = beta1.as_dict(), beta2.as_dict()
    avs = set(A.vertices)
    for x1 in B1.vertices:
        for x2 in B2.vertices:
            same = d1[x1] == d2[x2]
            expected = x1 == x2 and x1 in avs
            if same != expected:
                return False
    return True


# ---------------------------------------------------------------------------
# isomorphism and canonical forms


def are_isomorphic(A: Structure, B: Structure) -> Optional[Morphism]:
    """A witness isomorphism, or None.  Deterministic."""
    if A.language != B.language:
        return None
    if len(A.vertices) != len(B.vertices):
        return None
    for name in A.language.names():
        if len(A.tuples(name)) != len(B.tuples(name)):
            return None
    if sorted(_profiles(A).values()) != sorted(_profiles(B).values()):
        return None
    return next(search_morphisms(A, B, "embedding"), None)


# Search nodes ``canonical_key`` may visit before it raises CapError.
KEY_NODE_BUDGET = 200_000


def _key_groups(A: Structure, free: Iterable[str]) -> list[list[str]]:
    """The free vertices of A grouped by their occurrence counts per
    (symbol, position) and their loops, per symbol in name order.

    The counts are read off the ``_profiles``.  Groups come in sorted
    order of these invariants, which fixes the order of keys, hence of
    obstacles and of the lift's ``ext:i:w`` numbering.
    """
    profile = _profiles(A)
    loops: dict[tuple[str, str], int] = {}
    for name, ts in A._relations.items():
        for t in ts:
            if t.count(t[0]) == len(t):
                loops[name, t[0]] = loops.get((name, t[0]), 0) + 1
    # equal profiles and loops make equal invariants
    groups: dict[tuple, list[str]] = {}
    for v in free:
        same = tuple(profile[v])
        if loops:
            same += tuple(loops.get((name, v), 0) for name in A._relations)
        groups.setdefault(same, []).append(v)
    if len(groups) < 2:
        return list(groups.values())
    slots, width = [], 0
    for name, arity in A.language.symbols:
        slots.append((name, width, width + arity))
        width += arity
    slots.sort()

    def invariant(vs: list[str]) -> tuple:
        prof = profile[vs[0]]
        return tuple(
            (name, tuple(prof[lo:hi]), loops.get((name, vs[0]), 0)) for name, lo, hi in slots
        )

    return sorted(groups.values(), key=invariant)


def _in_orbit(v: str, tried: list[str], autos: list[dict[str, str]], fixed: list[str]) -> bool:
    """Is v in the orbit of a vertex in ``tried`` under the automorphisms
    in ``autos`` that fix every vertex in ``fixed``?"""
    gens = [s for s in autos if all(s[x] == x for x in fixed)]
    orbit, stack = {v}, [v]
    while stack:
        x = stack.pop()
        for s in gens:
            y = s[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return not orbit.isdisjoint(tried)


def _relabelling_invariant(ts: frozenset, vertices: tuple) -> bool:
    """Does every permutation of the vertices map the tuple set onto
    itself?  One transposition and one cycle through all the vertices
    generate the permutations, so it is enough that these two do."""
    if len(vertices) < 2:
        return True
    cycle = dict(zip(vertices, vertices[1:] + vertices[:1]))
    swap = dict(zip(vertices, vertices[1::-1] + vertices[2:]))
    return all(tuple(map(s.__getitem__, t)) in ts for s in (swap, cycle) for t in ts)


def canonical_key(A: Structure, pinned: Sequence[str] = ()) -> tuple:
    """A complete isomorphism invariant: the least encoding of A.

    Vertices in ``pinned`` take the labels 0..len(pinned)-1 in the given
    order (used for rooted structures).  The free vertices are grouped by
    ``_key_groups``; the groups take the next labels in turn, and the
    vertices of a group take its labels in any order.  A labelling's
    encoding lists, per symbol in name order, the sorted labelled tuples,
    and the key holds the least encoding over these labellings.

    The least encoding is found exactly, by branch and bound.  Labels are
    given in increasing order.  A branch is dropped when a lower bound on
    its encodings, in which every unlabelled vertex takes the least label
    it can still get, is greater than the best encoding found; the bound
    skips symbols that encode alike under every labelling
    (``_relabelling_invariant``), such as a complete relation.  A choice is
    skipped when an automorphism found at two leaves with equal encodings,
    fixing every vertex labelled so far, maps it onto a choice already
    searched (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    Raises CapError when the search needs more than ``KEY_NODE_BUDGET``
    nodes; it never returns a key it has not proved least.
    """
    # val[v]: v's label, or the least label an unlabelled v can still take
    val = {v: i for i, v in enumerate(pinned)}
    groups, end = [], len(pinned)
    for group in _key_groups(A, [v for v in A.vertices if v not in val]):
        for v in group:
            val[v] = end
        end += len(group)
        groups.append(group)
    names = sorted(A._relations)
    # One getter of all vertex values per nonempty symbol, with its arity.
    # The bound leaves out a symbol that every relabelling maps onto
    # itself: it encodes alike at every leaf, and its bound, below the
    # best, would stop the later symbols from pruning.
    getters, parts = {}, []
    for name in names:
        ts = A._relations[name]
        if ts:
            flat = list(itertools.chain.from_iterable(ts))
            get = itemgetter(*flat) if len(flat) > 1 else (lambda val, v=flat[0]: (val[v],))
            getters[name] = (get, len(flat) // len(ts))
            if not _relabelling_invariant(ts, A.vertices):
                parts.append(getters[name])

    def encode() -> list:
        """The bound: per symbol, the sorted tuples as base-``end``
        numbers, every unlabelled vertex taking the least label it can
        still get."""
        out = []
        for get, k in parts:
            vals = get(val)
            nums = vals[0::k]
            for i in range(1, k):
                nums = map(add, map(mul, nums, repeat(end)), vals[i::k])
            out.append(sorted(nums))
        return out

    def raised(enc: list) -> list:
        """A bound ``enc`` raised where it repeats a number: the tuples of
        a symbol are distinct, so the j-th is at least the (j-1)-th plus
        one."""
        return [list(map(add, accumulate(map(sub, nums, count()), max), count())) for nums in enc]

    best = best_val = best_path = None
    autos: list[dict[str, str]] = []
    path = [""] * end  # path[L]: the vertex labelled L
    start = len(pinned)
    nodes = 0

    def leaf(enc: list) -> int:
        """Record a complete labelling, whose encoding ``enc`` is never
        above the best; return the label to jump back to after an
        automorphism, or ``end``."""
        nonlocal best, best_val, best_path
        if best is None or enc < best:
            best, best_val, best_path = enc, dict(val), path[:]
            return end
        who = [""] * end
        for v, i in best_val.items():
            who[i] = v
        autos.append({v: who[i] for v, i in val.items()})
        # the subtree where the two paths part is an image of one searched
        return next(L for L in range(start, end) if path[L] != best_path[L])

    def descend(g: int, L: int, unlabelled: list, enc: Optional[list]) -> int:
        """Label L onwards, with group g's ``unlabelled`` vertices still
        open and ``enc`` the bound so far (None at the root); return as
        ``leaf`` does."""
        nonlocal nodes
        while len(unlabelled) < 2:  # a forced label leaves the bound as it is
            if unlabelled:
                path[L] = unlabelled[0]
                L += 1
            g += 1
            if g == len(groups):
                return leaf(encode() if enc is None else enc)
            unlabelled = groups[g]
        nodes += len(unlabelled)
        if nodes > KEY_NODE_BUDGET:
            raise CapError(f"canonical key search ran out of its {KEY_NODE_BUDGET} node budget")
        for u in unlabelled:
            val[u] = L + 1
        kids = []
        for v in unlabelled:
            val[v] = L
            kids.append((encode(), v))
            val[v] = L + 1
        kids.sort()
        tried: list[str] = []
        back = end
        for kid, v in kids:
            if best is not None:
                if kid > best:
                    break
                if raised(kid) > best:
                    continue
            if tried and autos and _in_orbit(v, tried, autos, path[start:L]):
                continue
            tried.append(v)
            path[L] = v
            val[v] = L
            back = descend(g, L + 1, [u for u in unlabelled if u != v], kid)
            val[v] = L + 1
            if back < L:
                break
        for u in unlabelled:
            val[u] = L
        return back if back < L else end

    try:
        descend(-1, start, [], None)
    finally:
        # descend reaches itself through its closure: emptying its cell
        # frees the search state now rather than at a cycle collection
        del descend
    least = iter([sorted(zip(*[iter(get(best_val))] * k)) for get, k in getters.values()])
    return (
        A.language,
        len(A.vertices),
        len(pinned),
        tuple((name, tuple(next(least)) if A._relations[name] else ()) for name in names),
    )
