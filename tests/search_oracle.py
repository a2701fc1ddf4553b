"""Reference morphism search: the unindexed backtracker.

This is the search ``structures.search_morphisms`` used before it compiled
per-source plans.  It tries every target vertex at every depth, rescans all
source tuples after each assignment and checks reflection only on complete
maps.  It is slow and obviously faithful to the definitions, so the tests
compare the indexed search against it, map for map and in order.

``oracle_canonical_lift`` is the canonical lift as it was computed before
each class piece got one compiled search: a fresh search per root tuple.
``oracle_copies_of`` is ``copies_of`` as it was before the copy search
yielded one embedding per copy: every embedding, grouped by image.
``hom_embedding_oracle`` decides homomorphism-embeddings by checking every
irreducible substructure of the source; ``oracle_is_hom_embedding`` is the
check ``verify_morphism`` made before it read the cached span obligations:
every target tuple pulled back along every choice of preimages.
``oracle_projection`` answers a projected search as the canonical lift did
before it projected: one compiled run per tuple of pinned images.
``oracle_orbit_bounds`` is ``_orbit_bounds`` as it was before it projected:
one compiled run per later vertex.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional

from ramseyforge.errors import LanguageMismatchError, MorphismError
from ramseyforge.pieces import LiftedStructure
from ramseyforge.structures import (
    MORPHISM_KINDS,
    Morphism,
    Structure,
    _check_total,
    _is_homomorphism,
    _reflects_on_image,
    _source_plan,
    _spans_irreducible,
    compile_search,
    induced_substructure,
    is_irreducible,
    verify_morphism,
)

from conftest import gaifman_adjacency


def _forward_ok(source, target, d, newly: str) -> bool:
    """All source tuples fully assigned after mapping `newly` land in target."""
    for name, ts in source._relations.items():
        tt = target.tuples(name)
        for t in ts:
            if newly in t and all(v in d for v in t):
                if tuple(d[v] for v in t) not in tt:
                    return False
    return True


def _vertex_profile(A: Structure) -> dict[str, dict]:
    """Per-vertex occurrence counts by (symbol, position), for pruning."""
    prof: dict[str, dict] = {v: {} for v in A.vertices}
    for name, ts in A._relations.items():
        for t in ts:
            for i, v in enumerate(t):
                key = (name, i)
                prof[v][key] = prof[v].get(key, 0) + 1
    return prof


def oracle_search(
    A: Structure,
    B: Structure,
    kind: str,
    fixed: Optional[Mapping[str, str]] = None,
    require_injective: bool = False,
) -> Iterator[Morphism]:
    """Same contract and output order as ``search_morphisms``."""
    if A.language != B.language:
        raise LanguageMismatchError("morphism search requires a shared language")
    if kind not in MORPHISM_KINDS:
        raise MorphismError(f"unknown morphism kind {kind!r}")
    injective = require_injective or kind in ("monomorphism", "embedding")
    pairwise = kind == "homomorphism-embedding"
    fixed = dict(fixed or {})
    for v, w in fixed.items():
        if v not in set(A.vertices) or w not in set(B.vertices):
            raise MorphismError("fixed assignment uses undeclared vertices")

    if injective and len(A.vertices) > len(B.vertices):
        return

    order = [v for v in A.vertices if v not in fixed]
    order = sorted(fixed) + order
    prune_profiles = kind in ("monomorphism", "embedding")
    profA = _vertex_profile(A) if prune_profiles else None
    profB = _vertex_profile(B) if prune_profiles else None
    adjA = gaifman_adjacency(A)

    d: dict[str, str] = {}

    def candidates(v):
        if v in fixed:
            return [fixed[v]]
        return B.vertices

    def extend(i: int) -> Iterator[dict]:
        if i == len(order):
            yield dict(d)
            return
        v = order[i]
        used = set(d.values()) if injective else None
        for w in candidates(v):
            if injective and w in used:
                continue
            if pairwise and any(
                (u in d and d[u] == w) for u in adjA[v]
            ):
                continue
            if profA is not None:
                pa, pb = profA[v], profB[w]
                if any(pb.get(k, 0) < c for k, c in pa.items()):
                    continue
            d[v] = w
            if _forward_ok(A, B, d, v):
                yield from extend(i + 1)
            del d[v]

    for full in extend(0):
        m = Morphism.make(A, B, full, kind)
        if kind == "embedding":
            if not _reflects_on_image(A, B, full):
                continue
        elif kind == "homomorphism-embedding":
            if not oracle_is_hom_embedding(A, B, full):
                continue
        yield m


def oracle_is_hom_embedding(source: Structure, target: Structure, d: Mapping[str, str]) -> bool:
    """For a homomorphism d: injective on every pair that co-occurs in a
    tuple, and every target tuple pulls back along d on each choice of
    preimages that sits inside an irreducible substructure of the source."""
    adj = gaifman_adjacency(source)
    for u in source.vertices:
        for v in adj[u]:
            if u < v and d[u] == d[v]:
                return False
    preim: dict[str, list[str]] = {}
    for v, w in d.items():
        preim.setdefault(w, []).append(v)
    for name, ts in target._relations.items():
        st = source.tuples(name)
        for t in ts:
            pools = [preim.get(w) for w in t]
            if any(p is None for p in pools):
                continue
            for s in itertools.product(*pools):
                if s not in st and _spans_irreducible(source, frozenset(s)):
                    return False
    return True


def piece_roots_in(piece, A: Structure, at: tuple) -> bool:
    """Does some homomorphism-embedding of the piece into A send its root
    onto ``at``?  One fresh search with the root pinned."""
    fixed = dict(zip(piece.root, at))
    for _ in oracle_search(piece.body, A, "homomorphism-embedding", fixed=fixed):
        return True
    return False


def oracle_canonical_lift(A: Structure, family):
    """The canonical lift as ``pieces.canonical_lift`` computed it before it
    compiled one search per piece: one search per root tuple and class
    piece."""
    ext = {cls.index: set() for cls in family.classes}
    for cls in family.classes:
        for at in itertools.permutations(A.vertices, cls.width):
            if any(piece_roots_in(piece, A, at) for piece in cls.pieces):
                ext[cls.index].add(at)
    return LiftedStructure.make(A, ext, family)


def oracle_projection(A, B, kind, pinned, prefix=(), require_injective=False) -> list[tuple]:
    """The tuples of pairwise distinct images of ``pinned`` that start with
    ``prefix`` and extend to a morphism, in lexicographic order: a compiled
    search pinned at ``pinned``, run once per tuple, the first map
    deciding."""
    run = compile_search(A, B, kind, pinned, require_injective)
    rest = [w for w in B.vertices if w not in prefix]
    return [
        prefix + t
        for t in itertools.permutations(rest, len(pinned) - len(prefix))
        if next(run(prefix + t), None) is not None
    ]


def oracle_orbit_bounds(A: Structure) -> tuple:
    """``_orbit_bounds`` by first-witness runs: with ``order[:i + 1]``
    pinned, one run per later vertex ``order[j]`` asks whether an
    automorphism fixing ``order[:i]`` sends ``order[i]`` to it; if so,
    depth i bounds depth j."""
    order = _source_plan(A, ()).order
    found: list[list] = [[] for _ in order]
    for i in range(len(order) - 1):
        run = compile_search(A, A, "embedding", order[:i + 1])
        for j in range(i + 1, len(order)):
            if next(run(order[:i] + (order[j],)), None) is not None:
                found[j].append(i)
    return tuple(map(tuple, found))


def oracle_copies_of(A: Structure, B: Structure) -> dict[frozenset, list[Morphism]]:
    """Copies of A in B as ``copies_of`` computed them before the copy
    search broke automorphisms: every embedding, grouped by image."""
    out: dict[frozenset, list[Morphism]] = {}
    for m in oracle_search(A, B, "embedding"):
        out.setdefault(m.image_vertices(), []).append(m)
    return dict(sorted(out.items(), key=lambda kv: tuple(sorted(kv[0]))))


def hom_embedding_oracle(f: Morphism) -> bool:
    """Exhaustive homomorphism-embedding check over all irreducible
    substructures; reference oracle for small sources (<= ~6 vertices)."""
    d = _check_total(f)
    if not _is_homomorphism(f.source, f.target, d):
        return False
    verts = f.source.vertices
    for r in range(1, len(verts) + 1):
        for S in itertools.combinations(verts, r):
            sub = induced_substructure(f.source, S)
            if not is_irreducible(sub):
                continue
            restricted = Morphism.make(sub, f.target, {v: d[v] for v in S}, "embedding")
            if not verify_morphism(restricted):
                return False
    return True
