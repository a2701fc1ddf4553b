"""Reference piece data: cuts by induced substructures, families keyed
without reuse.

``oracle_minimal_separating_cuts`` is ``pieces.minimal_separating_cuts``
as it was before it worked on bitmasks: for every vertex subset R it builds
the structure induced on the other vertices and its connected components.
``oracle_family`` is the construction of ``PieceFamily`` as it was before
each (vertex set, root order) of a member was keyed once: every piece and
every complement is built and keyed afresh, and a piece's class is found
by gluing it to every complement of its width.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from ramseyforge.pieces import Cut, Piece, RootedStructure, piece_glue
from ramseyforge.structures import (
    Structure,
    are_isomorphic,
    canonical_key,
    connected_components,
    induced_substructure,
)

from conftest import gaifman_adjacency


def oracle_minimal_separating_cuts(A: Structure) -> list[Cut]:
    adj = gaifman_adjacency(A)
    verts = list(A.vertices)
    out = []
    seen = set()
    for r in range(0, len(verts) - 1):
        for R in itertools.combinations(verts, r):
            Rset = frozenset(R)
            rest = [v for v in verts if v not in Rset]
            if not rest:
                continue
            comps = connected_components(induced_substructure(A, rest))
            if len(comps) < 2:
                continue
            neigh = {
                comp: frozenset().union(*(adj[v] for v in comp)) - comp
                for comp in comps
            }
            for c1, c2 in itertools.combinations(sorted(comps, key=sorted), 2):
                if neigh[c1] == Rset and neigh[c2] == Rset:
                    key = (Rset, frozenset((c1, c2)))
                    if key not in seen:
                        seen.add(key)
                        out.append(Cut(Rset, (c1, c2)))
    out.sort(key=lambda c: (sorted(c.cut), sorted(map(sorted, c.sides))))
    return out


def oracle_family(members: Sequence[Structure]) -> dict:
    """Pieces, complements, complement keys and classes (as ``(width,
    pieces)`` pairs) in the order ``PieceFamily`` gives them."""
    piece_pool: dict[tuple, Piece] = {}
    complement_pool: dict[tuple, RootedStructure] = {}
    for M in members:
        for cut in oracle_minimal_separating_cuts(M):
            for side in cut.sides:
                body = induced_substructure(M, side | cut.cut)
                co_body = induced_substructure(M, set(M.vertices) - side)
                for order in itertools.permutations(sorted(cut.cut)):
                    piece_pool.setdefault(canonical_key(body, order), Piece(body, order, M))
                    complement_pool.setdefault(
                        canonical_key(co_body, order), RootedStructure(co_body, order)
                    )
    piece_keys = sorted(piece_pool)
    complement_keys = tuple(sorted(complement_pool))
    complements = [complement_pool[k] for k in complement_keys]
    groups: dict[tuple, tuple[tuple, list[Piece]]] = {}
    for key in piece_keys:
        piece = piece_pool[key]
        incompatible = frozenset(
            D_key
            for D, D_key in zip(complements, complement_keys)
            if D.width == piece.width
            and (glued := piece_glue(piece.rooted(), D)) is not None
            and any(are_isomorphic(glued, M) is not None for M in members)
        )
        groups.setdefault((piece.width, incompatible), (key, []))[1].append(piece)
    ordered = sorted(groups.items(), key=lambda kv: (kv[0][0], kv[1][0]))
    return {
        "pieces": [piece_pool[k] for k in piece_keys],
        "complements": complements,
        "complement_keys": complement_keys,
        "classes": [(width, tuple(ps)) for (width, _), (_, ps) in ordered],
    }
