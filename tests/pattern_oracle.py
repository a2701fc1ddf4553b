"""Reference pattern enumeration, obstacle search and metric completion.

These are the versions ``completion`` and ``metric`` used before pattern
generation became orderly, obstacle minimality was read off the previous
size and metric completion ran on distance ranks:

- ``canonical_pair_vectors`` walks every pair-state vector and keeps those
  that no vertex permutation makes lexicographically smaller;
- ``obstacles_up_to`` builds every pattern, tries to complete it and, when
  it fails, builds and completes each one-vertex-deleted part;
- ``complete_metric_graph`` runs Floyd-Warshall on ``Fraction`` distances
  through a ``Fraction``-keyed truncated-addition table;
- ``four_values``, ``jump_numbers`` and ``oplus_table`` compute on
  ``Fraction`` distances what the distance set now keeps as cached tables.
- ``oracle_blocks`` searches all 2^|S| subsets for the inclusion-maximal
  jump-free ones that satisfy the 4-values condition, where ``blocks``
  now cuts sorted S after each jump number.
- ``metric_membership`` checks the language and reads the structure into
  an ``SGraph`` of ``Fraction`` distances, and ``sgraph_is_metric`` checks
  every triangle with ``Fraction`` sums, where ``MetricPlugin.membership``
  and ``SGraph.is_metric`` check each triple on ranks through the
  truncated-addition table (``metric.metric_ranks``);
- ``s_length``, ``fold_violates``, ``unimportant_paths`` and
  ``is_associative`` fold ``Fraction`` distances through the
  ``Fraction``-keyed table, where ``metric`` folds ranks.

They are slow and obviously faithful to the definitions, so the tests
compare the fast paths against them, output for output and in order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ramseyforge import metric
from ramseyforge.errors import PreconditionError, StructureError
from ramseyforge.metric import (
    DistanceSet,
    MetricCompletionResult,
    NonMetricCertificate,
    SGraph,
    UnimportantReduction,
    _cut_loops,
)
from ramseyforge.rsf import format_rational
from ramseyforge.structures import Structure, canonical_key, induced_substructure


def pair_perm_maps(k: int) -> list[list[tuple[int, bool]]]:
    pairs = list(itertools.combinations(range(k), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = []
    for sigma in itertools.permutations(range(k)):
        if sigma == tuple(range(k)):
            continue
        row = []
        for (i, j) in pairs:
            a, b = sigma[i], sigma[j]
            row.append((index[(a, b)], False) if a < b else (index[(b, a)], True))
        maps.append(row)
    return maps


def canonical_pair_vectors(
    k: int, num_states: int, flip: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    maps = pair_perm_maps(k)
    npairs = k * (k - 1) // 2
    for vec in itertools.product(range(num_states), repeat=npairs):
        minimal = True
        for row in maps:
            out = [0] * npairs
            for p in range(npairs):
                q, fl = row[p]
                s = vec[p]
                out[q] = flip[s] if fl else s
            if tuple(out) < vec:
                minimal = False
                break
        if minimal:
            yield vec


def obstacles_up_to(plugin, n: int) -> list[Structure]:
    out = []
    for P in plugin.patterns_up_to(n):
        if plugin.try_strong_completion(P).ok:
            continue
        if all(
            plugin.try_strong_completion(
                induced_substructure(P, set(P.vertices) - {v})
            ).ok
            for v in P.vertices
        ):
            out.append(P)
    out.sort(key=canonical_key)
    return out


def oplus_table(S: DistanceSet) -> dict:
    vals = S.sorted()
    table = {}
    for a in vals:
        for b in vals:
            s = a + b
            table[(a, b)] = max(x for x in vals if x <= s)
    return table


def _triangle(a, b, c) -> bool:
    return a <= b + c and b <= a + c and c <= a + b


def four_values(S: DistanceSet) -> tuple[bool, Optional[tuple]]:
    vals = S.sorted()
    for a, b, c, d in itertools.product(vals, repeat=4):
        for x in vals:
            if _triangle(a, b, x) and _triangle(c, d, x):
                if not any(_triangle(a, c, y) and _triangle(b, d, y) for y in vals):
                    return False, (a, b, c, d, x)
                break
    return True, None


def jump_numbers(S: DistanceSet) -> frozenset:
    table = oplus_table(S)
    return frozenset(a for a in S.distances if a != S.max and table[(a, a)] == a)


def oracle_blocks(S: DistanceSet) -> list[tuple]:
    """Inclusion-maximal jump-free 4-values subsets of S, sorted values each,
    ordered by their minima."""
    good = []
    for r in range(1, len(S) + 1):
        for combo in itertools.combinations(S.sorted(), r):
            B = DistanceSet(combo)
            if metric.four_values(B)[0] and not metric.jump_numbers(B):
                good.append(frozenset(combo))
    maximal = [b for b in good if not any(b < other for other in good)]
    return sorted((tuple(sorted(b)) for b in maximal), key=min)


def _reconstruct(nxt, idx, verts, u, v) -> list[str]:
    i, j = idx[u], idx[v]
    path = [u]
    while i != j:
        i = nxt[i][j]
        path.append(verts[i])
    return path


def complete_metric_graph(G: SGraph, S: DistanceSet) -> MetricCompletionResult:
    ok, witness = four_values(S)
    if not ok:
        raise PreconditionError(f"distance set fails the 4-values condition at {witness}")
    if not G.values() <= S.distances:
        raise PreconditionError("graph uses distances outside the set")
    return fraction_completion(G, S)


def fraction_completion(G: SGraph, S: DistanceSet) -> MetricCompletionResult:
    """Floyd-Warshall on ``Fraction`` distances, without the 4-values and
    distance-set preconditions."""
    verts = list(G.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    d: list[list[Optional[object]]] = [[None] * n for _ in range(n)]
    nxt: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for (u, v), q in G.dist.items():
        i, j = idx[u], idx[v]
        d[i][j] = d[j][i] = q
        nxt[i][j] = j
        nxt[j][i] = i
    table = oplus_table(S)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None or i == k:
                continue
            di = d[i]
            for j in range(i + 1, n):
                if j == k:
                    continue
                dkj = dk[j]
                if dkj is None:
                    continue
                cand = table[(dik, dkj)]
                if di[j] is None or cand < di[j]:
                    di[j] = cand
                    d[j][i] = cand
                    nxt[i][j] = nxt[i][k]
                    nxt[j][i] = nxt[j][k]
    for (u, v), q in sorted(G.dist.items()):
        i, j = idx[u], idx[v]
        if d[i][j] < q:
            walk = _cut_loops(_reconstruct(nxt, idx, verts, u, v))
            return MetricCompletionResult(
                "no-completion",
                None,
                NonMetricCertificate((u, v), q, d[i][j], tuple(walk)),
            )
    out = {}
    top = S.max
    for u, v in G.pairs():
        i, j = idx[u], idx[v]
        out[(u, v)] = d[i][j] if d[i][j] is not None else top
    return MetricCompletionResult("completed", SGraph(verts, out), None)


def sgraph_is_metric(G: SGraph, S: DistanceSet) -> bool:
    """Total, every distance in S, and the triangle inequality on every
    triple, in ``Fraction`` sums."""
    if not G.is_total() or not G.values() <= S.distances:
        return False
    return all(
        _triangle(G.get(u, v), G.get(u, w), G.get(v, w))
        for u, v, w in itertools.combinations(G.vertices, 3)
    )


def metric_membership(A: Structure, S: DistanceSet) -> bool:
    """Is A a metric space over S: only binary ``d:<q>`` symbols for q in S,
    a well-formed total S-graph, and its triangles all satisfy the triangle
    inequality?"""
    names = {f"d:{format_rational(q)}" for q in S.sorted()}
    if any(arity != 2 or name not in names for name, arity in A.language.symbols):
        return False
    try:
        G = metric.structure_to_sgraph(A, S)
    except StructureError:
        return False
    return sgraph_is_metric(G, S)


def is_associative(S: DistanceSet) -> tuple[bool, Optional[tuple]]:
    table = oplus_table(S)
    for a, b, c in itertools.product(S.sorted(), repeat=3):
        if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
            return False, (a, b, c)
    return True, None


def s_length(S: DistanceSet, walk: Sequence) -> object:
    """The left fold of truncated addition over ``Fraction`` distances in S."""
    table = oplus_table(S)
    acc = walk[0]
    for d in walk[1:]:
        acc = table[(acc, d)]
    return acc


def fold_violates(S: DistanceSet, distances: Sequence) -> bool:
    return distances[-1] > s_length(S, distances[:-1])


def unimportant_paths(distances: Sequence, S: DistanceSet) -> UnimportantReduction:
    """The reduction as ``metric.unimportant_paths`` computed it on
    ``Fraction`` distances: the long edge rotated last, every stalling
    edge of the path after the first dropped (one kept when all stall)."""
    top = max(distances)
    i = distances.index(top)
    ds = list(distances[i + 1:]) + list(distances[:i])
    if not top > s_length(S, ds):
        return UnimportantReduction((), tuple(ds) + (top,))
    table = oplus_table(S)
    folds = [ds[0]]
    for d in ds[1:]:
        folds.append(table[(folds[-1], d)])
    keep = [0] + [k for k in range(1, len(ds)) if folds[k] != folds[k - 1]]
    if len(keep) < 2:
        keep = [0, 1]
    dropped = [k for k in range(1, len(ds)) if k not in keep]
    segments = []
    for k in dropped:
        if segments and segments[-1][1] == k - 1:
            segments[-1] = (segments[-1][0], k)
        else:
            segments.append((k, k))
    return UnimportantReduction(tuple(segments), tuple(ds[k] for k in keep) + (top,))
