"""Exact-arithmetic algorithms for metric spaces with a finite distance set.

The truncated addition a (+) b = max{x in S : x <= a + b} is the
workhorse: it is associative exactly when S satisfies the 4-values
exchange condition, and then minimal fold-lengths of walks compute the
pointwise-least metric completion.  Computation runs on ranks into sorted
S, through the table ``DistanceSet._oplus_rank``; distances are exact
rationals (``Fraction``) only at input, read by ``_ranks``, and output.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ._record import frozen
from .errors import PreconditionError, StructureError
from .structures import GAIFMAN_LANGUAGE, Language, Structure, connected_components


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        from .rsf import parse_rational

        return parse_rational(x)
    raise StructureError(f"distances must be exact rationals, got {type(x).__name__}")


@frozen
class DistanceSet:
    """A finite set of positive exact rationals.

    Tables derived from the set (sorted values, ranks, truncated addition
    on ranks, symbol names and the language, the 4-values verdict, jump
    numbers, blocks) are computed on first use and kept on the instance.
    """

    distances: frozenset[Fraction]

    def __init__(self, values: Iterable):
        vals = frozenset(_coerce(v) for v in values)
        if not vals:
            raise StructureError("distance sets must be nonempty")
        if any(v <= 0 for v in vals):
            raise StructureError("distances must be positive")
        object.__setattr__(self, "distances", vals)

    def sorted(self) -> tuple[Fraction, ...]:
        return self._values

    def __contains__(self, x) -> bool:
        return _coerce(x) in self.distances

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self.distances)

    @property
    def max(self) -> Fraction:
        return self._values[-1]

    @property
    def min(self) -> Fraction:
        return self._values[0]

    # cached_property writes the instance __dict__ directly, past the
    # record's frozen __setattr__; the cached tables are not fields, so they
    # take no part in eq, hash or repr.

    @functools.cached_property
    def _values(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.distances))

    @functools.cached_property
    def _rank(self) -> dict[Fraction, int]:
        """Position of each distance in sorted order."""
        return {q: r for r, q in enumerate(self._values)}

    @functools.cached_property
    def _scaled(self) -> tuple[int, ...]:
        """The sorted distances times the lcm of their denominators: exact
        integers in the same order and with the same sums compared."""
        scale = math.lcm(*(q.denominator for q in self._values))
        return tuple(q.numerator * (scale // q.denominator) for q in self._values)

    @functools.cached_property
    def _oplus_rank(self) -> tuple[tuple[int, ...], ...]:
        """Truncated addition on ranks: entry [r][s] is the rank of
        a (+) b for the distances a, b of ranks r, s."""
        vals = self._scaled
        table = []
        for a in vals:
            row = []
            top = 0
            for b in vals:
                s = a + b
                while top + 1 < len(vals) and vals[top + 1] <= s:
                    top += 1
                row.append(top)
            table.append(tuple(row))
        return tuple(table)

    @functools.cached_property
    def _symbols(self) -> tuple[str, ...]:
        """Relation names ``d:<q>`` of the distances, in sorted order."""
        from .rsf import format_rational

        return tuple(f"d:{format_rational(q)}" for q in self._values)

    @functools.cached_property
    def _language(self) -> Language:
        """The unordered distance language: one binary symbol per distance."""
        return Language(tuple((name, 2) for name in self._symbols))

    @functools.cached_property
    def _four_values(self) -> tuple[bool, Optional[tuple]]:
        """(a, b, c, d) fails when some x makes triangles with a, b and with
        c, d while no y does with a, c and with b, d; the witness x is the
        least such.  ``tri[a][b]`` has bit x set when a, b, x make a
        triangle, that is |a - b| <= x <= a + b."""
        vals = self._scaled
        ranks = range(len(vals))
        tri = [
            [sum(1 << x for x in ranks if abs(a - b) <= vals[x] <= a + b) for b in vals]
            for a in vals
        ]
        for a, b, c, d in itertools.product(ranks, repeat=4):
            common = tri[a][b] & tri[c][d]
            if common and not tri[a][c] & tri[b][d]:
                x = (common & -common).bit_length() - 1
                return False, tuple(self._values[r] for r in (a, b, c, d, x))
        return True, None

    @functools.cached_property
    def _jumps(self) -> frozenset[Fraction]:
        vals, table = self._values, self._oplus_rank
        return frozenset(vals[r] for r in range(len(vals) - 1) if table[r][r] == r)

    @functools.cached_property
    def _blocks(self) -> tuple[DistanceSet, ...]:
        """The sorted values cut after each jump number and at the maximum."""
        out, run = [], []
        for q in self._values:
            run.append(q)
            if q in self._jumps or q == self.max:
                out.append(DistanceSet(run))
                run = []
        return tuple(out)


def distance_set(*values) -> DistanceSet:
    return DistanceSet(values)


def _ranks(S: DistanceSet, distances: Iterable) -> list[int]:
    """The rank of each distance in sorted S; strings and ints are read as
    rationals, and a distance outside S is a ``PreconditionError``."""
    qs = [_coerce(q) for q in distances]
    rank = S._rank
    try:
        return [rank[q] for q in qs]
    except KeyError:
        raise PreconditionError("distances must lie in the distance set") from None


def _fold(S: DistanceSet, ranks: Sequence[int]) -> list[int]:
    """The left folds of truncated addition over ``ranks``, prefix by prefix."""
    table = S._oplus_rank
    return list(itertools.accumulate(ranks, lambda a, b: table[a][b]))


def oplus(S: DistanceSet, a, b) -> Fraction:
    """Truncated addition: the largest element of S not above a + b."""
    r, s = _ranks(S, (a, b))
    return S._values[S._oplus_rank[r][s]]


def four_values(S: DistanceSet) -> tuple[bool, Optional[tuple]]:
    """Two-triangle exchange condition; witness (a,b,c,d,x) on failure."""
    return S._four_values


def _require_four_values(S: DistanceSet) -> None:
    ok, witness = four_values(S)
    if not ok:
        raise PreconditionError(f"distance set fails the 4-values condition at {witness}")


def is_associative(S: DistanceSet) -> tuple[bool, Optional[tuple]]:
    """Associativity of truncated addition; witness triple on failure."""
    table = S._oplus_rank
    for a, b, c in itertools.product(range(len(table)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return False, tuple(S._values[r] for r in (a, b, c))
    return True, None


def jump_numbers(S: DistanceSet) -> frozenset[Fraction]:
    """Non-maximal a with a (+) a = a: truncated addition stalls at a."""
    return S._jumps


def blocks(S: DistanceSet) -> tuple[DistanceSet, ...]:
    """The blocks of a 4-values set: the maximal runs of sorted S that end
    at a jump number or at max(S).

    These are the inclusion-maximal jump-free subsets of S that satisfy the
    4-values condition (Sauer, "Distance sets of Urysohn metric spaces").
    """
    _require_four_values(S)
    return S._blocks


def block_of(S: DistanceSet, j: Fraction) -> DistanceSet:
    j = _coerce(j)
    for b in blocks(S):
        if j in b.distances:
            return b
    raise StructureError(f"{j} not in the distance set")


def s_length(S: DistanceSet, walk: Sequence) -> Fraction:
    """Left fold of truncated addition over the walk's distances."""
    ranks = _ranks(S, walk)
    if not ranks:
        raise PreconditionError("walks must have at least one edge")
    return S._values[_fold(S, ranks)[-1]]


# ---------------------------------------------------------------------------
# S-graphs


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class SGraph:
    """A graph with edges coloured by distances: a partial symmetric distance
    map with no self-distances.  Total S-graphs are metric-space candidates."""

    __slots__ = ("vertices", "dist")

    def __init__(self, vertices: Iterable[str], dist: Mapping = ()):
        verts = sorted(set(vertices))
        self.vertices = tuple(verts)
        vset = set(verts)
        d: dict[tuple[str, str], Fraction] = {}
        items = dist.items() if hasattr(dist, "items") else dist
        for key, value in items:
            u, v = key
            if u == v:
                raise StructureError("no self-distances")
            if u not in vset or v not in vset:
                raise StructureError(f"distance on undeclared pair {key!r}")
            p = _pair(u, v)
            q = _coerce(value)
            if p in d and d[p] != q:
                raise StructureError(f"conflicting distances on {p!r}")
            d[p] = q
        self.dist = d

    def get(self, u: str, v: str) -> Optional[Fraction]:
        return self.dist.get(_pair(u, v))

    def pairs(self) -> Iterator[tuple[str, str]]:
        for u, v in itertools.combinations(self.vertices, 2):
            yield u, v

    def is_total(self) -> bool:
        n = len(self.vertices)
        return len(self.dist) == n * (n - 1) // 2

    def values(self) -> frozenset[Fraction]:
        return frozenset(self.dist.values())

    def __eq__(self, other):
        return (
            isinstance(other, SGraph)
            and self.vertices == other.vertices
            and self.dist == other.dist
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.dist.items()))))

    def __repr__(self):
        return f"SGraph({len(self.vertices)} vertices, {len(self.dist)} distances)"

    def induced(self, S: Iterable[str]) -> "SGraph":
        keep = set(S)
        return SGraph(
            keep, {p: q for p, q in self.dist.items() if p[0] in keep and p[1] in keep}
        )

    def is_metric(self, S: DistanceSet) -> bool:
        """Is the graph a metric space over S: total, with distances in S
        and every triangle inequality holding (see ``metric_ranks``)."""
        rank = S._rank.get
        ranks = {p: rank(q) for p, q in self.dist.items()}
        return None not in ranks.values() and metric_ranks(self.vertices, ranks, S)


def metric_ranks(vertices: Sequence[str], ranks: Mapping, S: DistanceSet) -> bool:
    """The triangle check on ranks: does ``ranks``, the rank of each pair
    u < v of the sorted ``vertices`` that has a distance, give a metric
    space over S?  Every pair needs a distance, and a <= b + c for a in S
    reads rank(a) <= rank(b (+) c)."""
    n = len(vertices)
    if len(ranks) != n * (n - 1) // 2:
        return False
    table = S._oplus_rank
    for u, v, w in itertools.combinations(vertices, 3):
        a, b, c = ranks[u, v], ranks[u, w], ranks[v, w]
        if a > table[b][c] or b > table[a][c] or c > table[a][b]:
            return False
    return True


def metric_language(S: DistanceSet) -> Language:
    """One binary symbol per distance, built once per distance set."""
    return S._language


def _states(G: SGraph, S: DistanceSet) -> list[int]:
    """G's pair vector over its sorted vertices (see ``rank_structure``)."""
    rank, dist = S._rank, G.dist
    return [rank.get(dist.get(p), -1) + 1 for p in G.pairs()]


def rank_structure(S: DistanceSet, verts: Sequence[str], states: Sequence[int]) -> Structure:
    """The distance structure on ``verts`` from a pair vector over them: 0 a
    hole, r + 1 the distance of rank r."""
    names = S._symbols
    rels: dict[str, list] = {name: [] for name in names}
    for (u, v), s in zip(itertools.combinations(verts, 2), states):
        if s:
            rels[names[s - 1]] += [(u, v), (v, u)]
    return Structure(S._language, verts, rels)


def sgraph_to_structure(G: SGraph, S: DistanceSet) -> Structure:
    for q in G.dist.values():
        if q not in S.distances:
            raise StructureError(f"distance {q} not in the distance set")
    return rank_structure(S, G.vertices, _states(G, S))


def structure_to_sgraph(A: Structure, S: DistanceSet) -> SGraph:
    """Interpret a distance-language structure as an S-graph; raises as
    ``structure_ranks`` does."""
    values = S._values
    return SGraph(A.vertices, {p: values[r] for p, r in structure_ranks(A, S).items()})


def structure_ranks(A: Structure, S: DistanceSet) -> dict[tuple[str, str], int]:
    """Per pair u < v of a distance-language structure that has a
    distance, its rank in ``S.sorted()``.  Raises when the structure is not
    a well-formed S-graph, naming the first fault: first the least declared
    symbol that is not a binary distance symbol of S, before any tuple is
    read; then loops, one-way tuples, or two distances on a pair, symbols
    in distance order and tuples sorted.  A distance of S that the
    structure does not declare holds on no pair."""
    foreign = set(A.language.symbols) - set(S._language.symbols)
    if foreign:
        name, arity = min(foreign)
        raise StructureError(f"symbol {name!r} of arity {arity} is not a distance symbol of the set")
    ranks: dict[tuple[str, str], int] = {}
    relations = A.relations
    for r, name in enumerate(S._symbols):
        ts = relations.get(name, ())
        faults = []
        for t in ts:
            u, v = t
            if u == v:
                faults.append((t, f"loop in {name!r}"))
            elif (v, u) not in ts:
                faults.append((t, f"one-way distance tuple {t!r}"))
            elif u < v and ranks.setdefault(t, r) != r:
                faults.append((t, f"two distances on pair {t!r}"))
        if faults:
            # whether a tuple fails depends on the earlier symbols only, not
            # on the order the set gives, so the least one is named
            raise StructureError(min(faults)[1])
    return ranks


# ---------------------------------------------------------------------------
# completion


@frozen
class NonMetricCertificate:
    """A violated pair with the short walk beating its recorded distance."""

    pair: tuple[str, str]
    recorded: Fraction
    shortest: Fraction
    walk: tuple[str, ...]

    def cycle_distances(self, G: "SGraph") -> tuple[Fraction, ...]:
        edges = [G.get(self.walk[i], self.walk[i + 1]) for i in range(len(self.walk) - 1)]
        return tuple(edges) + (self.recorded,)


@frozen
class MetricCompletionResult:
    status: str  # "completed" | "no-completion"
    space: Optional[SGraph]
    certificate: Optional[NonMetricCertificate]

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def complete_metric_graph(G: SGraph, S: DistanceSet) -> MetricCompletionResult:
    """All-pairs minimal fold-length completion.

    Succeeds iff G can be completed to a metric space with distances in S;
    the output is then the pointwise-least completion.  Pairs joined by no
    walk are set to max(S).  G's distances become a pair vector over its
    sorted vertices, which ``complete_ranks`` completes.
    """
    _require_four_values(S)
    if not G.values() <= S.distances:
        raise PreconditionError("graph uses distances outside the set")
    vals, verts = S._values, G.vertices
    n = len(verts)
    closed, violation = complete_ranks(n, _states(G, S), S._oplus_rank)
    if violation is not None:
        i, j, recorded, shortest, walk, _ = violation
        return MetricCompletionResult(
            "no-completion",
            None,
            NonMetricCertificate(
                (verts[i], verts[j]), vals[recorded], vals[shortest],
                tuple(verts[w] for w in walk),
            ),
        )
    out = {
        (verts[i], verts[j]): vals[closed[i][j]]
        for i, j in itertools.combinations(range(n), 2)
    }
    return MetricCompletionResult("completed", SGraph(verts, out), None)


def complete_ranks(
    n: int, states: Sequence[int], table: Sequence[Sequence[int]]
) -> tuple[Optional[list[list[int]]], Optional[tuple]]:
    """Metric completion on a pair vector of distance ranks: the kernel.

    ``states`` holds one entry per pair i < j of 0..n-1, in
    ``itertools.combinations`` order: 0 for a pair without a distance,
    r + 1 for the distance of rank r in the sorted distance set; ``table``
    is the truncated addition on ranks.  Floyd-Warshall on ranks: truncated
    addition maps S x S into S and ranks keep the order, so every
    comparison, the walk and the certificate are as they would be on the
    distances themselves.

    Returns ``(closed, None)`` with ``closed`` the n x n rank matrix of the
    pointwise-least completion (pairs joined by no walk at the top rank,
    None on the diagonal), or ``(None, (i, j, recorded, shortest, walk,
    edges))`` for the first pair i < j, in index order, whose recorded rank
    exceeds the fold of a walk: the walk's rank, its vertices from i to j
    with loops cut, and the recorded ranks of its edges.
    """
    d: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    nxt: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for (i, j), s in zip(pairs, states):
        if s:
            d[i][j] = d[j][i] = s - 1
            nxt[i][j], nxt[j][i] = j, i
    dist = [list(row) for row in d]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is None or i == k:
                continue
            di = dist[i]
            row = table[dik]
            for j in range(i + 1, n):
                if j == k:
                    continue
                dkj = dk[j]
                if dkj is None:
                    continue
                cand = row[dkj]
                if di[j] is None or cand < di[j]:
                    di[j] = cand
                    dist[j][i] = cand
                    nxt[i][j] = nxt[i][k]
                    nxt[j][i] = nxt[j][k]
    # the recorded distances must be the minima
    for (i, j), s in zip(pairs, states):
        if s and dist[i][j] < s - 1:
            walk = tuple(_cut_loops(_reconstruct(nxt, i, j)))
            edges = tuple(d[a][b] for a, b in zip(walk, walk[1:]))
            return None, (i, j, s - 1, dist[i][j], walk, edges)
    top = len(table) - 1
    for i, j in pairs:
        if dist[i][j] is None:
            dist[i][j] = dist[j][i] = top
    return dist, None


def _reconstruct(nxt, i: int, j: int) -> list[int]:
    path = [i]
    while i != j:
        i = nxt[i][j]
        path.append(i)
    return path


def _cut_loops(walk: Sequence) -> list:
    seen: dict = {}
    out: list = []
    for v in walk:
        if v in seen:
            out = out[: seen[v] + 1]
            seen = {w: i for i, w in enumerate(out)}
        else:
            out.append(v)
            seen[v] = len(out) - 1
    return out


# ---------------------------------------------------------------------------
# non-metric cycles and unimportant paths


def fold_violates(S: DistanceSet, distances: Sequence) -> bool:
    """Does the last distance exceed the fold of the others (non-metric cycle)?"""
    if len(distances) < 3:
        raise PreconditionError("cycles have at least three edges")
    *path, long_edge = _ranks(S, distances)
    return long_edge > _fold(S, path)[-1]


@frozen
class UnimportantReduction:
    segments: tuple[tuple[int, int], ...]  # index ranges of dropped path edges
    reduced: tuple[Fraction, ...]  # reduced cycle, long edge last


def unimportant_paths(distances: Sequence, S: DistanceSet) -> UnimportantReduction:
    """Collapse maximal fold-stalling runs of a non-metric cycle.

    ``distances`` lists the cycle's edges; the edge violating the fold of the
    remaining path is rotated to the last position (it is the unique maximal
    edge).  The reduced cycle is still non-metric and has at most 2|S|
    vertices.
    """
    if len(distances) < 3:
        raise PreconditionError("cycles have at least three edges")
    ds = _ranks(S, distances)
    long_edge = max(ds)
    i = ds.index(long_edge)
    ds = ds[i + 1 :] + ds[:i]  # path in cyclic order
    folds = _fold(S, ds)
    values = S._values
    if not long_edge > folds[-1]:
        # already metric: nothing to reduce
        return UnimportantReduction((), tuple(values[r] for r in ds + [long_edge]))
    # edge k (k>=1) stalls when folds[k] == folds[k-1]
    keep = {0} | {k for k in range(1, len(ds)) if folds[k] != folds[k - 1]}
    if keep == {0}:
        keep.add(1)  # one stalled edge kept, so the reduction is a triangle
    runs = itertools.groupby(range(1, len(ds)), lambda k: k not in keep)
    dropped = [list(run) for is_dropped, run in runs if is_dropped]
    segments = [(run[0], run[-1]) for run in dropped]
    kept = [ds[k] for k in sorted(keep)]
    if not long_edge > _fold(S, kept)[-1]:
        raise StructureError("reduction lost the violation")
    return UnimportantReduction(tuple(segments), tuple(values[r] for r in kept + [long_edge]))


@frozen
class CycleCertificate:
    """A non-metric cycle: vertices (when drawn from a graph) and the cyclic
    distance list with the violated edge last."""

    distances: tuple[Fraction, ...]
    vertices: Optional[tuple[str, ...]]

    def verify(self, S: DistanceSet) -> bool:
        return fold_violates(S, self.distances)


def non_metric_cycle_scan(G: SGraph, S: DistanceSet) -> Optional[CycleCertificate]:
    """Find a witness cycle when G is not metrisable over S.

    Jump-free sets yield cycles with at most |S|+1 vertices directly; with
    jumps the unimportant-path reduction trims the certificate to at most
    2|S| vertices.
    """
    result = complete_metric_graph(G, S)
    if result.completed:
        return None
    cert = result.certificate
    cycle_vertices = tuple(cert.walk)
    distances = cert.cycle_distances(G)
    bound = (len(S) + 1) if not jump_numbers(S) else 2 * len(S)
    if len(distances) <= bound:
        return CycleCertificate(distances, cycle_vertices)
    reduction = unimportant_paths(distances, S)
    return CycleCertificate(reduction.reduced, None)


# ---------------------------------------------------------------------------
# amalgamation


def strong_amalgam_metric(B1: SGraph, B2: SGraph, A: SGraph, S: DistanceSet) -> SGraph:
    """Strong amalgamation of two metric spaces agreeing on A.

    Free superposition followed by minimal fold-length completion; cross
    pairs joined by no walk get max(S).
    """
    if set(B1.vertices) & set(B2.vertices) != set(A.vertices):
        raise PreconditionError("overlap of the sides must be exactly A")
    for side in (B1, B2):
        if side.induced(A.vertices) != A:
            raise PreconditionError("sides must agree with A on the overlap")
        if not side.is_metric(S):
            raise PreconditionError("amalgamation sides must be metric spaces")
    union = dict(B1.dist)
    union.update(B2.dist)
    G = SGraph(set(B1.vertices) | set(B2.vertices), union)
    result = complete_metric_graph(G, S)
    if not result.completed:
        raise StructureError("strong amalgamation failed on metric inputs")
    return result.space


# ---------------------------------------------------------------------------
# block equivalences and convex lifts


def block_equivalence(A: SGraph, S: DistanceSet, j) -> tuple[frozenset[str], ...]:
    """Classes of the walk-connectivity relation over distances <= max(B_j),
    ordered by their least vertex."""
    bound = block_of(S, _coerce(j)).max
    close = [p for p, q in A.dist.items() if q <= bound]
    edges = close + [(v, u) for u, v in close]
    return tuple(connected_components(Structure(GAIFMAN_LANGUAGE, A.vertices, {"E": edges})))


@frozen
class ConvexLift:
    """A convexly ordered metric space with explicit class-closure vertices.

    Per jump number j, every block-equivalence class gets a fresh vertex
    marked E_j and linked from each member by a U_j pair; closure vertices
    come after the originals in the extended order.
    """

    base: SGraph
    S: DistanceSet
    order: tuple[str, ...]
    closure_vertices: tuple[tuple[Fraction, tuple[tuple[frozenset, str], ...]], ...]
    extended_order: tuple[str, ...]

    def shadow(self) -> SGraph:
        return self.base

    def language(self) -> Language:
        from .rsf import format_rational

        symbols = list(metric_language(self.S).symbols)
        for j, _ in self.closure_vertices:
            name = format_rational(j)
            symbols.append((f"E:{name}", 1))
            symbols.append((f"U:{name}", 2))
        symbols.append(("leq", 2))
        return Language(tuple(symbols), "leq")

    def as_structure(self) -> Structure:
        from .build import linear_order_tuples
        from .rsf import format_rational

        lang = self.language()
        rels: dict[str, list] = {name: [] for name, _ in lang.symbols}
        for (u, v), q in self.base.dist.items():
            name = f"d:{format_rational(q)}"
            rels[name].append((u, v))
            rels[name].append((v, u))
        for j, classes in self.closure_vertices:
            jname = format_rational(j)
            for cls, cv in classes:
                rels[f"E:{jname}"].append((cv,))
                for v in sorted(cls):
                    rels[f"U:{jname}"].append((v, cv))
        rels["leq"] = linear_order_tuples(self.extended_order)
        return Structure(lang, self.extended_order, rels)

    def closure_description(self):
        """Single-vertex ordered roots, one entry per jump number."""
        from .closures import closure_description
        from .rsf import format_rational

        lang = self.language()
        entries = []
        for j, _ in self.closure_vertices:
            root = Structure(lang, ["1"], {"leq": [("1", "1")]})
            entries.append((f"U:{format_rational(j)}", root))
        return closure_description(*entries)


def convex_lift(A: SGraph, S: DistanceSet, order: Sequence[str]) -> ConvexLift:
    """Build the closure-vertex lift of a convexly ordered metric space."""
    order = tuple(order)
    if sorted(order) != list(A.vertices):
        raise PreconditionError("order must enumerate exactly the space's vertices")
    if A.vertices and not A.is_metric(S):
        raise PreconditionError("convex lifts require a total metric space")
    pos = {v: i for i, v in enumerate(order)}
    jumps = sorted(jump_numbers(S))
    closure: list = []
    counter = 0
    extended = list(order)
    from .rsf import format_rational

    for j in jumps:
        classes = block_equivalence(A, S, j)
        for cls in classes:
            idxs = sorted(pos[v] for v in cls)
            if idxs != list(range(idxs[0], idxs[-1] + 1)):
                raise PreconditionError(
                    f"order is not convex for the {j} block class {sorted(cls)}"
                )
        ordered_classes = sorted(classes, key=lambda c: min(pos[v] for v in c))
        out = []
        for cls in ordered_classes:
            cv = f"cl:{format_rational(j)}:{counter}"
            counter += 1
            out.append((cls, cv))
            extended.append(cv)
        closure.append((j, tuple(out)))
    return ConvexLift(A, S, order, tuple(closure), tuple(extended))
