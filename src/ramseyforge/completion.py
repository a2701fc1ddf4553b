"""Completion and strong completion relative to pluggable structure classes.

A plugin owns a class of finite irreducible structures: it decides
membership, attempts strong completions with re-checkable obstacle
certificates, and enumerates its pattern class (structures that could embed
into the ambient irreducible class) for obstacle search, local-finiteness
probing and the completion-iff-strong-completion equivalence check.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ._record import frozen
from . import metric as metric_mod
from .build import POSET, ORDERED_GRAPH, linear_order_tuples
from .errors import PreconditionError, StructureError
from .metric import DistanceSet
from .pieces import forb_membership
from .structures import (
    Language,
    Morphism,
    Structure,
    _bits,
    _vertex_masks,
    canonical_key,
    is_irreducible,
    linear_order,
    search_morphisms,
)


# ---------------------------------------------------------------------------
# results and certificates


@frozen
class ObstacleCertificate:
    """A re-checkable reason a structure admits no strong completion.

    ``present``/``absent`` list tuple membership facts in the examined
    structure; ``holds`` re-checks them.  ``extra`` carries kind-specific
    data such as the distances of a non-metric cycle.
    """

    kind: str
    vertices: tuple[str, ...]
    present: tuple[tuple[str, tuple[str, ...]], ...] = ()
    absent: tuple[tuple[str, tuple[str, ...]], ...] = ()
    note: str = ""
    extra: tuple[tuple[str, str], ...] = ()

    def holds(self, A: Structure) -> bool:
        try:
            for sym, t in self.present:
                if t not in A.tuples(sym):
                    return False
            for sym, t in self.absent:
                if t in A.tuples(sym):
                    return False
        except StructureError:
            return False
        return True

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "present": [[sym, list(t)] for sym, t in self.present],
            "absent": [[sym, list(t)] for sym, t in self.absent],
            "note": self.note,
            "extra": dict(self.extra),
        }


@frozen
class CompletionResult:
    status: str  # "completed" | "no-completion"
    completed: Optional[Structure] = None
    certificate: Optional[ObstacleCertificate] = None

    def __post_init__(self):
        if (self.status == "completed") != (self.completed is not None):
            raise StructureError("completed results carry exactly a structure")
        if (self.status == "no-completion") != (self.certificate is not None):
            raise StructureError("failures carry exactly a certificate")

    @property
    def ok(self) -> bool:
        return self.status == "completed"


def _fail(kind, vertices, present=(), absent=(), note="", extra=()) -> CompletionResult:
    """A strong completion that fails, with its certificate."""
    return CompletionResult(
        "no-completion",
        certificate=ObstacleCertificate(
            kind, tuple(vertices), tuple(present), tuple(absent), note, tuple(extra)
        ),
    )


def is_completion(C: Structure, C_prime: Structure, strong: bool) -> bool:
    """Does C_prime complete C: irreducible plus a (one-to-one when strong)
    homomorphism-embedding C -> C_prime, decided by search."""
    if not is_irreducible(C_prime):
        return False
    for _ in search_morphisms(
        C, C_prime, "homomorphism-embedding", require_injective=strong
    ):
        return True
    return False


def holes(A: Structure) -> list[tuple[str, str]]:
    """Pairs of distinct vertices sharing no tuple."""
    opened = _vertex_masks(A)[1]
    return [
        (u, v) for (i, u), (j, v) in itertools.combinations(enumerate(A.vertices), 2)
        if not opened[i] >> j & 1
    ]


# ---------------------------------------------------------------------------
# plugin protocol


class ClassPlugin:
    """A pluggable class of finite irreducible structures.

    Patterns are described pair by pair: a pattern on k vertices is a
    vector of pair states, one for each pair (i, j) with i < j in
    ``itertools.combinations`` order, and ``pair_flip[s]`` is the state the
    pair shows when read the other way round.  A plugin supplies the flip
    table and ``_pattern(k, states)``, which builds the structure.

    Its other hooks are ``membership``, ``_read``, ``_decide``,
    ``_completed`` and ``_refute``; strong completion, the pattern loops,
    quotients and probes are built on these here, once for every plugin.

    A structure is read once, by ``_read(A)``: it raises
    ``PreconditionError`` outside the plugin's language and returns
    ``(states, None)``, the pair vector over the sorted vertices, or
    ``(None, failure)`` when a screen finds A malformed (a missing loop, a
    pair ordered both ways, a one-way tuple, two distances on a pair).
    ``_decide(verts, states)`` decides strong completion, ``(None, data)``
    or ``(kind, data)`` in vertex indices 0..k-1; ``try_strong_completion``
    turns its verdict into a completed structure, by ``_completed(verts,
    data)``, or a certificate, by ``_refute(A, kind, data)``, while the
    pattern loops read verdicts only, so the data need not be a structure
    (the ordered-graph kernel returns edge bitmasks and a linear order).

    A vector that passes the screen, like every pattern, describes the
    structure fully, its vertices all alike (the same loops and unary
    facts), state 0 the hole, the pair sharing no tuple.  A partition then
    collapses it by a homomorphism-embedding iff every pair inside a block
    is a hole and two blocks show one state besides holes; the quotient's
    vector is read off the blocks (``_quotients``), one ``_decide`` each,
    and only the answer is built.  A screen fault sits on one vertex or
    pair, which such a collapse maps onto one vertex or pair and reflects,
    so a structure that fails the screen has no completion.
    """

    name: str
    language: Language
    pair_flip: tuple[int, ...]

    def membership(self, A: Structure) -> bool:
        raise NotImplementedError

    def try_strong_completion(self, A: Structure) -> CompletionResult:
        """Strong completion of A: a screen fault as ``_read`` gives it, else
        the kernel's completion or the plugin's certificate."""
        states, fault = self._read(A)
        if fault is not None:
            return fault
        kind, data = self._decide(A.vertices, states)
        if kind is None:
            return CompletionResult("completed", completed=self._completed(A.vertices, data))
        return self._refute(A, kind, data)

    def _read(self, A: Structure) -> tuple:
        raise NotImplementedError

    def _decide(self, verts: Sequence[str], states: Sequence[int]) -> tuple:
        raise NotImplementedError

    def _completed(self, verts: Sequence[str], data) -> Structure:
        raise NotImplementedError

    def _refute(self, A: Structure, kind: str, data) -> CompletionResult:
        raise NotImplementedError

    def _pattern(self, k: int, states: Sequence[int]) -> Structure:
        raise NotImplementedError

    def patterns(self, k: int) -> Iterator[Structure]:
        """All candidate structures on k vertices, up to isomorphism, drawn
        from the plugin's pattern class (structures admitting a completion
        into the ambient irreducible class)."""
        flip = self.pair_flip
        for states in _canonical_pair_vectors(k, len(flip), flip):
            yield self._pattern(k, states)

    # -- shared machinery ---------------------------------------------------

    def patterns_up_to(self, n: int) -> Iterator[Structure]:
        for k in range(1, n + 1):
            yield from self.patterns(k)

    def obstacles_up_to(self, n: int) -> list[Structure]:
        """Minimal structures with no strong completion, at most n vertices.

        Assumes that completability is hereditary (an induced substructure
        of a structure that strongly completes strongly completes too) and
        invariant under isomorphism.  Then a pattern is minimal when every
        part that drops one vertex completes, and a pattern with a failing
        part fails; ``_hereditary_walk`` reads each part's verdict off the
        previous size.  Only vectors whose parts all complete go to the
        completion kernel; the structures of those that fail are built, and
        they are the obstacles.
        """
        out = []

        def fails(verts: list[str], vec: tuple[int, ...], part_fails: bool) -> bool:
            if part_fails:
                return True
            if self._decide(verts, vec)[0] is None:
                return False
            out.append(self._pattern(len(verts), vec))
            return True

        _hereditary_walk(self, n, fails)
        out.sort(key=canonical_key)
        return out


def _hereditary_walk(plugin: ClassPlugin, n: int, fails) -> None:
    """Walk the plugin's canonical pair vectors on 1..n vertices, size by
    size, for a hereditary property that fails on the empty structure iff
    the kernel fails it.

    ``fails(verts, vec, part_fails)`` judges each vector and returns whether
    it fails; ``part_fails`` says whether some part that drops one vertex
    failed.  Dropping a vertex from a pair vector is a fixed index selection
    (``_part_positions``) that gives the part's vector on the previous
    size; the failing vectors of that size are kept with all their images
    under vertex permutations, so each part's verdict is one set lookup.
    """
    if n < 0:
        raise PreconditionError(f"the pattern size cap must be at least 0, not {n}")
    flip = plugin.pair_flip
    failing: set[tuple[int, ...]] = set() if plugin._decide((), ())[0] is None else {()}
    for k in range(1, n + 1):
        verts = _pattern_vertices(k)
        drops = _part_positions(k, k - 1)
        # nothing reads the failing vectors of the last size
        reads = _pair_perm_reads(k, flip) if k < n else None
        failing_k: set[tuple[int, ...]] = set()
        for vec in _canonical_pair_vectors(k, len(flip), flip):
            part_fails = any(tuple([vec[p] for p in drop]) in failing for drop in drops)
            if fails(verts, vec, part_fails) and reads is not None:
                failing_k.add(vec)
                failing_k.update(
                    tuple([table[vec[p]] for p, table in read]) for read in reads
                )
        failing = failing_k


def _pattern_vertices(k: int) -> list[str]:
    return [f"v{i}" for i in range(k)]


def _pair_perm_reads(
    k: int, flip: Sequence[int]
) -> list[tuple[tuple[int, Sequence[int]], ...]]:
    """How each non-identity vertex permutation reads a pair vector.

    Row ``read`` of permutation sigma has one entry ``(p, table)`` per
    pair position q: the image vector takes ``table[vec[p]]`` at q, where p
    is the pair that sigma carries onto pair q, and ``table`` is ``flip``
    when sigma reverses it.
    """
    pairs = list(itertools.combinations(range(k), 2))
    index = {pair: q for q, pair in enumerate(pairs)}
    same = tuple(range(len(flip)))
    flip = tuple(flip)
    reads = []
    for sigma in itertools.permutations(range(k)):
        if sigma == tuple(range(k)):
            continue
        read: list = [None] * len(pairs)
        for p, (i, j) in enumerate(pairs):
            a, b = sigma[i], sigma[j]
            if a < b:
                read[index[(a, b)]] = (p, same)
            else:
                read[index[(b, a)]] = (p, flip)
        reads.append(tuple(read))
    return reads


def _part_positions(k: int, size: int) -> list[tuple[int, ...]]:
    """Per part of ``size`` of the vertices 0..k-1, in combinations order,
    the positions of its pairs: selecting them from a vector on k vertices
    gives the part's vector, relabelled in order."""
    index = {pair: p for p, pair in enumerate(itertools.combinations(range(k), 2))}
    return [
        tuple([index[pair] for pair in itertools.combinations(part, 2)])
        for part in itertools.combinations(range(k), size)
    ]


def _canonical_pair_vectors(
    k: int, num_states: int, flip: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Pair-state vectors on k vertices, canonical under vertex permutation.

    A state describes one unordered pair; ``flip[s]`` is the state seen when
    the pair's orientation reverses.  Only lexicographically minimal vectors
    are yielded, in lexicographic order, so the output is duplicate-free up
    to isomorphism.

    Orderly generation (Read 1978; McKay 1998): positions are filled depth
    first, states ascending.  Each non-identity permutation compares its
    image with the vector from its first undecided position on, as soon as
    both that position and the position it reads are set.  A smaller image
    prunes the prefix, since every extension keeps that smaller image; a
    larger one retires the permutation for the subtree; an equal one steps
    on.  A permutation waits in the bucket of the position whose setting
    makes its next comparison possible.
    """
    npairs = k * (k - 1) // 2
    if npairs == 0:
        yield ()
        return
    # a permutation: (read, ready) where ready[q] = max(q, position read at q)
    perms = []
    for read in _pair_perm_reads(k, flip):
        ready = tuple(max(q, p) for q, (p, _) in enumerate(read))
        perms.append((read, ready))
    waiting: list[list[tuple[tuple, int]]] = [[] for _ in range(npairs)]
    for perm in perms:
        waiting[perm[1][0]].append((perm, 0))
    vec = [0] * npairs
    states = range(num_states)

    def extend(m: int) -> Iterator[tuple[int, ...]]:
        last = m == npairs - 1
        for s in states:
            vec[m] = s
            moved = []
            pruned = False
            for perm, q in waiting[m]:
                read, ready = perm
                while True:
                    p, table = read[q]
                    diff = table[vec[p]] - vec[q]
                    if diff:
                        break
                    q += 1
                    if q == npairs:
                        break
                    if ready[q] > m:
                        waiting[ready[q]].append((perm, q))
                        moved.append(ready[q])
                        break
                if diff < 0:
                    pruned = True
                    break
            if not pruned:
                if last:
                    yield tuple(vec)
                else:
                    yield from extend(m + 1)
            for pos in moved:
                waiting[pos].pop()

    try:
        yield from extend(0)
    finally:
        # extend reaches itself through its closure cell; emptying the cell
        # frees the search state without a cycle collection
        del extend


# ---------------------------------------------------------------------------
# oriented pair states, shared by posets and ordered graphs

# 0 hole, 1/2 ordered one way, 3/4 ordered one way plus a second relation;
# the odd state orders the pair's first vertex below its second.
_ORIENTED_FLIP = (0, 2, 1, 4, 3)


def _oriented_pairs(
    verts: Sequence[str], states: Sequence[int]
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """The strict order pairs and the second relation's pairs (oriented
    like the order) of an oriented pair-state vector."""
    order, second = [], []
    for (u, v), s in zip(itertools.combinations(verts, 2), states):
        if s == 0:
            continue
        a, b = (u, v) if s in (1, 3) else (v, u)
        order.append((a, b))
        if s in (3, 4):
            second.append((a, b))
    return order, second


def _oriented_masks(k: int, states: Sequence[int]) -> tuple[list[int], list[int]]:
    """Successor bitmasks over vertex indices 0..k-1: bit b of ``order[a]``
    says a is ordered below b, bit b of ``second[a]`` that the pair also
    carries the second relation, oriented like the order."""
    order, second = [0] * k, [0] * k
    for (i, j), s in zip(itertools.combinations(range(k), 2), states):
        if s:
            a, b = (i, j) if s & 1 else (j, i)
            order[a] |= 1 << b
            if s > 2:
                second[a] |= 1 << b
    return order, second


# ---------------------------------------------------------------------------
# digraphs on vertex indices, as successor bitmasks


def _mask_toposort(succ: Sequence[int]) -> Optional[list[int]]:
    """Stable topological order, ties broken by index: the least vertex
    whose predecessors are all placed goes next.  None on a cycle; loops
    are ignored."""
    n = len(succ)
    pred = [0] * n
    for u in range(n):
        for w in _bits(succ[u] & ~(1 << u)):
            pred[w] |= 1 << u
    order = []
    placed = 0
    for _ in range(n):
        for v in range(n):
            if not placed >> v & 1 and not pred[v] & ~placed:
                break
        else:
            return None
        order.append(v)
        placed |= 1 << v
    return order


def _mask_clique(adj: Sequence[int], size: int) -> bool:
    """Does the undirected graph with neighbour bitmasks ``adj`` have a
    clique of ``size`` vertices?  Vertices join in index order, each drawn
    from the common neighbours of those already taken."""

    def grow(cand: int, need: int) -> bool:
        if not need:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grow(cand & adj[low.bit_length() - 1], need - 1):
                return True
        return False

    try:
        return grow((1 << len(adj)) - 1, size)
    finally:
        del grow  # unlink the recursive closure (see _canonical_pair_vectors)


def _mask_cycle(succ: Sequence[int]) -> Optional[list[int]]:
    """A directed cycle, its first vertex repeated at the end, or None.

    Depth-first search from each unvisited vertex in index order, trying
    successors in index order; the first edge back into the current path
    closes the cycle.  Loops are ignored.
    """
    n = len(succ)
    state = [0] * n
    path: list[int] = []

    def dfs(u: int) -> Optional[list[int]]:
        state[u] = 1
        path.append(u)
        for w in _bits(succ[u] & ~(1 << u)):
            if state[w] == 1:
                return path[path.index(w):] + [w]
            if state[w] == 0:
                found = dfs(w)
                if found:
                    return found
        path.pop()
        state[u] = 2
        return None

    try:
        for v in range(n):
            if state[v] == 0:
                found = dfs(v)
                if found:
                    return found
        return None
    finally:
        del dfs  # unlink the recursive closure (see _canonical_pair_vectors)


# ---------------------------------------------------------------------------
# partial orders with linear extension


@frozen
class QuasiCycle:
    """Vertices u1..un with consecutive pairs in both relations and the
    closing pair in the order only."""

    vertices: tuple[str, ...]

    def holds(self, A: Structure) -> bool:
        vs = self.vertices
        if len(vs) < 3 or len(set(vs)) != len(vs):
            return False
        leq, prec = A.tuples("leq"), A.tuples("prec")
        if (vs[0], vs[-1]) not in leq or (vs[0], vs[-1]) in prec:
            return False
        return all(
            (vs[i], vs[i + 1]) in leq and (vs[i], vs[i + 1]) in prec
            for i in range(len(vs) - 1)
        )


def quasi_cycle_scan(A: Structure) -> Optional[QuasiCycle]:
    """Find a quasi-cycle as a not-necessarily-induced substructure."""
    leq, prec = A.tuples("leq"), A.tuples("prec")
    chain_edges: dict[str, list[str]] = {v: [] for v in A.vertices}
    for (u, v) in sorted(prec):
        if u != v and (u, v) in leq:
            chain_edges[u].append(v)
    for (a, b) in sorted(leq):
        if a == b or (a, b) in prec:
            continue
        # shortest simple prec-and-leq path from a to b
        parent = {a: None}
        queue = [a]
        while queue:
            u = queue.pop(0)
            if u == b:
                break
            for w in chain_edges[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        if b in parent:
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return QuasiCycle(tuple(path))
    return None


class PosetPlugin(ClassPlugin):
    """Partial orders (prec) with a linear extension (leq).

    Both relations are stored reflexively.  Strong completion: transitive
    closure of prec, then a linear extension by stable topological sort,
    ties broken by vertex token.
    """

    name = "posets"
    language = POSET
    pair_flip = _ORIENTED_FLIP

    def membership(self, A: Structure) -> bool:
        if A.language != self.language:
            return False
        # prec inside the linear leq is antisymmetric
        prec = A.tuples("prec")
        if linear_order(A) is None or not prec <= A.tuples("leq"):
            return False
        if any((v, v) not in prec for v in A.vertices):
            return False
        above = {v: set() for v in A.vertices}
        for a, b in prec:
            above[a].add(b)
        return all(above[b] <= above[a] for a, b in prec)

    def _read(self, A: Structure) -> tuple:
        _check_language(A, self)
        leq, prec = A.tuples("leq"), A.tuples("prec")
        vs = A.vertices
        for v in vs:
            for sym in ("prec", "leq"):
                if (v, v) not in A.tuples(sym):
                    return None, _fail(
                        "missing-reflexive", (v,), absent=[(sym, (v, v))],
                        note=f"{sym} misses the reflexive pair",
                    )
        # in the poset language a pair shares a tuple iff prec or leq holds on it
        states = []
        for u, v in itertools.combinations(vs, 2):
            fwd, bwd = (u, v) in leq, (v, u) in leq
            if fwd and bwd:
                return None, _fail(
                    "order-antisymmetry", (u, v),
                    present=[("leq", (u, v)), ("leq", (v, u))],
                )
            up, down = (u, v) in prec, (v, u) in prec
            if up and down:
                return None, _fail(
                    "prec-antisymmetry", (u, v),
                    present=[("prec", (u, v)), ("prec", (v, u))],
                )
            if (up or down) and not (fwd or bwd):
                return None, _fail(
                    "unordered-pair", (u, v),
                    absent=[("leq", (u, v)), ("leq", (v, u))],
                    note="pair shares a tuple but has no orientation",
                )
            if fwd and down or bwd and up:
                a, b = (u, v) if fwd else (v, u)
                return None, _fail(
                    "prec-against-order", (a, b),
                    present=[("leq", (a, b)), ("prec", (b, a))],
                )
            # prec now implies leq the same way
            states.append(3 if up else 1 if fwd else 4 if down else 2 if bwd else 0)
        return states, None

    def _refute(self, A: Structure, kind: str, data) -> CompletionResult:
        vs = A.vertices
        if kind == "frozen-prec-gap":
            qc = quasi_cycle_scan(A)
            if qc is not None:
                return _fail(
                    "quasi-cycle", qc.vertices,
                    present=[("leq", (qc.vertices[0], qc.vertices[-1]))],
                    absent=[("prec", (qc.vertices[0], qc.vertices[-1]))],
                    note="prec chain against a frozen pair",
                )
            a, b = vs[data[0]], vs[data[1]]
            return _fail(
                "frozen-prec-gap", (a, b),
                absent=[("prec", (a, b))],
                note="transitivity forces prec on a frozen pair without it",
            )
        note = {
            "prec-cycle": "prec chain closes on itself",
            "order-cycle": "no linear extension exists",
        }[kind]
        return _fail(kind, tuple(vs[i] for i in data), note=note)

    def _decide(self, verts: Sequence[str], states: Sequence[int]) -> tuple:
        """The poset completion kernel on a pair-state vector (see
        ``ClassPlugin._decide``).

        Transitive closure of the strict prec pairs (Warshall on bitmasks),
        then in turn: a prec cycle, a frozen pair the closure forces into
        prec (data: the least such pair), an order cycle on leq and the
        closure.  Otherwise the data are the closure's successor masks and
        the stable topological order of leq and the closure, ties broken by
        index, which is the completion's linear extension.  The completion
        is checked for membership before it is returned.
        """
        k = len(verts)
        leq, prec = _oriented_masks(k, states)
        closure = prec[:]
        for m in range(k):
            bit, row = 1 << m, closure[m]
            for i in range(k):
                if closure[i] & bit:
                    closure[i] |= row
        if any(closure[i] >> i & 1 for i in range(k)):
            return "prec-cycle", _mask_cycle(closure)
        for a in range(k):
            for b in _bits(closure[a] & ~prec[a]):
                if leq[a] >> b & 1 or leq[b] >> a & 1:
                    return "frozen-prec-gap", (a, b)
        order = [leq[i] | closure[i] for i in range(k)]
        topo = _mask_toposort(order)
        if topo is None:
            return "order-cycle", _mask_cycle(order)
        # membership: leq is the linear order topo, prec is transitive and
        # inside leq (so antisymmetric)
        place = [0] * k
        for r, v in enumerate(topo):
            place[v] = r
        if sorted(topo) != list(range(k)) or any(
            place[b] <= place[a] or closure[b] & ~closure[a]
            for a in range(k) for b in _bits(closure[a])
        ):
            raise StructureError("poset completion produced a non-member")
        return None, (closure, topo)

    def _completed(self, vs: Sequence[str], data) -> Structure:
        closure, topo = data
        final_prec = [(v, v) for v in vs]
        for a, succ in enumerate(closure):
            final_prec.extend((vs[a], vs[b]) for b in _bits(succ))
        leq = linear_order_tuples([vs[i] for i in topo])
        return Structure(POSET, vs, {"prec": final_prec, "leq": leq})

    def _pattern(self, k: int, states: Sequence[int]) -> Structure:
        # pair states: 0 hole, 1/2 order one way, 3/4 order plus prec
        verts = _pattern_vertices(k)
        leq, prec = _oriented_pairs(verts, states)
        diag = [(v, v) for v in verts]
        return Structure(POSET, verts, {"leq": diag + leq, "prec": diag + prec})


# ---------------------------------------------------------------------------
# S-metric spaces


class MetricPlugin(ClassPlugin):
    """Metric spaces over a fixed finite distance set with 4-values."""

    def __init__(self, S: DistanceSet):
        metric_mod._require_four_values(S)
        self.S = S
        self.language = metric_mod.metric_language(S)
        self.pair_flip = tuple(range(len(S) + 1))
        from .rsf import format_rational

        self.name = "metric:" + ",".join(format_rational(q) for q in S.sorted())

    def membership(self, A: Structure) -> bool:
        try:
            ranks = metric_mod.structure_ranks(A, self.S)
        except StructureError:
            return False
        return metric_mod.metric_ranks(A.vertices, ranks, self.S)

    def _read(self, A: Structure) -> tuple:
        _check_language(A, self)
        try:
            ranks = metric_mod.structure_ranks(A, self.S)
        except StructureError as exc:
            return None, _fail("malformed-distance-graph", A.vertices, note=str(exc))
        return [ranks.get(pair, -1) + 1 for pair in itertools.combinations(A.vertices, 2)], None

    def _refute(self, A: Structure, kind: str, data) -> CompletionResult:
        from .rsf import format_rational

        # the walk's edges, then the recorded pair, by rank
        vs = A.vertices
        i, j, recorded, shortest, walk, edges = data
        names, values = self.S._symbols, self.S._values
        walk = tuple(vs[w] for w in walk)
        cycle = edges + (recorded,)
        pairs = list(zip(walk, walk[1:])) + [(vs[i], vs[j])]
        return _fail(
            "non-metric-cycle", walk, present=[(names[r], p) for r, p in zip(cycle, pairs)],
            note=f"recorded {values[recorded]} exceeds walk length {values[shortest]}",
            extra=(
                ("distances", ",".join(format_rational(values[r]) for r in cycle)),
                ("shortest", format_rational(values[shortest])),
            ),
        )

    def _decide(self, verts: Sequence[str], states: Sequence[int]) -> tuple:
        """The metric completion kernel on a pair-state vector (see
        ``ClassPlugin._decide``): ``metric.complete_ranks``.  The data are
        the completed rank matrix, or ``(i, j, recorded, shortest, walk,
        edges)`` for the violated pair i < j."""
        closed, violation = metric_mod.complete_ranks(len(verts), states, self.S._oplus_rank)
        if violation is not None:
            return "non-metric-cycle", violation
        return None, closed

    def _completed(self, vs: Sequence[str], data) -> Structure:
        states = [data[i][j] + 1 for i, j in itertools.combinations(range(len(vs)), 2)]
        return metric_mod.rank_structure(self.S, vs, states)

    def _pattern(self, k: int, states: Sequence[int]) -> Structure:
        return metric_mod.rank_structure(self.S, _pattern_vertices(k), states)


# ---------------------------------------------------------------------------
# ordered graphs with forbidden embedded irreducibles


class ForbiddenPlugin(ClassPlugin):
    """Ordered graphs avoiding embeddings of given ordered irreducibles.

    Completion fills holes with non-edges and completes the order to a
    linear one (ordered free amalgamation style); the family is assumed to
    be closed under re-ordering, so any linear extension is as good as any
    other.
    """

    language = ORDERED_GRAPH
    pair_flip = _ORIENTED_FLIP

    def __init__(self, forbidden: Sequence[Structure], name: str = "forbidden"):
        self.forbidden = tuple(forbidden)
        for F in self.forbidden:
            if F.language != ORDERED_GRAPH:
                raise PreconditionError("forbidden members must be ordered graphs")
            if not is_irreducible(F.replace({"leq": ()})):
                raise PreconditionError(
                    "forbidden members must be irreducible without order"
                )
        # the clique size every embedded member's image contains
        self._clique_size = min((len(F.vertices) for F in self.forbidden), default=None)
        self.name = name

    def membership(self, A: Structure) -> bool:
        if A.language != self.language or linear_order(A) is None:
            return False
        edges = A.tuples("E")
        for (u, v) in edges:
            if u == v or (v, u) not in edges:
                return False
        return forb_membership(A, self.forbidden, "embedding").member

    def _read(self, A: Structure) -> tuple:
        _check_language(A, self)
        leq, edges = A.tuples("leq"), A.tuples("E")
        vs = A.vertices
        for v in vs:
            if (v, v) in edges:
                return None, _fail("edge-loop", (v,), present=[("E", (v, v))])
            if (v, v) not in leq:
                return None, _fail("missing-reflexive", (v,), absent=[("leq", (v, v))])
        # in the ordered-graph language a pair shares a tuple iff E or leq holds on it
        states = []
        for u, v in itertools.combinations(vs, 2):
            fwd, bwd = (u, v) in leq, (v, u) in leq
            if fwd and bwd:
                return None, _fail(
                    "order-antisymmetry", (u, v),
                    present=[("leq", (u, v)), ("leq", (v, u))],
                )
            there, back = (u, v) in edges, (v, u) in edges
            if (there or back) and not (fwd or bwd):
                return None, _fail(
                    "unordered-pair", (u, v),
                    absent=[("leq", (u, v)), ("leq", (v, u))],
                )
            if there != back:
                a, b = (u, v) if there else (v, u)
                return None, _fail(
                    "one-way-edge", (a, b), present=[("E", (a, b))], absent=[("E", (b, a))]
                )
            states.append((3 if there else 1) if fwd else (4 if there else 2) if bwd else 0)
        return states, None

    def _refute(self, A: Structure, kind: str, data) -> CompletionResult:
        if kind == "order-cycle":
            return _fail(kind, tuple(A.vertices[i] for i in data))
        m = data.witness
        return _fail(
            "forbidden-member", sorted(m.image_vertices()),
            note=f"embeds a forbidden structure on {len(data.forbidden.vertices)} vertices",
            extra=[("witness:" + src, dst) for src, dst in m.map],
        )

    def _decide(self, verts: Sequence[str], states: Sequence[int]) -> tuple:
        """The ordered-graph completion kernel on a pair-state vector (see
        ``ClassPlugin._decide``).

        An order cycle fails (data: the cycle).  Otherwise holes become
        non-edges and the order becomes its stable topological sort, ties
        broken by index.  Every member is irreducible without its order,
        so an embedded member is an E-clique of its size, and every such
        clique contains one of the smallest member size.  Only when the
        completion has such a clique is its structure built and searched
        for an embedded forbidden member (``pieces.forb_membership``), which
        fails with its report as data.  Otherwise the data are ``(adj,
        topo)``: the completion's symmetric edge bitmasks over vertex
        indices and its linear order; ``_completed`` builds the structure.
        """
        k = len(verts)
        order, edge = _oriented_masks(k, states)
        topo = _mask_toposort(order)
        if topo is None:
            return "order-cycle", _mask_cycle(order)
        adj = edge[:]
        for a in range(k):
            for b in _bits(edge[a]):
                adj[b] |= 1 << a
        if self._clique_size is not None and _mask_clique(adj, self._clique_size):
            report = forb_membership(self._completed(verts, (adj, topo)), self.forbidden, "embedding")
            if not report.member:
                return "forbidden-member", report
        return None, (adj, topo)

    def _completed(self, verts: Sequence[str], data) -> Structure:
        """The ordered graph of edge bitmasks ``adj`` and linear order ``topo``."""
        adj, topo = data
        edges = [(verts[a], verts[b]) for a in range(len(verts)) for b in _bits(adj[a])]
        return Structure(
            ORDERED_GRAPH, verts,
            {"E": edges, "leq": linear_order_tuples([verts[i] for i in topo])},
        )

    def _pattern(self, k: int, states: Sequence[int]) -> Structure:
        # pair states: 0 hole, 1/2 order one way, 3/4 order plus an edge
        verts = _pattern_vertices(k)
        leq, edges = _oriented_pairs(verts, states)
        diag = [(v, v) for v in verts]
        return Structure(
            ORDERED_GRAPH, verts,
            {"leq": diag + leq, "E": edges + [(b, a) for a, b in edges]},
        )


def kfree_plugin(k: int) -> ForbiddenPlugin:
    """Ordered graphs with no embedded ordered K_k."""
    verts = [f"v{i}" for i in range(k)]
    edges = []
    for u, v in itertools.combinations(verts, 2):
        edges.append((u, v))
        edges.append((v, u))
    # every linear order of K_k gives the same ordered graph up to isomorphism
    member = Structure(
        ORDERED_GRAPH, verts, {"E": edges, "leq": linear_order_tuples(verts)}
    )
    return ForbiddenPlugin((member,), name=f"forbidden:K{k}")


def get_plugin(selector: str) -> ClassPlugin:
    """Resolve a plugin selector: posets | metric:<d,d,...> | forbidden:<file>."""
    if selector == "posets":
        return PosetPlugin()
    if selector.startswith("metric:"):
        from .rsf import parse_rational

        vals = [parse_rational(s) for s in selector[len("metric:"):].split(",") if s]
        return MetricPlugin(DistanceSet(vals))
    if selector.startswith("forbidden:"):
        import json
        from pathlib import Path

        from .rsf import obj_to_structure

        path = Path(selector[len("forbidden:"):])
        arr = json.loads(path.read_text(encoding="utf-8"))
        members = []
        for obj in arr:
            A, root = obj_to_structure(obj)
            if root is not None:
                raise PreconditionError("forbidden members carry no roots")
            members.append(A)
        return ForbiddenPlugin(tuple(members), name=f"forbidden:{path.name}")
    raise PreconditionError(f"unknown class selector {selector!r}")


def _check_language(A: Structure, plugin: ClassPlugin) -> None:
    if A.language != plugin.language:
        raise PreconditionError("the structure must live in the plugin's language")


def complete_with(A: Structure, plugin: ClassPlugin) -> CompletionResult:
    """Strong completion of A in the plugin's class (the plugin's ``_read``
    refuses a structure outside its language)."""
    return plugin.try_strong_completion(A)


# ---------------------------------------------------------------------------
# quotients: completions that identify vertices


def quotient_structure(A: Structure, blocks: Sequence[Sequence[str]]) -> tuple[Structure, Morphism]:
    """Image structure of the block-collapsing map (representatives: min
    token); the image of the partition into singletons is A itself."""
    rep = {v: min(b) for b in blocks for v in b}
    Q = A
    if len(blocks) < len(A.vertices):
        rels = {name: [tuple(rep[v] for v in t) for t in ts] for name, ts in A.relations.items()}
        Q = Structure(A.language, sorted(set(rep.values())), rels)
    return Q, Morphism.make(A, Q, rep, "homomorphism-embedding")


def _quotients(vec: Sequence[int], k: int, flip: Sequence[int]) -> Iterator[tuple]:
    """The set partitions of the vertex indices 0..k-1 that collapse the
    pattern with pair vector ``vec`` by a homomorphism-embedding (see
    ``ClassPlugin``), as ``(labels, quotient vector)``, most blocks first:
    the identity first, reading ``vec`` as itself.

    Restricted growth strings (Knuth, TAOCP 4A, 7.2.1.5) grow lazily, per
    block count from k down, ``labels[i]`` the block of vertex i, each
    vertex trying a new block before the earlier ones.  A vertex joins a
    block only over holes, and the first non-hole pair between two blocks
    (read from the lower to the higher) fixes the state that every later
    one must show.  Nothing is pruned on the all-holes vector.
    """
    labels = [0] * k
    cross = [[0] * k for _ in range(k)]
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(k)]  # non-hole pairs j < i
    for (j, i), s in zip(itertools.combinations(range(k), 2), vec):
        if s:
            earlier[i].append((j, s))

    def grow(i: int, opened: int, m: int):
        if i == k:
            yield tuple(labels), [cross[c][b] for c, b in itertools.combinations(range(m), 2)]
            return
        # a new block, then the earlier ones while the vertices after i can
        # still open the blocks missing
        order = [opened] if opened < m else []
        if k - i > m - opened:
            order += range(opened)
        for b in order:
            fixed = []
            for j, s in earlier[i]:
                c = labels[j]
                if c == b:
                    break
                lo, hi, t = (c, b, s) if c < b else (b, c, flip[s])
                if not cross[lo][hi]:
                    cross[lo][hi] = t
                    fixed.append((lo, hi))
                elif cross[lo][hi] != t:
                    break
            else:
                labels[i] = b
                yield from grow(i + 1, max(opened, b + 1), m)
            for lo, hi in fixed:
                cross[lo][hi] = 0

    try:
        for m in range(k, 0, -1) if k else (0,):
            yield from grow(0, 0, m)
    finally:
        del grow  # unlink the recursive closure (see _canonical_pair_vectors)


def _completing_quotient(plugin: ClassPlugin, verts: Sequence[str], vec: Sequence[int]) -> Optional[tuple]:
    """The blocks of the first partition after the identity whose quotient,
    over each block's least token, the kernel completes, with the kernel's
    data, or None.

    Many partitions share a quotient vector, and the kernel's verdict reads
    only the vector, so a vector that failed once is not decided again (its
    length, m(m - 1)/2, fixes the block count m)."""
    failed = set()
    for labels, qvec in itertools.islice(_quotients(vec, len(verts), plugin.pair_flip), 1, None):
        seen = tuple(qvec)
        if seen in failed:
            continue
        blocks: list[list[str]] = [[] for _ in range(max(labels) + 1)]
        for v, b in zip(verts, labels):
            blocks[b].append(v)
        kind, data = plugin._decide([block[0] for block in blocks], qvec)
        if kind is None:
            return blocks, data
        failed.add(seen)
    return None


def try_completion(A: Structure, plugin: ClassPlugin) -> Optional[tuple[Morphism, Structure]]:
    """A completion that may identify vertices: quotient then strong-complete.

    Returns (quotient map, completed structure) for the first partition (in
    most-blocks-first order) whose collapse is a homomorphism-embedding and
    whose image strongly completes; None when no completion exists.

    A is read once and fails with its screen (see ``ClassPlugin``).  The
    identity is decided first; then, on more than three vertices, each part
    of three with its quotients, as a completion restricts to every part
    (and a pair lies in a part of three); then the other partitions, one
    ``_decide`` each.  Only the answer is built, by ``quotient_structure``
    and ``plugin._completed``, as ``try_strong_completion`` would build it.
    """
    states, fault = plugin._read(A)
    if fault is not None:
        return None
    verts = A.vertices
    blocks, (kind, data) = [[v] for v in verts], plugin._decide(verts, states)
    if kind is not None:
        part_verts = _pattern_vertices(3)
        for part in _part_positions(len(verts), 3) if len(verts) > 3 else ():
            sub = [states[p] for p in part]
            if plugin._decide(part_verts, sub)[0] is not None:
                if _completing_quotient(plugin, part_verts, sub) is None:
                    return None
        found = _completing_quotient(plugin, verts, states)
        if found is None:
            return None
        blocks, data = found
    Q, q = quotient_structure(A, blocks)
    return q, plugin._completed(Q.vertices, data)


@frozen
class EquivalenceReport:
    plugin: str
    size_cap: int
    checked: int
    violations: tuple[Structure, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def completion_iff_strong(plugin: ClassPlugin, size_cap: int) -> EquivalenceReport:
    """Exhaustively compare completion and strong completion over the
    plugin's pattern class up to size_cap vertices.

    Both sides are decided on the canonical pair vectors, size by size.
    The strong side is the kernel's verdict; a completion through the
    identity, the first of ``_quotients``, is a strong one, so a kernel
    success is not searched again.  A completion restricts to every
    induced part, so a kernel failure with a failing part fails too
    (``_hereditary_walk``); only the other kernel failures are searched
    through their quotients.  A pattern is built only for a violation.
    """
    checked = 0
    violations = []

    def fails(verts: list[str], vec: tuple[int, ...], part_fails: bool) -> bool:
        nonlocal checked
        checked += 1
        if plugin._decide(verts, vec)[0] is None:
            return False
        if part_fails or _completing_quotient(plugin, verts, vec) is None:
            return True
        violations.append(plugin._pattern(len(verts), vec))
        return False

    _hereditary_walk(plugin, size_cap, fails)
    return EquivalenceReport(plugin.name, size_cap, checked, tuple(violations))


# ---------------------------------------------------------------------------
# local finiteness probing


@frozen
class ProbeReport:
    plugin: str
    n: int
    size_cap: int
    examined: int
    counterexamples: tuple[Structure, ...]
    inconclusive: bool

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _pullback_vectors(c0vec: Sequence[int], m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Pair vectors on k vertices of the patterns with a homomorphism-embedding
    into C0, whose pair vector over its m sorted vertices is ``c0vec``.

    A candidate is a vertex map into C0, taken non-decreasing (harmless up to
    isomorphism), with a set of the pairs it does not glue that copy C0's
    pair: (i, j) takes C0's state at (image[i], image[j]), and a glued pair
    or one left out is a hole.  Maps come in ``combinations_with_replacement``
    order and, per map, the copied sets in bitmask order, bit p the p-th
    unglued pair.
    """
    index = {pair: p for p, pair in enumerate(itertools.combinations(range(m), 2))}
    pairs = list(itertools.combinations(range(k), 2))
    for image in itertools.combinations_with_replacement(range(m), k):
        # the last factor of a product turns fastest, so the pairs go in reversed
        options = [
            (0, c0vec[index[image[i], image[j]]]) if image[i] != image[j] else (0,)
            for i, j in reversed(pairs)
        ]
        for vec in itertools.product(*options):
            yield vec[::-1]


def probe_local_finiteness(
    plugin: ClassPlugin,
    C0: Structure,
    n: int,
    size_cap: int = 7,
    budget: int = 200_000,
) -> ProbeReport:
    """Search for structures violating the local finiteness bound n at C0.

    A counterexample has a homomorphism-embedding to C0, every substructure
    with 1..n vertices strongly completes, yet itself does not.  Candidates
    are the pullback patterns along vertex maps into C0 on n + 1 to
    ``size_cap`` vertices (``_pullback_vectors``), counted in ``examined``;
    the sweep stops, flagged inconclusive, at the candidate past the budget.

    C0 is read once, by ``plugin._read``, and must pass the plugin's screen
    (else ``PreconditionError``, naming the fault's kind).  Each candidate
    is decided on its pair vector by ``plugin._decide``.  Strong completion
    is hereditary (as ``obstacles_up_to`` assumes), and a candidate has more
    than n vertices, so a failing part on fewer than n vertices lies in a
    failing part on exactly n: only those are decided, each one's vector an
    index selection of the candidate's, and each verdict is kept for the
    call.  Only a failing candidate whose parts all complete is built, and
    kept unless isomorphic to one kept before.
    """
    if n < 0:
        raise PreconditionError(f"the local finiteness bound must be at least 0, not {n}")
    c0vec, fault = plugin._read(C0)
    if fault is not None:
        raise PreconditionError(f"C0 fails the plugin's screen: {fault.certificate.kind}")
    part_verts = _pattern_vertices(n)
    part_completes: dict[tuple[int, ...], bool] = {}
    examined = 0
    counterexamples = []
    seen = set()
    for k in range(n + 1, size_cap + 1):
        verts = _pattern_vertices(k)
        # the bound counts parts of one vertex or more, so n = 0 leaves none
        parts = _part_positions(k, n) if n else ()
        for vec in _pullback_vectors(c0vec, len(C0.vertices), k):
            examined += 1
            if examined > budget:
                return ProbeReport(plugin.name, n, size_cap, examined, tuple(counterexamples), True)
            if plugin._decide(verts, vec)[0] is None:
                continue
            for part in parts:
                sub = tuple([vec[p] for p in part])
                ok = part_completes.get(sub)
                if ok is None:
                    ok = part_completes[sub] = plugin._decide(part_verts, sub)[0] is None
                if not ok:
                    break
            else:
                P = plugin._pattern(k, vec)
                key = canonical_key(P)
                if key not in seen:
                    seen.add(key)
                    counterexamples.append(P)
    return ProbeReport(plugin.name, n, size_cap, examined, tuple(counterexamples), False)
