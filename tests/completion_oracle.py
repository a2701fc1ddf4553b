"""Reference strong completion for the three built-in plugins, and the
reference completion-iff-strong-completion check.

These are the bodies ``PosetPlugin``, ``MetricPlugin`` and
``ForbiddenPlugin.try_strong_completion`` had before each plugin decided
strong completion with one kernel on the pattern's pair-state vector:

- posets: transitive closure of prec on vertex-token pairs, a digraph cycle
  search, then a stable topological sort on tokens and the plugin's
  membership test on the completed structure;
- metric: the structure read as an S-graph of ``Fraction`` distances,
  tuples in sorted order (``sgraph_of``), and completed by Floyd-Warshall
  (``pattern_oracle.fraction_completion``);
- forbidden: the order cycle search and topological sort on tokens, then an
  embedding search for the forbidden members in the completed structure.

They are slow and follow the definitions token by token, so the tests
compare the kernels against them: status, certificate (every field) and
completed structure.

``poset_membership`` is ``PosetPlugin.membership`` as it was before it
read the order through ``structures.linear_order``: every axiom of both
relations checked on tokens.

``try_completion`` is the completion search as it was before it decided
quotients on the pair vector: every set partition of the vertices, sorted
most blocks first (``partitions``), is collapsed into a structure, the
collapse is checked with ``verify_morphism`` and the image strongly
completed, until one completes.

``completion_iff_strong`` is the equivalence check as it was before it read
the strong side from the plugin's kernel: every pattern is built, then
strongly completed and searched for a completion with ``try_completion``.

``probe_local_finiteness`` is the local-finiteness probe as it was before
it read C0 once and decided the pullbacks on pair vectors: every pullback
pattern is built as a structure (``_pullback_patterns``) and strongly
completed, and for a failing one, so is every induced substructure on
1..n vertices.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from ramseyforge import metric as metric_mod
from ramseyforge.build import ORDERED_GRAPH, POSET, linear_order_tuples
from ramseyforge.completion import (
    CompletionResult,
    EquivalenceReport,
    ForbiddenPlugin,
    MetricPlugin,
    ObstacleCertificate,
    PosetPlugin,
    ProbeReport,
    quasi_cycle_scan,
    quotient_structure,
)
from ramseyforge.errors import PreconditionError, StructureError
from ramseyforge.rsf import format_rational
from ramseyforge.structures import (
    Morphism,
    Structure,
    canonical_key,
    induced_substructure,
    search_morphisms,
    verify_morphism,
)

from conftest import gaifman_adjacency
import pattern_oracle


def transitive_closure(pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def digraph_cycle(edges: set[tuple[str, str]], verts: Sequence[str]) -> Optional[list[str]]:
    """A vertex cycle in the strict digraph, or None."""
    adj: dict[str, list[str]] = {v: [] for v in verts}
    for (u, v) in sorted(edges):
        if u != v:
            adj[u].append(v)
    state = {v: 0 for v in verts}
    stack_path: list[str] = []

    def dfs(u) -> Optional[list[str]]:
        state[u] = 1
        stack_path.append(u)
        for w in adj[u]:
            if state[w] == 1:
                return stack_path[stack_path.index(w):] + [w]
            if state[w] == 0:
                found = dfs(w)
                if found:
                    return found
        stack_path.pop()
        state[u] = 2
        return None

    for v in sorted(verts):
        if state[v] == 0:
            found = dfs(v)
            if found:
                return found
    return None


def toposort(verts: Sequence[str], edges: set[tuple[str, str]]) -> list[str]:
    """Stable topological order: ties broken by vertex token."""
    preds: dict[str, set[str]] = {v: set() for v in verts}
    for (u, v) in edges:
        if u != v:
            preds[v].add(u)
    out = []
    remaining = set(verts)
    while remaining:
        ready = sorted(v for v in remaining if not (preds[v] & remaining))
        if not ready:
            raise StructureError("cycle while sorting")
        v = ready[0]
        out.append(v)
        remaining.remove(v)
    return out


def _fail(kind, vertices, present=(), absent=(), note="", extra=()):
    return CompletionResult(
        "no-completion",
        certificate=ObstacleCertificate(
            kind, tuple(vertices), tuple(present), tuple(absent), note, tuple(extra)
        ),
    )


def poset_membership(A: Structure) -> bool:
    leq, prec = A.tuples("leq"), A.tuples("prec")
    vs = A.vertices
    for v in vs:
        if (v, v) not in leq or (v, v) not in prec:
            return False
    for u, v in itertools.combinations(vs, 2):
        if ((u, v) in leq) == ((v, u) in leq):
            return False
        if (u, v) in prec and (v, u) in prec:
            return False
    if not prec <= leq:
        return False
    for rel in (prec, leq):
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c and (a, d) not in rel:
                    return False
    return True


def poset_completion(plugin: PosetPlugin, A: Structure) -> CompletionResult:
    leq, prec = A.tuples("leq"), A.tuples("prec")
    vs = A.vertices
    for v in vs:
        for sym in ("prec", "leq"):
            if (v, v) not in A.tuples(sym):
                return _fail(
                    "missing-reflexive", (v,), absent=[(sym, (v, v))],
                    note=f"{sym} misses the reflexive pair",
                )
    adj = gaifman_adjacency(A)
    for u, v in itertools.combinations(vs, 2):
        frozen = v in adj[u]
        fwd, bwd = (u, v) in leq, (v, u) in leq
        if fwd and bwd:
            return _fail(
                "order-antisymmetry", (u, v),
                present=[("leq", (u, v)), ("leq", (v, u))],
            )
        if (u, v) in prec and (v, u) in prec:
            return _fail(
                "prec-antisymmetry", (u, v),
                present=[("prec", (u, v)), ("prec", (v, u))],
            )
        if frozen and not (fwd or bwd):
            return _fail(
                "unordered-pair", (u, v),
                absent=[("leq", (u, v)), ("leq", (v, u))],
                note="pair shares a tuple but has no orientation",
            )
        for (a, b) in (((u, v) if fwd else (v, u)),) if (fwd or bwd) else ():
            if (b, a) in prec:
                return _fail(
                    "prec-against-order", (a, b),
                    present=[("leq", (a, b)), ("prec", (b, a))],
                )

    strict_prec = {(a, b) for (a, b) in prec if a != b}
    closure = transitive_closure(strict_prec)
    cyc = digraph_cycle(closure, vs)
    if cyc:
        return _fail("prec-cycle", tuple(cyc), note="prec chain closes on itself")
    for (a, b) in sorted(closure - strict_prec):
        if b in adj[a]:
            qc = quasi_cycle_scan(A)
            if qc is not None:
                return _fail(
                    "quasi-cycle", qc.vertices,
                    present=[("leq", (qc.vertices[0], qc.vertices[-1]))],
                    absent=[("prec", (qc.vertices[0], qc.vertices[-1]))],
                    note="prec chain against a frozen pair",
                )
            return _fail(
                "frozen-prec-gap", (a, b),
                absent=[("prec", (a, b))],
                note="transitivity forces prec on a frozen pair without it",
            )
    strict_leq = {(a, b) for (a, b) in leq if a != b}
    order_edges = strict_leq | closure
    cyc = digraph_cycle(order_edges, vs)
    if cyc:
        return _fail("order-cycle", tuple(cyc), note="no linear extension exists")
    topo = toposort(vs, order_edges)
    final_prec = sorted(closure | {(v, v) for v in vs})
    completed = Structure(
        POSET, vs, {"prec": final_prec, "leq": linear_order_tuples(topo)}
    )
    if not poset_membership(completed):
        raise StructureError("poset completion produced a non-member")
    return CompletionResult("completed", completed=completed)


def sgraph_of(A: Structure, S) -> metric_mod.SGraph:
    """A distance-language structure read as an S-graph of ``Fraction``
    distances, tuple by tuple in sorted order, raising at the first fault:
    ``metric.structure_to_sgraph`` before it read integer ranks."""
    dist = {}
    for q, name in zip(S.sorted(), S._symbols):
        ts = A.tuples(name)
        for (u, v) in sorted(ts):
            if u == v:
                raise StructureError(f"loop in {name!r}")
            if (v, u) not in ts:
                raise StructureError(f"one-way distance tuple {(u, v)!r}")
            p = (u, v) if u <= v else (v, u)
            if p in dist and dist[p] != q:
                raise StructureError(f"two distances on pair {p!r}")
            dist[p] = q
    return metric_mod.SGraph(A.vertices, dist)


def metric_completion(plugin: MetricPlugin, A: Structure) -> CompletionResult:
    try:
        G = sgraph_of(A, plugin.S)
    except StructureError as exc:
        return _fail("malformed-distance-graph", A.vertices, note=str(exc))
    # the plugin checked the 4-values condition when it was made
    result = pattern_oracle.fraction_completion(G, plugin.S)
    if result.completed:
        return CompletionResult(
            "completed",
            completed=metric_mod.sgraph_to_structure(result.space, plugin.S),
        )
    cert = result.certificate
    cycle = cert.cycle_distances(G)
    present = []
    for i in range(len(cert.walk) - 1):
        q = G.get(cert.walk[i], cert.walk[i + 1])
        present.append((f"d:{format_rational(q)}", (cert.walk[i], cert.walk[i + 1])))
    present.append((f"d:{format_rational(cert.recorded)}", cert.pair))
    return _fail(
        "non-metric-cycle",
        cert.walk,
        present=present,
        note=f"recorded {cert.recorded} exceeds walk length {cert.shortest}",
        extra=(
            ("distances", ",".join(format_rational(q) for q in cycle)),
            ("shortest", format_rational(cert.shortest)),
        ),
    )


def forbidden_completion(plugin: ForbiddenPlugin, A: Structure) -> CompletionResult:
    leq, edges = A.tuples("leq"), A.tuples("E")
    vs = A.vertices
    for v in vs:
        if (v, v) in edges:
            return _fail("edge-loop", (v,), present=[("E", (v, v))])
        if (v, v) not in leq:
            return _fail("missing-reflexive", (v,), absent=[("leq", (v, v))])
    adj = gaifman_adjacency(A)
    for u, v in itertools.combinations(vs, 2):
        fwd, bwd = (u, v) in leq, (v, u) in leq
        if fwd and bwd:
            return _fail(
                "order-antisymmetry", (u, v),
                present=[("leq", (u, v)), ("leq", (v, u))],
            )
        if v in adj[u] and not (fwd or bwd):
            return _fail(
                "unordered-pair", (u, v),
                absent=[("leq", (u, v)), ("leq", (v, u))],
            )
        if (u, v) in edges and (v, u) not in edges:
            return _fail(
                "one-way-edge", (u, v),
                present=[("E", (u, v))], absent=[("E", (v, u))],
            )
        if (v, u) in edges and (u, v) not in edges:
            return _fail(
                "one-way-edge", (v, u),
                present=[("E", (v, u))], absent=[("E", (u, v))],
            )
    strict = {(a, b) for (a, b) in leq if a != b}
    cyc = digraph_cycle(strict, vs)
    if cyc:
        return _fail("order-cycle", tuple(cyc))
    topo = toposort(vs, strict)
    completed = Structure(
        ORDERED_GRAPH, vs, {"E": sorted(edges), "leq": linear_order_tuples(topo)}
    )
    # the first embedding of the first member that embeds
    for F in plugin.forbidden:
        for m in search_morphisms(F, completed, "embedding"):
            return _fail(
                "forbidden-member",
                sorted(m.image_vertices()),
                note=f"embeds a forbidden structure on {len(F.vertices)} vertices",
                extra=tuple(("witness:" + src, dst) for src, dst in m.map),
            )
    return CompletionResult("completed", completed=completed)


def try_strong_completion(plugin, A: Structure) -> CompletionResult:
    """The reference strong completion of A in the built-in plugin's class."""
    if isinstance(plugin, PosetPlugin):
        return poset_completion(plugin, A)
    if isinstance(plugin, MetricPlugin):
        return metric_completion(plugin, A)
    if isinstance(plugin, ForbiddenPlugin):
        return forbidden_completion(plugin, A)
    raise TypeError(f"no reference completion for {type(plugin).__name__}")


def partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions, most blocks first (the identity comes first)."""
    items = list(items)

    def rec(i: int, blocks: list[list[str]]) -> Iterator[list[list[str]]]:
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        v = items[i]
        blocks.append([v])
        yield from rec(i + 1, blocks)
        blocks.pop()
        for b in blocks:
            b.append(v)
            yield from rec(i + 1, blocks)
            b.pop()

    yield from sorted(rec(0, []), key=lambda bs: -len(bs))


def try_completion(A: Structure, plugin) -> Optional[tuple[Morphism, Structure]]:
    """The reference completion search: the first partition, most blocks
    first, whose collapse verifies as a homomorphism-embedding and whose
    image strongly completes."""
    for blocks in partitions(A.vertices):
        Q, q = quotient_structure(A, blocks)
        if not verify_morphism(q):
            continue
        result = plugin.try_strong_completion(Q)
        if result.ok:
            return q, result.completed
    return None


def completion_iff_strong(plugin, size_cap: int) -> EquivalenceReport:
    """The reference completion-iff-strong-completion check."""
    checked = 0
    violations = []
    for P in plugin.patterns_up_to(size_cap):
        checked += 1
        strong = plugin.try_strong_completion(P).ok
        weak = try_completion(P, plugin) is not None
        if strong and not weak:
            raise StructureError("strong completion without a completion")
        if weak and not strong:
            violations.append(P)
    return EquivalenceReport(plugin.name, size_cap, checked, tuple(violations))


def _pullback_patterns(C0: Structure, k: int) -> Iterator[Structure]:
    """Structures on k vertices with a homomorphism-embedding to C0.

    Binary languages only.  A candidate is a vertex map f into C0 (taken
    non-decreasing, which is harmless up to isomorphism) together with a set
    of non-glued pairs that copy the exact induced pair of C0; the resulting
    map is a homomorphism-embedding by construction.
    """
    if any(arity > 2 for _, arity in C0.language.symbols):
        raise PreconditionError("pullback probing supports binary languages only")
    verts = [f"v{i}" for i in range(k)]
    pairs = list(itertools.combinations(range(k), 2))
    c0verts = sorted(C0.vertices)
    for image in itertools.combinations_with_replacement(c0verts, k):
        f = dict(zip(verts, image))
        open_pairs = [(i, j) for (i, j) in pairs if image[i] != image[j]]
        base: dict[str, list] = {name: [] for name in C0.language.names()}
        for v in verts:
            for name, ts in C0.relations.items():
                arity = C0.language.arity(name)
                w = f[v]
                if arity == 1 and (w,) in ts:
                    base[name].append((v,))
                if arity == 2 and (w, w) in ts:
                    base[name].append((v, v))
        pair_tuples = []
        for (i, j) in open_pairs:
            u, v = verts[i], verts[j]
            wu, wv = image[i], image[j]
            extra = []
            for name, ts in C0.relations.items():
                if C0.language.arity(name) != 2:
                    continue
                if (wu, wv) in ts:
                    extra.append((name, (u, v)))
                if (wv, wu) in ts:
                    extra.append((name, (v, u)))
            pair_tuples.append(extra)
        for mask in range(1 << len(open_pairs)):
            rels = {name: list(ts) for name, ts in base.items()}
            for p, extra in enumerate(pair_tuples):
                if mask >> p & 1:
                    for name, t in extra:
                        rels[name].append(t)
            yield Structure(C0.language, verts, rels)


def probe_local_finiteness(
    plugin,
    C0: Structure,
    n: int,
    size_cap: int = 7,
    budget: int = 200_000,
) -> ProbeReport:
    """The reference local-finiteness probe: every pullback pattern is
    built and strongly completed, and a failing one is a counterexample
    when every induced substructure on 1..n vertices strongly completes."""
    if C0.language != plugin.language:
        raise PreconditionError("C0 must live in the plugin's language")
    examined = 0
    counterexamples = []
    seen = set()
    inconclusive = False
    for k in range(n + 1, size_cap + 1):
        if inconclusive:
            break
        for P in _pullback_patterns(C0, k):
            examined += 1
            if examined > budget:
                inconclusive = True
                break
            if plugin.try_strong_completion(P).ok:
                continue
            small_ok = True
            for r in range(1, min(n, k) + 1):
                for S in itertools.combinations(P.vertices, r):
                    if not plugin.try_strong_completion(
                        induced_substructure(P, S)
                    ).ok:
                        small_ok = False
                        break
                if not small_ok:
                    break
            if small_ok:
                key = canonical_key(P)
                if key not in seen:
                    seen.add(key)
                    counterexamples.append(P)
    return ProbeReport(
        plugin.name, n, size_cap, examined, tuple(counterexamples), inconclusive
    )
