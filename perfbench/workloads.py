"""Seeded task lists for the two benchmark workloads.

A task is one question a user puts to the library.  ``run`` is the timed
call; ``settle`` turns its result into a verdict record through plain
accessors only (no library computation, so it leaves no trace spans and
warms no library memo); the returned ``check`` re-checks the verdict and
runs after every task of the list has finished.

Verdicts: "proved", "refuted", "completed", "no-completion" and "count"
are conclusive; "inconclusive" and "cap" (a CapError abort) are not;
"error" is an unexpected exception.

Library functions are always reached through their module
(``structures.search_morphisms``), so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import deque

from ramseyforge import build, completion, metric, pieces, ramsey, structures

CONCLUSIVE = ("proved", "refuted", "completed", "no-completion", "count")
NO_CAP = 2**400  # raises verify_arrow's exhaustive cap out of reach


class Task:
    __slots__ = ("name", "run", "settle")

    def __init__(self, name, run, settle):
        self.name, self.run, self.settle = name, run, settle


def _relations(A) -> list:
    """A structure as plain sorted data, for payloads."""
    return [list(A.vertices), [[name, sorted(A.tuples(name))] for name in A.language.names()]]


def _no_problems():
    return []


# ---------------------------------------------------------------------------
# independent references (plain Python, no library calls)


def ref_trace_power(n, edges, k) -> int:
    """trace(A^k) of a graph's adjacency matrix: the closed k-walks."""
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    power = adj
    for _ in range(k - 1):
        power = [
            [sum(row[m] * adj[m][j] for m in range(n) if row[m]) for j in range(n)]
            for row in power
        ]
    return sum(power[i][i] for i in range(n))


def ref_cliques(vertices, edge_set, k) -> list:
    return [
        c for c in itertools.combinations(vertices, k)
        if all((u, v) in edge_set for u, v in itertools.combinations(c, 2))
    ]


def ref_bfs(vertices, edge_set) -> dict:
    adj = {v: [w for w in vertices if (v, w) in edge_set] for v in vertices}
    out = {}
    for s in vertices:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for v, d in dist.items():
            out[(s, v)] = d
    return out


def ref_odd_girth_at_least(vertices, edge_set, bound) -> bool:
    """No odd closed walk shorter than ``bound`` (BFS layers)."""
    dist = ref_bfs(vertices, edge_set)
    for s in vertices:
        for u, v in edge_set:
            du, dv = dist.get((s, u)), dist.get((s, v))
            if du is not None and du == dv and 2 * du + 1 < bound:
                return False
    return True


def ref_isomorphic(n, edges_a, edges_b) -> bool:
    """Backtracking graph isomorphism on vertices 0..n-1 with degree pruning."""
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for u, v in edges_a:
        adj_a[u].add(v)
        adj_a[v].add(u)
    for u, v in edges_b:
        adj_b[u].add(v)
        adj_b[v].add(u)
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    order = sorted(range(n), key=lambda v: -len(adj_a[v]))
    image, used = {}, set()

    def extend(i):
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if w in used or len(adj_b[w]) != len(adj_a[v]):
                continue
            if all((image[u] in adj_b[w]) == (u in adj_a[v]) for u in image):
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del image[v]
                used.discard(w)
        return False

    return extend(0)


def ref_has_mono_triangle(vertices, edge_colour) -> bool:
    for a, b, c in itertools.combinations(vertices, 3):
        cols = {edge_colour.get(frozenset(p)) for p in ((a, b), (a, c), (b, c))}
        if None not in cols and len(cols) == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# seeded input generators (plain Python)


def random_regular_edges(rng, n, d):
    """A d-regular graph on 0..n-1: a circulant scrambled by random
    degree-preserving edge switches."""
    edges = {tuple(sorted((i, (i + o) % n))) for i in range(n) for o in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {(i, i + n // 2) for i in range(n // 2)}
    edges = sorted(edges)
    present = set(edges)
    for _ in range(20 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        if len({a, b, c, e}) < 4:
            continue
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if new1 in present or new2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {new1, new2}
        edges[i], edges[j] = new1, new2
    return sorted(edges)


def random_edges(rng, n, m):
    return sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))


def named_graph(prefix, n, edges):
    verts = [f"{prefix}{i:02d}" for i in range(n)]
    return build.graph(verts, [(verts[u], verts[v]) for u, v in edges])


def _edge_set(G):
    return set(G.tuples("E"))


# ---------------------------------------------------------------------------
# completion-sweep


def _obstacles_task(name, plugin, n, expect_shapes=None):
    def run():
        return plugin.obstacles_up_to(n)

    def settle(found):
        payload = [_relations(P) for P in found]

        def check():
            problems = []
            for P in found:
                res = plugin.try_strong_completion(P)
                if res.ok or not res.certificate.holds(P):
                    problems.append("obstacle completes or its certificate fails")
                for v in P.vertices:
                    sub = structures.induced_substructure(P, set(P.vertices) - {v})
                    part = plugin.try_strong_completion(sub)
                    if not part.ok or not plugin.membership(part.completed):
                        problems.append("obstacle is not minimal")
                        break
            if expect_shapes is not None:
                connected = [P for P in found if len(structures.connected_components(P)) <= 1]
                shapes = sorted(
                    tuple(sorted(metric.structure_to_sgraph(P, plugin.S).dist.values()))
                    for P in connected
                )
                if shapes != sorted(expect_shapes):
                    problems.append(f"connected obstacle shapes {shapes} != {sorted(expect_shapes)}")
            return problems

        return "count", payload, check

    return Task(name, run, settle)


def _iff_task(name, plugin, n, known_holds):
    def run():
        return completion.completion_iff_strong(plugin, n)

    def settle(report):
        violations = report.violations
        payload = [report.checked, [_relations(P) for P in violations]]

        def check():
            problems = []
            if known_holds is not None and report.holds != known_holds:
                problems.append(f"known answer: iff holds = {known_holds}")
            if report.checked < 20:
                problems.append("fewer than 20 patterns checked")
            for P in violations:
                if plugin.try_strong_completion(P).ok or completion.try_completion(P, plugin) is None:
                    problems.append("violation does not re-check")
            return problems

        return ("proved" if report.holds else "refuted"), payload, check

    return Task(name, run, settle)


def _one_three_task(plugin, n):
    verts = [f"c{i:02d}" for i in range(n + 1)]
    dist = {(verts[i], verts[i + 1]): 1 for i in range(n)}
    dist[(verts[0], verts[n])] = 3
    A = metric.sgraph_to_structure(metric.SGraph(verts, dist), plugin.S)

    def run():
        whole = plugin.try_strong_completion(A)
        parts = [
            plugin.try_strong_completion(structures.induced_substructure(A, set(A.vertices) - {v}))
            for v in A.vertices
        ]
        return whole, parts

    def settle(res):
        whole, parts = res
        payload = [whole.status, [p.status for p in parts]]

        def check():
            problems = []
            if whole.ok or not whole.certificate.holds(A):
                problems.append("the one-three cycle must refuse completion with a valid certificate")
            if not all(p.ok for p in parts):
                problems.append("every proper part must complete")
            return problems

        return ("no-completion" if not whole.ok else "completed"), payload, check

    return Task(f"one-three:{n}", run, settle)


def _settle_completion(A, plugin, res):
    if res.ok:
        C = res.completed

        def check():
            problems = []
            if not plugin.membership(C):
                problems.append("completed structure is not in the class")
            if C.vertices != A.vertices or any(
                not A.tuples(name) <= C.tuples(name) for name in A.language.names()
            ):
                problems.append("completion does not extend the input")
            return problems

        return "completed", _relations(C), check
    cert = res.certificate
    return "no-completion", [cert.kind, list(cert.vertices)], (
        lambda: [] if cert.holds(A) else ["obstacle certificate does not hold"]
    )


def _complete_task(name, plugin, A):
    def run():
        return completion.complete_with(A, plugin)

    return Task(name, run, lambda res: _settle_completion(A, plugin, res))


def _try_completion_task(name, plugin, A):
    def run():
        return completion.try_completion(A, plugin)

    def settle(res):
        if res is None:
            return "no-completion", None, (
                lambda: ["strong completion exists but no completion"]
                if plugin.try_strong_completion(A).ok else []
            )
        q, C = res
        payload = [list(q.map), _relations(C)]

        def check():
            problems = []
            if not structures.verify_morphism(q) or q.source != A:
                problems.append("quotient map does not verify")
            if not plugin.membership(C) or q.target.vertices != C.vertices:
                problems.append("completed quotient is not in the class")
            return problems

        return "completed", payload, check

    return Task(name, run, settle)


def _random_oriented(rng, n, second):
    """Random pattern-style structure: each pair is a hole, oriented in the
    order, or oriented with the second relation too."""
    verts = [f"v{i}" for i in range(n)]
    leq, other = [(v, v) for v in verts], []
    for u, v in itertools.combinations(verts, 2):
        state = rng.randrange(5)
        if state == 0:
            continue
        a, b = (u, v) if state in (1, 3) else (v, u)
        leq.append((a, b))
        if state >= 3:
            other.append((a, b))
    if second == "prec":
        return structures.Structure(build.POSET, verts, {"leq": leq, "prec": leq[:n] + other})
    return structures.Structure(
        build.ORDERED_GRAPH, verts, {"leq": leq, "E": other + [(b, a) for a, b in other]}
    )


def _random_distance_structure(rng, plugin, n):
    vals = plugin.S.sorted()
    verts = [f"v{i}" for i in range(n)]
    dist = {p: rng.choice(vals) for p in itertools.combinations(verts, 2) if rng.random() < 0.7}
    return metric.sgraph_to_structure(metric.SGraph(verts, dist), plugin.S)


def completion_sweep(rng):
    posets = completion.get_plugin("posets")
    m1234 = completion.get_plugin("metric:1,2,3,4")
    kfree = completion.kfree_plugin(3)
    m13 = completion.get_plugin("metric:1,3")
    m12 = completion.get_plugin("metric:1,2")
    tasks = [
        _obstacles_task("obstacles4:posets", posets, 4),
        _obstacles_task("obstacles4:metric:1,2,3,4", m1234, 4,
                        [(1, 1, 3), (1, 1, 4), (1, 2, 4), (1, 1, 1, 4)]),
        _obstacles_task("obstacles4:forbidden:K3", kfree, 4),
        # every {1,2}-graph completes by filling holes with 2
        _obstacles_task("obstacles4:metric:1,2", m12, 4, []),
        _iff_task("iff3:posets", posets, 3, True),
        _iff_task("iff3:metric:1,2,3,4", m1234, 3, True),
        _iff_task("iff3:forbidden:K3", kfree, 3, None),
    ]
    tasks += [_one_three_task(m13, n) for n in range(2, 10)]
    # The one-three cycles are the slowest tenth after the list-wide tasks, so
    # task_p90_ms falls on fixed inputs; the seeded tasks hold the median.
    for i in range(81):
        n = 6
        kind = i % 3
        if kind == 0:
            plugin, A = posets, _random_oriented(rng, n, "prec")
        elif kind == 1:
            plugin, A = m1234, _random_distance_structure(rng, m1234, n)
        else:
            plugin, A = kfree, _random_oriented(rng, n, "E")
        tasks.append(_complete_task(f"complete{i}:{plugin.name}:n{n}", plugin, A))
    for i in range(20):
        kind = i % 3
        if kind == 0:
            plugin, A = posets, _random_oriented(rng, 3, "prec")
        elif kind == 1:
            plugin, A = m1234, _random_distance_structure(rng, m1234, 3)
        else:
            plugin, A = kfree, _random_oriented(rng, 3, "E")
        tasks.append(_try_completion_task(f"try-completion{i}:{plugin.name}", plugin, A))
    return tasks


# ---------------------------------------------------------------------------
# morphism-arrow, first part: morphism search


def _hom_task(name, A, G, n, edges):
    def run():
        return list(structures.search_morphisms(A, G, "homomorphism"))

    def settle(found):
        maps = [tuple(w for _, w in m.map) for m in found]
        sources = tuple(v for v, _ in found[0].map) if found else ()
        digest = hashlib.sha256(repr(maps).encode()).hexdigest()

        def check():
            problems = []
            expected = ref_trace_power(n, edges, len(A.vertices))
            if len(maps) != expected:
                problems.append(f"{len(maps)} maps, trace(A^5) = {expected}")
            if len(set(maps)) != len(maps):
                problems.append("duplicate maps")
            index = {v: i for i, v in enumerate(G.vertices)}
            adjacent = {(index[u], index[v]) for u, v in _edge_set(G)}
            cyclic = [(i, (i + 1) % len(sources)) for i in range(len(sources))]
            if not all((index[im[i]], index[im[j]]) in adjacent for im in maps for i, j in cyclic):
                problems.append("a map is not a homomorphism of the cycle")
            # the library re-check on every 16th map keeps the check short
            for image in maps[::16]:
                m = structures.Morphism.make(A, G, dict(zip(sources, image)), "homomorphism")
                if not structures.verify_morphism(m):
                    problems.append("a map fails verify_morphism")
                    break
            return problems

        return "count", [len(maps), digest], check

    return Task(name, run, settle)


def _copies_task(name, K, G, k):
    def run():
        return structures.copies_of(K, G)

    def settle(copies):
        images = [sorted(img) for img in copies]
        witnesses = [m for ms in copies.values() for m in ms]
        counts = [len(ms) for ms in copies.values()]

        def check():
            problems = []
            if [tuple(i) for i in images] != ref_cliques(G.vertices, _edge_set(G), k):
                problems.append("copies differ from the clique enumeration")
            if any(c != len(list(itertools.permutations(range(k)))) for c in counts):
                problems.append("a copy lacks k! witness embeddings")
            if not all(structures.verify_morphism(m) for m in witnesses):
                problems.append("a witness embedding fails verify_morphism")
            return problems

        return "count", [images, counts], check

    return Task(name, run, settle)


def _iso_task(name, H1, H2, expected):
    def run():
        return structures.are_isomorphic(H1, H2)

    def settle(iso):
        if iso is None:
            return "refuted", None, (lambda: ["isomorphic graphs reported non-isomorphic"] if expected else [])

        def check():
            problems = []
            if not structures.verify_morphism(iso) or len(iso.image_vertices()) != len(H2.vertices):
                problems.append("isomorphism witness does not verify")
            if not expected:
                problems.append("non-isomorphic graphs reported isomorphic")
            return problems

        return "proved", list(iso.map), check

    return Task(name, run, settle)


def _family_task(n):
    C = build.cycle_graph(n)

    def run():
        return pieces.PieceFamily([C])

    def settle(family):
        reps = [cls.representative.body for cls in family.classes]
        sizes = sorted(len(b.vertices) for b in reps)

        def check():
            problems = []
            if sizes != list(range(3, n)):
                problems.append(f"class representatives have {sizes} vertices, expected paths on 3..{n - 1}")
            if not all(structures.are_isomorphic(b, build.path_graph(len(b.vertices))) for b in reps):
                problems.append("a class representative is not a path")
            return problems

        return "count", [[cls.width, len(cls.pieces)] for cls in family.classes] + [sizes], check

    return Task(f"piece-family:C{n}", run, settle)


def _lift_task(name, G, family, short, long):
    def run():
        member = pieces.forb_membership(G, family.members)
        return member, pieces.canonical_lift(G, family)

    def settle(res):
        member, lift = res
        ext = lift.ext_map()
        payload = [bool(member), [[i, sorted(ts)] for i, ts in sorted(ext.items())]]

        def check():
            dist = ref_bfs(G.vertices, _edge_set(G))
            two = {p for p, d in dist.items() if p[0] != p[1] and d == 2}
            odd = {p for p, d in dist.items() if p[0] != p[1] and d in (1, 3)}
            problems = []
            if not member:
                problems.append("a C5-free graph is reported to contain C5")
            if ext[short] != two or ext[long] != odd:
                problems.append("lift relations differ from the BFS distances")
            return problems

        return "count", payload, check

    return Task(name, run, settle)


def morphism_search(rng):
    C5 = build.cycle_graph(5)
    tasks = []
    for i in range(2):
        edges = random_regular_edges(rng, 12, 4)
        tasks.append(_hom_task(f"hom:C5->R(12,4)#{i}", C5, named_graph("g", 12, edges), 12, edges))
    K3, K4 = build.complete_graph(3), build.complete_graph(4)
    # The copy counts run on the same graphs for every seed.  With the
    # homomorphism enumerations and the fixed arrows they are the slowest
    # tenth of "morphism-arrow", so task_p90_ms falls on fixed inputs and not
    # on a seeded tail, as it falls on the one-three cycles in
    # "completion-sweep".
    fixed = random.Random("copies")
    for i in range(4):
        tasks.append(_copies_task(f"copies:K3->R(16,8)#{i}", K3, named_graph("g", 16, random_regular_edges(fixed, 16, 8)), 3))
        tasks.append(_copies_task(f"copies:K4->R(16,8)#{i}", K4, named_graph("g", 16, random_regular_edges(fixed, 16, 8)), 4))
    for i in range(20):
        n = 8
        edges = random_edges(rng, n, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        moved = [(perm[u], perm[v]) for u, v in edges]
        if i % 2:
            # move one edge: same edge count, usually a different graph
            absent = [p for p in itertools.combinations(range(n), 2) if tuple(sorted(p)) not in {tuple(sorted(e)) for e in moved}]
            moved[rng.randrange(len(moved))] = rng.choice(absent)
        expected = ref_isomorphic(n, edges, moved)
        tasks.append(_iso_task(f"iso#{i}:{'perturbed' if i % 2 else 'relabelled'}",
                               named_graph("a", n, edges), named_graph("b", n, moved), expected))
    tasks += [_family_task(5), _family_task(7)]
    family = pieces.PieceFamily([C5])
    short = next(c.index for c in family.classes if len(c.representative.body.vertices) == 3)
    long = next(c.index for c in family.classes if len(c.representative.body.vertices) == 4)
    done = 0
    while done < 50:
        n = 7
        G = named_graph("h", n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.25])
        if ref_odd_girth_at_least(G.vertices, _edge_set(G), 7):
            tasks.append(_lift_task(f"lift#{done}:n{n}", G, family, short, long))
            done += 1
    return tasks


# ---------------------------------------------------------------------------
# morphism-arrow, second part: arrows


def _arrow_task(name, C, A, B, k, mode="exhaustive", known=None):
    cap = {"exhaustive_cap": NO_CAP} if mode == "exhaustive" else {}

    def run():
        return ramsey.verify_arrow(C, A, B, k, mode=mode, **cap)

    def settle(report):
        colouring = report.colouring

        def check():
            problems = []
            if known is not None and report.holds in ("proved", "refuted") and report.holds != known:
                problems.append(f"known answer is {known}")
            if report.holds == "refuted":
                if not ramsey.arrow_certificate_refutes(C, A, B, colouring):
                    problems.append("refuting colouring does not re-check")
                if A.vertex_count() == 2 and B == build.complete_graph(3) and C.language == build.GRAPH:
                    edge_colour = {frozenset(c): col for c, col in zip(report.copies_of_a, colouring)}
                    if ref_has_mono_triangle(C.vertices, edge_colour):
                        problems.append("refuting colouring has a monochromatic triangle")
            return problems

        payload = [report.mode, report.colourings_examined, colouring and list(colouring)]
        return report.holds, payload, check

    return Task(name, run, settle)


def _construction_arrow_task():
    OV = structures.Structure(build.ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]})
    edge = build.ordered_graph(["a", "b"], [("a", "b")])
    triangle = build.ordered_graph(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])

    def run():
        result = ramsey.partite_construction(OV, edge, triangle)
        return result, ramsey.verify_arrow(result.structure, OV, edge, 2, mode="exhaustive")

    def settle(res):
        result, report = res

        def check():
            problems = []
            if not structures.verify_morphism(result.projection):
                problems.append("construction projection does not verify")
            if next(structures.search_morphisms(result.structure, triangle, "homomorphism-embedding"), None) is None:
                problems.append("construction does not map into the triangle")
            if report.holds != "proved":
                problems.append("the constructed structure must arrow")
            return problems

        payload = [_relations(result.structure), list(result.steps), report.colourings_examined]
        return report.holds, payload, check

    return Task("partite-construction:OV,edge,triangle", run, settle)


def _unary_fixtures():
    UF = structures.language(("f", 2), ("leq", 2), order_symbol="leq")
    order = build.linear_order_tuples
    fixed = structures.Structure(UF, ["a"], {"f": [("a", "a")], "leq": [("a", "a")]})
    two_fixed = structures.Structure(UF, ["u", "v"], {"f": [("u", "u"), ("v", "v")], "leq": order(["u", "v"])})
    orbit = structures.Structure(UF, ["u", "v"], {"f": [("u", "v"), ("v", "v")], "leq": order(["u", "v"])})
    orbit_plus = structures.Structure(
        UF, ["u", "v", "w"], {"f": [("u", "v"), ("v", "v"), ("w", "w")], "leq": order(["u", "v", "w"])}
    )
    return [("fixed,two-fixed", fixed, two_fixed), ("fixed,fixed", fixed, fixed), ("orbit,orbit-plus", orbit, orbit_plus)]


def _unary_task(label, A, B):
    def run():
        result = ramsey.unary_ramsey(A, B)
        return result, ramsey.verify_arrow(result.structure, A, B, 2, mode="exhaustive")

    def settle(res):
        result, report = res

        def check():
            problems = []
            if not all(structures.verify_morphism(m) for m in result.copies):
                problems.append("a copy of B does not verify")
            if report.holds != "proved":
                problems.append("the unary Ramsey structure must arrow")
            return problems

        return report.holds, [_relations(result.structure), result.dimension, report.colourings_examined], check

    return Task(f"unary-ramsey:{label}", run, settle)


def _construction_cap_task():
    edge, K3, K6 = build.complete_graph(2), build.complete_graph(3), build.complete_graph(6)

    def run():
        return ramsey.partite_construction(edge, K3, K6)

    def settle(result):
        return "completed", _relations(result.structure), _no_problems

    return Task("partite-construction:edge,K3,K6", run, settle)


def _hales_jewett_task(t, known):
    def run():
        return ramsey.hales_jewett_N(t, 2)

    def settle(hj):
        def check():
            if hj.conclusive and hj.value != known:
                return [f"HJ({t},2) is {known}"]
            if hj.lower_bound > known:
                return [f"lower bound above HJ({t},2) = {known}"]
            return []

        status = "count" if hj.conclusive else "inconclusive"
        return status, [hj.value, hj.lower_bound, hj.colourings_examined], check

    return Task(f"hales-jewett:{t},2", run, settle)


def arrow_search(rng):
    K2, K3, K4 = build.complete_graph(2), build.complete_graph(3), build.complete_graph(4)
    tasks = []
    # R(3,3) = 6, R(3,3,3) = 17, R(4,4) = 18
    for n in range(5, 9):
        tasks.append(_arrow_task(f"arrow:K{n}->K3,2", build.complete_graph(n), K2, K3, 2,
                                 known="proved" if n >= 6 else "refuted"))
    for n in range(5, 8):
        tasks.append(_arrow_task(f"arrow:K{n}->K3,3", build.complete_graph(n), K2, K3, 3, known="refuted"))
    tasks.append(_arrow_task("arrow:K8->K4,2", build.complete_graph(8), K2, K4, 2, known="refuted"))
    tasks.append(_arrow_task("arrow:K8->K3,2:auto", build.complete_graph(8), K2, K3, 2, mode="auto", known="proved"))
    # At 20 edges few seeded arrows are proved, each an exhaustive search
    # that would stretch the tail
    for i in range(15):
        G = named_graph("g", 8, random_edges(rng, 8, 20))
        tasks.append(_arrow_task(f"arrow:G(8,20)#{i}->K3,2", G, K2, K3, 2))
    tasks.append(_construction_arrow_task())
    tasks += [_unary_task(label, A, B) for label, A, B in _unary_fixtures()]
    tasks.append(_construction_cap_task())
    tasks += [_hales_jewett_task(2, 2), _hales_jewett_task(3, 4)]
    return tasks


# Each workload is chosen to load one layer; see README.md.  A workload is
# one or more parts run in order; each part draws its inputs from a stream
# of its own, keyed by the part's name and the seed.
WORKLOADS = {
    "completion-sweep": (completion_sweep,),
    "morphism-arrow": (morphism_search, arrow_search),
}


def build_tasks(workload: str, seed: int) -> list[Task]:
    return [
        task
        for part in WORKLOADS[workload]
        for task in part(random.Random(f"{part.__name__.replace('_', '-')}:{seed}"))
    ]


def digest(records) -> str:
    h = hashlib.sha256()
    for name, status, payload in records:
        h.update(json.dumps([name, status, payload], sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()
