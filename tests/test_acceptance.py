"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; each test also asserts its stated runtime budget.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from ramseyforge.build import (
    ORDERED_GRAPH,
    ORDERED_POINTED,
    POINTED,
    cycle_graph,
    graph,
    linear_order_tuples,
    ordered_graph,
    path_graph,
    pointed_equivalence,
)
from ramseyforge.closures import (
    closure_description,
    free_amalgam_preserves_closed,
    is_U_closed,
    is_U_semi_closed,
)
from ramseyforge.completion import MetricPlugin, PosetPlugin, completion_iff_strong
from ramseyforge.metric import (
    SGraph,
    distance_set,
    complete_metric_graph,
    four_values,
    is_associative,
    jump_numbers,
    s_length,
    structure_to_sgraph,
)
from ramseyforge.pieces import (
    PieceFamily,
    canonical_lift,
    forb_membership,
    witness_amalgam,
)
from ramseyforge.ramsey import (
    PartiteSystem,
    distance_lift_fixture,
    graph_distances,
    hales_jewett_N,
    partite_construction,
    partite_lemma,
    unary_ramsey,
    verify_arrow,
)
from ramseyforge.structures import (
    Structure,
    are_isomorphic,
    connected_components,
    induced_substructure,
    language,
    search_morphisms,
    verify_morphism,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.time()
    try:
        yield
    except Exception:
        elapsed = time.time() - start
        print(f"[criterion {number:02d}] {label}: FAIL ({elapsed:.1f}s)", file=sys.stderr)
        raise
    elapsed = time.time() - start
    print(f"[criterion {number:02d}] {label}: PASS ({elapsed:.1f}s)", file=sys.stderr)
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def jump_free_pool(bound):
    pool = []
    for r in range(2, bound + 1):
        for combo in itertools.combinations(range(1, bound + 1), r):
            S = distance_set(*combo)
            if four_values(S)[0] and not jump_numbers(S):
                pool.append(S)
    return pool


def one_three_cycle(n):
    """n one-edges and a single three-edge around an (n+1)-cycle."""
    verts = [f"c{i:02d}" for i in range(n + 1)]
    dist = {(verts[i], verts[i + 1]): 1 for i in range(n)}
    dist[(verts[0], verts[n])] = 3
    return SGraph(verts, dist)


def test_criterion_01_metric_obstacles():
    with criterion(1, "obstacles for {1,2,3,4} up to four vertices", 10.0):
        plugin = MetricPlugin(distance_set(1, 2, 3, 4))
        found = [
            o
            for o in plugin.obstacles_up_to(4)
            if len(connected_components(o)) <= 1
        ]
        shapes = {
            tuple(sorted(structure_to_sgraph(o, plugin.S).dist.values()))
            for o in found
        }
        assert shapes == {
            (1, 1, 3),
            (1, 1, 4),
            (1, 2, 4),
            (1, 1, 1, 4),
        }
        assert len(found) == 4
        square = next(o for o in found if len(o.vertices) == 4)
        degrees = sorted(
            sum(1 for p in structure_to_sgraph(square, plugin.S).dist if v in p)
            for v in square.vertices
        )
        assert degrees == [2, 2, 2, 2]  # the 1-1-1-4 four-cycle, not a star


def test_criterion_02_local_finiteness_failure_13():
    with criterion(2, "{1,3} cycles refuse completion, proper parts accept", 30.0):
        plugin = MetricPlugin(distance_set(1, 3))
        for n in range(2, 9):
            A = structure_to_sgraph_roundtrip(one_three_cycle(n), plugin)
            result = plugin.try_strong_completion(A)
            assert result.status == "no-completion", f"cycle with {n} unit edges"
            for v in A.vertices:
                sub = induced_substructure(A, set(A.vertices) - {v})
                assert plugin.try_strong_completion(sub).ok


def structure_to_sgraph_roundtrip(G: SGraph, plugin: MetricPlugin) -> Structure:
    from ramseyforge.metric import sgraph_to_structure

    return sgraph_to_structure(G, plugin.S)


def test_criterion_03_four_values_iff_associative():
    with criterion(3, "4-values equals fold associativity", 60.0):
        for r in range(1, 9):
            for combo in itertools.combinations(range(1, 9), r):
                S = distance_set(*combo)
                assert four_values(S)[0] == is_associative(S)[0]
        rng = random.Random(20260810)
        for _ in range(200):
            values = set()
            while len(values) < 4:
                values.add(Fraction(rng.randint(1, 60), rng.randint(1, 12)))
            S = distance_set(*values)
            assert four_values(S)[0] == is_associative(S)[0]


def test_criterion_04_completion_dominates():
    with criterion(4, "fold completion bounds every completion pointwise", 300.0):
        rng = random.Random(404)
        pool = jump_free_pool(6)
        for trial in range(500):
            S = rng.choice(pool)
            n = rng.randint(3, 8)
            space = _random_space(rng, S, n)
            pairs = sorted(space.dist)
            removed = rng.sample(pairs, rng.randint(1, 3))
            partial = SGraph(
                space.vertices,
                {p: q for p, q in space.dist.items() if p not in removed},
            )
            result = complete_metric_graph(partial, S)
            assert result.completed, f"trial {trial}"
            done = result.space
            assert done.is_metric(S)
            for p, q in partial.dist.items():
                assert done.dist[p] == q
            # brute force over the removed pairs: triangles not touching them
            # hold already because the rest of the space is metric
            others = {p: q for p, q in partial.dist.items()}
            for assignment in itertools.product(S.sorted(), repeat=len(removed)):
                trial_dist = dict(others)
                trial_dist.update(zip(removed, assignment))
                if _patch_is_metric(space.vertices, trial_dist, removed):
                    for p, value in zip(removed, assignment):
                        assert value <= done.dist[p]


def _patch_is_metric(verts, dist, touched_pairs):
    touched = set()
    for p in touched_pairs:
        touched.update(p)
    for u, v in touched_pairs:
        for w in verts:
            if w == u or w == v:
                continue
            a = dist[(min(u, v), max(u, v))]
            b = dist[(min(u, w), max(u, w))]
            c = dist[(min(v, w), max(v, w))]
            if not (a <= b + c and b <= a + c and c <= a + b):
                return False
    return True


def _random_space(rng, S, n):
    while True:
        verts = [f"m{i}" for i in range(n)]
        dist, ok = {}, True
        for i, u in enumerate(verts):
            for v in verts[:i]:
                valid = []
                for q in S.sorted():
                    if all(
                        abs(q - dist[(min(u, w), max(u, w))])
                        <= dist[(min(v, w), max(v, w))]
                        <= q + dist[(min(u, w), max(u, w))]
                        for w in verts[:i]
                        if w != v and (min(u, w), max(u, w)) in dist
                    ):
                        valid.append(q)
                if not valid:
                    ok = False
                    break
                dist[(min(u, v), max(u, v))] = rng.choice(valid)
            if not ok:
                break
        if ok:
            return SGraph(verts, dist)


def test_criterion_05_cycle_bound():
    with criterion(5, "no non-metric cycle beyond |S|+1 vertices, jump-free", 300.0):
        for S in jump_free_pool(5) + [distance_set(k) for k in range(1, 6)]:
            if not four_values(S)[0] or jump_numbers(S):
                continue
            top = len(S) + 2
            for n_edges in range(3, top + 1):
                for seq in itertools.product(S.sorted(), repeat=n_edges):
                    big = max(seq)
                    path = list(seq)
                    path.remove(big)
                    if big > s_length(S, path):
                        assert n_edges <= len(S) + 1, (S.sorted(), seq)


def test_criterion_06_hales_jewett_micro():
    with criterion(6, "Hales-Jewett dimension and the product system", 1.0):
        hj = hales_jewett_N(2, 2)
        assert hj.conclusive and hj.value == 2
        OV = Structure(ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]})
        carrier = Structure(
            ORDERED_GRAPH, ["u", "v"], {"leq": [("u", "u"), ("v", "v")]}
        )
        system = PartiteSystem.make(OV, carrier, {"u": "1", "v": "1"})
        result = partite_lemma(OV, system, N=2)
        verts = sorted(result.system.carrier.vertices)
        assert len(verts) == 4
        images = [frozenset(le.morphism.image_vertices()) for le in result.lines]
        for bits in itertools.product([0, 1], repeat=4):
            colour = dict(zip(verts, bits))
            assert any(len({colour[v] for v in img}) == 1 for img in images)


def test_criterion_07_end_to_end_micro_arrow():
    with criterion(7, "picture construction on the ordered triangle", 60.0):
        OV = Structure(ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]})
        edge = ordered_graph(["a", "b"], [("a", "b")])
        triangle = ordered_graph(
            ["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2"), ("t0", "t2")]
        )
        result = partite_construction(OV, edge, triangle)
        report = verify_arrow(result.structure, OV, edge, 2, mode="exhaustive")
        assert report.holds == "proved"
        assert verify_morphism(result.projection)
        found = any(
            True
            for _ in search_morphisms(
                result.structure, triangle, "homomorphism-embedding"
            )
        )
        assert found


POINTED_ROOT = Structure(POINTED, ["1"], {})
U_PLAIN = closure_description(("U", POINTED_ROOT))
ORDERED_ROOT = Structure(ORDERED_POINTED, ["1"], {"leq": [("1", "1")]})
U_ORDERED = closure_description(("U", ORDERED_ROOT))


def _random_pe(rng, max_classes=3, max_size=3):
    classes = []
    counter = 0
    for _ in range(rng.randint(1, max_classes)):
        size = rng.randint(1, max_size)
        classes.append([f"e{counter + i}" for i in range(size)])
        counter += size
    return classes


def test_criterion_08_closure_preservation():
    with criterion(8, "free amalgams and partite powers stay closed", 60.0):
        rng = random.Random(808)
        for _ in range(200):
            shared_classes = _random_pe(rng)
            shared = pointed_equivalence(shared_classes)
            assert is_U_closed(shared, U_PLAIN)

            def extend(prefix):
                extra = [
                    [f"{prefix}{i}a", f"{prefix}{i}s"]
                    for i in range(rng.randint(0, 2))
                ]
                classes = [list(c) for c in shared_classes] + extra
                for idx, c in enumerate(classes[: len(shared_classes)]):
                    if rng.random() < 0.3:
                        c.insert(0, f"{prefix}x{idx}")
                return pointed_equivalence(classes)

            B1, B2 = extend("l"), extend("r")
            assert is_U_closed(B1, U_PLAIN) and is_U_closed(B2, U_PLAIN)
            report = free_amalgam_preserves_closed(B1, B2, shared, U_PLAIN)
            assert report, report.violation

        # partite power: closedness transfers whenever the input is closed
        A = pointed_equivalence([["u", "s"]], ordered=True, order=["u", "s"])
        for trial in range(20):
            rng2 = random.Random(trial)
            keep_closed = trial % 2 == 0
            verts, upairs, smarks, leq = [], [], [], []
            for i in range(2):
                u, s = f"u{i}", f"s{i}"
                verts += [u, s]
                upairs.append((u, s))
                smarks.append((s,))
                leq += [(u, u), (s, s), (u, s)]
            if not keep_closed:
                verts.append("loose")
                leq.append(("loose", "loose"))
            carrier = Structure(
                ORDERED_POINTED,
                verts,
                {"U": upairs, "S": smarks, "leq": leq},
            )
            parts = {}
            for v in carrier.vertices:
                parts[v] = "s" if v.startswith("s") else "u"
            system = PartiteSystem.make(A, carrier, parts)
            result = partite_lemma(A, system, U=U_ORDERED, N=2)
            out = result.system.carrier
            assert is_U_semi_closed(out, U_ORDERED)
            if is_U_closed(carrier, U_ORDERED):
                assert is_U_closed(out, U_ORDERED)


def test_criterion_09_pieces_of_c5():
    with criterion(9, "pieces, classes and lifts of the five-cycle", 120.0):
        family = PieceFamily([cycle_graph(5)])
        assert len(family.classes) == 2
        reps = sorted(
            len(cls.representative.body.vertices) for cls in family.classes
        )
        assert reps == [3, 4]
        for cls in family.classes:
            body = cls.representative.body
            assert are_isomorphic(body, path_graph(len(body.vertices)))
        short = next(
            cls.index for cls in family.classes
            if len(cls.representative.body.vertices) == 3
        )
        long = next(
            cls.index for cls in family.classes
            if len(cls.representative.body.vertices) == 4
        )
        lift = canonical_lift(path_graph(3), family)
        assert lift.ext_map()[short] == {("p0", "p2"), ("p2", "p0")}
        assert lift.ext_map()[long] == {
            ("p0", "p1"), ("p1", "p0"), ("p1", "p2"), ("p2", "p1"),
        }
        rng = random.Random(909)
        done = 0
        while done < 50:
            n = rng.randint(2, 8)
            verts = [f"g{i}" for i in range(n)]
            edges = [
                (verts[i], verts[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.18
            ]
            G = graph(verts, edges)
            if not forb_membership(G, family.members):
                continue
            ext = canonical_lift(G, family).ext_map()
            fixture = distance_lift_fixture(G, 5)
            dist = graph_distances(G)
            odd = {
                (u, v) for (u, v), d in dist.items() if u != v and d in (1, 3)
            }
            # even walks between distinct vertices realise exactly the
            # fixture's distance-two relation; odd walks realise adjacency
            # or graph distance three
            assert ext[short] == fixture.rho_map()[2]
            assert ext[long] == frozenset(odd)
            done += 1


def _k2_witness_fixtures():
    edge = [("u", "v")]
    return [
        graph(["u", "v"], edge),
        graph(["u", "v", "t0"], edge + [("u", "t0")]),
        graph(["u", "v", "t0", "t1"], edge + [("u", "t0"), ("t0", "t1")]),
        graph(["u", "v", "s0"], edge + [("v", "s0")]),
        graph(["u", "v", "s0", "s1"], edge + [("v", "s0"), ("v", "s1")]),
        graph(
            ["u", "v", "w0", "w1", "w2", "w3", "w4"],
            edge
            + [
                ("u", "w0"), ("w0", "w1"), ("w1", "w2"),
                ("w2", "w3"), ("w3", "w4"), ("w4", "v"),
            ],
        ),
    ]


def test_criterion_10_witness_amalgamation():
    with criterion(10, "witness amalgams stay in the class", 60.0):
        family = PieceFamily([cycle_graph(5)])
        K2 = graph(["u", "v"], [("u", "v")])
        fixtures = _k2_witness_fixtures()
        lifts = [
            canonical_lift(W, family).restrict(["u", "v"]) for W in fixtures
        ]
        checked = 0
        for (W1, X1), (W2, X2) in itertools.combinations(
            list(zip(fixtures, lifts)), 2
        ):
            if X1 != X2:
                continue
            result = witness_amalgam(X1, X2, X1, W1, W2.rename(
                {v: f"o.{v}" for v in W2.vertices if v not in ("u", "v")}
            ))
            assert result.ok, result.failures
            assert forb_membership(result.structure, family.members)
            assert result.lift.restrict(["u", "v"]) == X1
            checked += 1
        assert checked >= 5


def test_criterion_11_unary_ramsey():
    with criterion(11, "unary-function Ramsey fixtures", 120.0):
        UF = language(("f", 2), ("leq", 2), order_symbol="leq")
        fixed = Structure(UF, ["a"], {"f": [("a", "a")], "leq": [("a", "a")]})
        two_fixed = Structure(
            UF,
            ["u", "v"],
            {"f": [("u", "u"), ("v", "v")], "leq": linear_order_tuples(["u", "v"])},
        )
        orbit = Structure(
            UF,
            ["u", "v"],
            {"f": [("u", "v"), ("v", "v")], "leq": linear_order_tuples(["u", "v"])},
        )
        orbit_plus = Structure(
            UF,
            ["u", "v", "w"],
            {
                "f": [("u", "v"), ("v", "v"), ("w", "w")],
                "leq": linear_order_tuples(["u", "v", "w"]),
            },
        )
        fixtures = [
            (fixed, two_fixed),
            (fixed, fixed),
            (orbit, orbit_plus),
        ]
        for A, B in fixtures:
            result = unary_ramsey(A, B)
            copies = len(verify_arrow(result.structure, A, B, 2, mode="sampled", sample=1).copies_of_a)
            if 2**copies <= 2**24:
                report = verify_arrow(result.structure, A, B, 2, mode="exhaustive")
                assert report.holds == "proved"
            else:
                report = verify_arrow(
                    result.structure, A, B, 2, mode="sampled", sample=10_000, seed=1
                )
                assert report.holds != "refuted"


def test_criterion_12_completion_iff_strong():
    with criterion(12, "completion iff strong completion at four vertices", 300.0):
        for plugin in (PosetPlugin(), MetricPlugin(distance_set(1, 2, 3, 4))):
            report = completion_iff_strong(plugin, 4)
            assert report.holds, plugin.name
            assert report.checked > 500
