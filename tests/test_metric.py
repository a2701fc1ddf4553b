import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.closures import is_U_closed
from ramseyforge.errors import PreconditionError
from ramseyforge.metric import (
    DistanceSet,
    SGraph,
    block_equivalence,
    blocks,
    complete_metric_graph,
    convex_lift,
    distance_set,
    four_values,
    is_associative,
    jump_numbers,
    non_metric_cycle_scan,
    oplus,
    s_length,
    strong_amalgam_metric,
    unimportant_paths,
)

S1234 = distance_set(1, 2, 3, 4)
S13 = distance_set(1, 3)
S1235 = distance_set(1, 2, 3, 5)


def jump_free_four_values_subsets(bound: int):
    out = []
    for r in range(1, bound + 1):
        for combo in itertools.combinations(range(1, bound + 1), r):
            S = distance_set(*combo)
            if four_values(S)[0] and not jump_numbers(S):
                out.append(S)
    return out


class TestOplus:
    def test_examples(self):
        assert oplus(S1234, 1, 1) == 2
        assert oplus(S13, 1, 1) == 1
        assert oplus(S1235, 2, 3) == 5

    def test_arguments_must_be_members(self):
        with pytest.raises(PreconditionError):
            oplus(S13, 2, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sets(
            st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_bounds_and_monotonicity(self, values):
        S = DistanceSet(values)
        vals = S.sorted()
        for a, b in itertools.product(vals, repeat=2):
            r = oplus(S, a, b)
            assert r in S.distances
            assert max(a, b) <= r <= a + b
            for c in vals:
                if c >= b:
                    assert oplus(S, a, c) >= r


class TestFourValues:
    def test_examples(self):
        assert four_values(S1234) == (True, None)
        assert four_values(S13) == (True, None)
        ok, witness = four_values(S1235)
        assert not ok
        a, b, c, d, x = witness
        assert (a, b, c, d, x) == (1, 1, 3, 5, 2)

    def test_witness_is_genuine(self):
        _, (a, b, c, d, x) = four_values(S1235)
        vals = S1235.sorted()

        def tri(p, q, r):
            return p <= q + r and q <= p + r and r <= p + q

        assert tri(a, b, x) and tri(c, d, x)
        assert not any(tri(a, c, y) and tri(b, d, y) for y in vals)


class TestAssociativity:
    def test_examples(self):
        assert is_associative(S1234)[0]
        ok, witness = is_associative(S1235)
        assert not ok and witness == (1, 1, 3)
        assert is_associative(distance_set(1))[0]

    def test_witness_value(self):
        a, b, c = is_associative(S1235)[1]
        assert oplus(S1235, oplus(S1235, a, b), c) == 5
        assert oplus(S1235, a, oplus(S1235, b, c)) == 3


class TestJumpsAndBlocks:
    def test_jump_examples(self):
        assert jump_numbers(S13) == {Fraction(1)}
        assert jump_numbers(S1234) == frozenset()
        assert jump_numbers(distance_set(1)) == frozenset()

    def test_block_examples(self):
        assert [b.sorted() for b in blocks(S13)] == [(1,), (3,)]
        assert [b.sorted() for b in blocks(S1234)] == [(1, 2, 3, 4)]
        assert [b.sorted() for b in blocks(distance_set(1, 2, 6, 7, 8))] == [
            (1, 2),
            (6, 7, 8),
        ]

    def test_block_maxima_are_jumps_or_max(self):
        for combo in itertools.combinations(range(1, 8), 3):
            S = distance_set(*combo)
            if not four_values(S)[0]:
                continue
            jumps = jump_numbers(S)
            for b in blocks(S):
                assert b.max == S.max or b.max in jumps

    def test_blocks_beyond_sixteen_distances(self):
        S = distance_set(*range(1, 9), *range(20, 28), *range(60, 64))
        assert len(S) == 20 and four_values(S)[0]
        assert jump_numbers(S) == {8, 27}
        assert [b.sorted() for b in blocks(S)] == [
            tuple(range(1, 9)),
            tuple(range(20, 28)),
            tuple(range(60, 64)),
        ]

    def test_blocks_need_four_values(self):
        with pytest.raises(PreconditionError, match="4-values"):
            blocks(distance_set(1, 2, 4))


class TestSLength:
    def test_examples(self):
        assert s_length(S1234, [1, 1]) == 2
        assert s_length(S1234, [1, 1, 1]) == 3
        assert s_length(S1234, [3]) == 3

    def test_empty_walk_rejected(self):
        with pytest.raises(PreconditionError):
            s_length(S1234, [])


class TestCompletion:
    def test_path_completes(self):
        G = SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1})
        result = complete_metric_graph(G, S1234)
        assert result.completed
        assert result.space.get("a", "c") == 2

    def test_non_metric_triangle(self):
        T = SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3})
        result = complete_metric_graph(T, S1234)
        assert not result.completed
        cert = result.certificate
        assert cert.recorded == 3 and cert.shortest == 2

    def test_four_cycle_1114(self):
        C = SGraph(
            ["a", "b", "c", "d"],
            {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 4},
        )
        assert not complete_metric_graph(C, S1234).completed

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            complete_metric_graph(SGraph(["a"]), S1235)

    def test_unconstrained_pairs_get_max(self):
        G = SGraph(["a", "b"], {})
        result = complete_metric_graph(G, S1234)
        assert result.space.get("a", "b") == 4

    def test_completion_dominates_every_completion(self):
        # the fold completion is the pointwise-largest completion: every
        # brute-forced completion sits below it (and it is one itself)
        rng = random.Random(23)
        pool = [S for S in jump_free_four_values_subsets(6) if len(S) >= 2]
        for _ in range(60):
            S = rng.choice(pool)
            space = _random_space(rng, S, rng.randint(3, 6))
            pairs = sorted(space.dist)
            removed = rng.sample(pairs, min(len(pairs), rng.randint(1, 3)))
            partial = SGraph(
                space.vertices,
                {p: q for p, q in space.dist.items() if p not in removed},
            )
            result = complete_metric_graph(partial, S)
            assert result.completed
            done = result.space
            assert done.is_metric(S)
            for p, q in partial.dist.items():
                assert done.dist[p] == q
            seen_any = False
            for assignment in itertools.product(S.sorted(), repeat=len(removed)):
                candidate = SGraph(
                    space.vertices,
                    {**partial.dist, **dict(zip(removed, assignment))},
                )
                if candidate.is_metric(S):
                    seen_any = True
                    for p in removed:
                        assert candidate.dist[p] <= done.dist[p]
            assert seen_any  # the original space itself completes the graph


def _random_space(rng, S, n):
    """A random total S-metric space: grow vertex by vertex, picking each new
    distance from the triangle-feasible values (restart on dead ends)."""
    while True:
        verts = [f"m{i}" for i in range(n)]
        dist: dict = {}
        ok = True
        for i, u in enumerate(verts):
            for v in verts[:i]:
                valid = []
                for q in S.sorted():
                    fits = True
                    for w in verts[:i]:
                        if w == v:
                            continue
                        a = dist.get((min(u, w), max(u, w)))
                        b = dist[(min(v, w), max(v, w))]
                        if a is not None and not (abs(a - b) <= q <= a + b):
                            fits = False
                            break
                    if fits:
                        valid.append(q)
                if not valid:
                    ok = False
                    break
                dist[(min(u, v), max(u, v))] = rng.choice(valid)
            if not ok:
                break
        if ok:
            space = SGraph(verts, dist)
            assert space.is_metric(S)
            return space


class TestCycleScan:
    def test_triangle_found(self):
        T = SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 3})
        cert = non_metric_cycle_scan(T, S1234)
        assert cert is not None and cert.verify(S1234)
        assert len(cert.distances) == 3

    def test_metric_space_scans_clean(self):
        space = SGraph(
            ["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}
        )
        assert non_metric_cycle_scan(space, S1234) is None

    def test_13_cycle_found_via_reduction(self):
        C = SGraph(
            ["a", "b", "c", "d"],
            {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("a", "d"): 3},
        )
        cert = non_metric_cycle_scan(C, S13)
        assert cert is not None and cert.verify(S13)
        assert len(cert.distances) <= 2 * len(S13)

    def test_jump_free_bound(self):
        # every minimal non-metric cycle over jump-free S fits |S|+1
        # vertices: at |S|+2 vertices no distance sequence violates the fold
        # (only the maximal edge of a cycle can beat the rest of the walk)
        for S in jump_free_four_values_subsets(5):
            n = len(S) + 2
            for seq in itertools.product(S.sorted(), repeat=n):
                path = list(seq)
                path.remove(max(seq))
                assert not max(seq) > s_length(S, path)


class TestUnimportantPaths:
    def test_13_tail_reduces(self):
        red = unimportant_paths([3, 1, 1, 1], S13)
        assert red.reduced == (1, 1, 3)
        assert red.segments == ((2, 2),)

    def test_jump_free_geodesic_has_no_stalls(self):
        red = unimportant_paths([1, 1, 1, 4], S1234)
        assert red.segments == ()
        assert red.reduced == (1, 1, 1, 4)

    def test_short_triangle_identity(self):
        red = unimportant_paths([1, 1, 3], S13)
        assert red.segments == () and red.reduced == (1, 1, 3)


class TestStrongAmalgam:
    def test_window_example(self):
        A = SGraph(["p", "q"], {("p", "q"): 3})
        B1 = SGraph(["p", "q", "x"], {("p", "q"): 3, ("x", "p"): 1, ("x", "q"): 3})
        B2 = SGraph(["p", "q", "y"], {("p", "q"): 3, ("y", "p"): 4, ("y", "q"): 1})
        out = strong_amalgam_metric(B1, B2, A, S1234)
        assert out.get("x", "y") == 4
        assert out.is_metric(S1234)

    def test_identical_extensions(self):
        A = SGraph(["p"], {})
        B1 = SGraph(["p", "x"], {("p", "x"): 2})
        B2 = SGraph(["p", "y"], {("p", "y"): 2})
        out = strong_amalgam_metric(B1, B2, A, S1234)
        assert out.is_metric(S1234)
        assert out.get("x", "y") == 4  # minimal fold of 2 (+) 2

    def test_disjoint_points(self):
        out = strong_amalgam_metric(SGraph(["x"]), SGraph(["y"]), SGraph([]), S1234)
        assert out.get("x", "y") == 4

    def test_random_agreeing_spaces(self):
        rng = random.Random(31)
        for _ in range(25):
            S = rng.choice(jump_free_four_values_subsets(5))
            base = _random_space(rng, S, rng.randint(1, 3))
            B1 = _extend_space(rng, base, S, 2, "x")
            B2 = _extend_space(rng, base, S, 2, "y")
            out = strong_amalgam_metric(B1, B2, base, S)
            assert out.is_metric(S)
            for p, q in B1.dist.items():
                assert out.dist[p] == q
            for p, q in B2.dist.items():
                assert out.dist[p] == q


def _extend_space(rng, base, S, extra, prefix):
    current = base
    for i in range(extra):
        name = f"{prefix}{i}"
        for _ in range(200):
            trial = dict(current.dist)
            for v in current.vertices:
                trial[(min(name, v), max(name, v))] = rng.choice(S.sorted())
            candidate = SGraph(list(current.vertices) + [name], trial)
            if candidate.is_metric(S):
                current = candidate
                break
        else:
            raise AssertionError("could not extend a metric space")
    return current


class TestBlocksOnSpaces:
    def test_block_equivalence_examples(self):
        path = SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1})
        assert block_equivalence(path, S13, 1) == (frozenset({"a", "b", "c"}),)
        far = SGraph(["a", "b"], {("a", "b"): 3})
        assert block_equivalence(far, S13, 1) == (frozenset({"a"}), frozenset({"b"}))
        assert block_equivalence(SGraph(["z"]), S13, 1) == (frozenset({"z"}),)


class TestConvexLift:
    def test_two_far_points(self):
        space = SGraph(["a", "b"], {("a", "b"): 3})
        lift = convex_lift(space, S13, ("a", "b"))
        assert len(lift.extended_order) == 4  # two closure vertices for j=1
        st = lift.as_structure()
        assert is_U_closed(st, lift.closure_description())

    def test_close_edge_single_class(self):
        space = SGraph(["a", "b"], {("a", "b"): 1})
        lift = convex_lift(space, S13, ("a", "b"))
        assert len(lift.extended_order) == 3

    def test_empty_space(self):
        lift = convex_lift(SGraph([]), S13, ())
        assert lift.extended_order == ()

    def test_round_trip_and_closure(self):
        rng = random.Random(41)
        S135 = distance_set(1, 3, 5)
        assert four_values(S135)[0]
        for _ in range(10):
            space = _random_space(rng, S135, rng.randint(2, 5))
            classes = block_equivalence(space, S135, 1)
            order = [v for cls in sorted(classes, key=sorted) for v in sorted(cls)]
            lift = convex_lift(space, S135, order)
            assert lift.shadow() == space
            assert is_U_closed(lift.as_structure(), lift.closure_description())

    def test_non_convex_order_rejected(self):
        space = SGraph(
            ["a", "b", "c"], {("a", "b"): 1, ("a", "c"): 3, ("b", "c"): 3}
        )
        with pytest.raises(PreconditionError):
            convex_lift(space, S13, ("a", "c", "b"))


class TestJumpFreeGrowth:
    def test_next_value_within_min_step(self):
        # jump-free four-values sets: above any non-maximal a some b lies in
        # (a, a + min(S)]
        for r in range(1, 11):
            for combo in itertools.combinations(range(1, 11), r):
                S = distance_set(*combo)
                if not four_values(S)[0] or jump_numbers(S):
                    continue
                vals = S.sorted()
                for a in vals:
                    if a == S.max:
                        continue
                    assert any(a < b <= a + S.min for b in vals)


class TestStructureRanksLanguage:
    """``structure_ranks`` refuses a declared symbol that is not a binary
    distance symbol of S, naming the least, before it reads a tuple."""

    def structure(self, symbols, rels):
        from ramseyforge.structures import Structure, language

        return Structure(language(*symbols), ["a", "b"], rels)

    @pytest.mark.parametrize(
        "symbols, rels, named",
        [
            ((("d:1", 2), ("d:3", 2), ("E", 2)), {"E": [("a", "b")]}, "'E' of arity 2"),
            # two foreign symbols, the least named; the faulty d:1 tuple is
            # never read
            ((("d:1", 2), ("d:3", 2), ("Z", 1), ("F", 2)), {"d:1": [("a", "b")]}, "'F' of arity 2"),
            ((("d:1", 3), ("d:3", 2)), {"d:1": [("a", "b", "a")]}, "'d:1' of arity 3"),
            ((("d:1", 2), ("d:2", 2), ("d:3", 2)), {}, "'d:2' of arity 2"),
        ],
    )
    def test_foreign_symbol_refused(self, symbols, rels, named):
        from ramseyforge.errors import StructureError
        from ramseyforge.metric import structure_ranks, structure_to_sgraph

        A = self.structure(symbols, rels)
        for read in (structure_ranks, structure_to_sgraph):
            with pytest.raises(StructureError, match=f"^symbol {named} is not a distance symbol"):
                read(A, S13)

    def test_reordered_language_is_read(self):
        from ramseyforge.metric import structure_ranks

        A = self.structure((("d:3", 2), ("d:1", 2)), {"d:3": [("a", "b"), ("b", "a")]})
        assert structure_ranks(A, S13) == {("a", "b"): 1}

    def test_undeclared_distance_holds_on_no_pair(self):
        # an S-graph that declares d:1 only; reading d:3 raised "unknown
        # symbol 'd:3'"
        from ramseyforge.metric import structure_ranks, structure_to_sgraph
        from ramseyforge.structures import Structure, language

        ones = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]
        A = Structure(language(("d:1", 2)), ["a", "b", "c"], {"d:1": ones})
        assert structure_ranks(A, S13) == {("a", "b"): 0, ("b", "c"): 0}
        G = structure_to_sgraph(A, S13)
        assert G.dist == {("a", "b"): 1, ("b", "c"): 1}
        result = complete_metric_graph(G, S13)
        assert result.completed and result.space.dist[("a", "c")] == 1
        assert structure_ranks(Structure(language(), [], {}), S13) == {}
