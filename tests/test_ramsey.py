import itertools
import random

import pytest

from ramseyforge.build import (
    ORDERED_GRAPH,
    ORDERED_POINTED,
    complete_graph,
    cycle_graph,
    graph,
    linear_order_tuples,
    ordered_graph,
    path_graph,
    pointed_equivalence,
)
from ramseyforge.closures import closure_description, is_U_closed
from ramseyforge.errors import CapError, PreconditionError
from ramseyforge.pieces import PieceFamily, canonical_lift
from ramseyforge.ramsey import (
    PartiteSystem,
    arrow_certificate_refutes,
    admissible_reorder,
    colouring_search,
    distance_lift_fixture,
    graph_distances,
    hales_jewett_N,
    lines_for,
    partite_construction,
    partite_copies,
    partite_lemma,
    picture_zero,
    unary_ramsey,
    verify_arrow,
)
from ramseyforge.structures import (
    Structure,
    are_isomorphic,
    language,
    verify_morphism,
)

from colouring_oracle import oracle_search
from conftest import random_graph

OV = Structure(ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]})
UF = language(("f", 2), ("leq", 2), order_symbol="leq")


def one_part_system(n):
    carrier = Structure(
        ORDERED_GRAPH,
        [f"b{i}" for i in range(n)],
        {"leq": [(f"b{i}", f"b{i}") for i in range(n)]},
    )
    return PartiteSystem.make(OV, carrier, {v: "1" for v in carrier.vertices})


class TestHalesJewett:
    def test_two_letters_two_colours(self):
        result = hales_jewett_N(2, 2)
        assert result.conclusive and result.value == 2

    def test_single_letter(self):
        assert hales_jewett_N(1, 7).value == 1

    def test_three_letters_inconclusive_with_bound(self):
        result = hales_jewett_N(3, 2)
        assert not result.conclusive
        assert result.value is None
        assert result.lower_bound == 3

    def test_lines_count(self):
        # (t+1)^N - t^N lines over t letters in dimension N
        for t, N in [(2, 2), (3, 2), (2, 3)]:
            assert len(lines_for(t, N)) == (t + 1) ** N - t**N

    def test_dimension_one_fails_for_two_colours(self):
        # colouring the two singleton points differently kills every line
        result = hales_jewett_N(2, 2)
        assert result.value != 1

    def test_three_letter_cube_has_a_good_colouring(self):
        # a 2-colouring of [3]^3 with no monochromatic line: HJ(3,2) >= 4
        index = {p: i for i, p in enumerate(itertools.product(range(3), repeat=3))}
        line_sets = [tuple(index[p] for p in pts) for _, pts in lines_for(3, 3)]
        colouring, nodes = colouring_search(27, 2, line_sets)
        assert colouring is not None and nodes > 0
        for line in line_sets:
            assert len({colouring[i] for i in line}) == 2


class TestPartiteSystem:
    def test_transversality_enforced(self):
        carrier = Structure(
            ORDERED_GRAPH,
            ["x", "y"],
            {"E": [("x", "y"), ("y", "x")], "leq": [("x", "x"), ("y", "y")]},
        )
        with pytest.raises(PreconditionError):
            PartiteSystem.make(OV, carrier, {"x": "1", "y": "1"})

    def test_projection_must_be_hom_embedding(self):
        base = ordered_graph(["1", "2"], [])
        carrier = Structure(
            ORDERED_GRAPH,
            ["x", "y"],
            {"E": [("x", "y"), ("y", "x")], "leq": [("x", "x"), ("y", "y")]},
        )
        with pytest.raises(PreconditionError):
            PartiteSystem.make(base, carrier, {"x": "1", "y": "2"})

    def test_partite_copies_invert_projection(self):
        system = one_part_system(3)
        assert len(partite_copies(system)) == 3


class TestPartiteLemma:
    def test_micro_product(self):
        result = partite_lemma(OV, one_part_system(2), N=2)
        C = result.system.carrier
        assert len(C.vertices) == 4
        assert len(result.lines) == 5

    def test_mono_line_property_exhaustive(self):
        result = partite_lemma(OV, one_part_system(2), N=2)
        verts = sorted(result.system.carrier.vertices)
        images = [frozenset(le.morphism.image_vertices()) for le in result.lines]
        for bits in itertools.product([0, 1], repeat=len(verts)):
            colour = dict(zip(verts, bits))
            assert any(
                len({colour[v] for v in img}) == 1 for img in images
            )

    def test_degenerate_single_copy(self):
        system = one_part_system(1)
        result = partite_lemma(OV, system, N=1)
        assert are_isomorphic(result.system.carrier, system.carrier)

    def test_line_embeddings_verify(self):
        result = partite_lemma(OV, one_part_system(2), N=2)
        for le in result.lines:
            assert verify_morphism(le.morphism)

    def test_pointed_equivalence_closedness_transfer(self):
        U = closure_description(
            ("U", Structure(ORDERED_POINTED, ["1"], {"leq": [("1", "1")]}))
        )
        A = pointed_equivalence([["u", "s"]], ordered=True, order=["u", "s"])
        # two disjoint pointed pairs over the two parts of A
        carrier = Structure(
            ORDERED_POINTED,
            ["u0", "u1", "s0", "s1"],
            {
                "U": [("u0", "s0"), ("u1", "s1")],
                "S": [("s0",), ("s1",)],
                "leq": [("u0", "u0"), ("u1", "u1"), ("s0", "s0"), ("s1", "s1"),
                         ("u0", "s0"), ("u1", "s1")],
            },
        )
        system = PartiteSystem.make(
            A, carrier, {"u0": "u", "u1": "u", "s0": "s", "s1": "s"}
        )
        assert is_U_closed(carrier, U)
        result = partite_lemma(A, system, U=U, N=2)
        assert is_U_closed(result.system.carrier, U)

    def test_t_zero_rejected(self):
        empty_carrier = Structure(ORDERED_GRAPH, [], {})
        system = PartiteSystem.make(OV, empty_carrier, {})
        with pytest.raises(PreconditionError):
            partite_lemma(OV, system, N=1)

    def test_size_guard(self):
        with pytest.raises(CapError):
            partite_lemma(OV, one_part_system(9), N=8, size_guard=100)


class TestPictureZero:
    def test_triangle_of_edges(self):
        C0 = ordered_graph([f"t{i}" for i in range(3)],
                           [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
        B = ordered_graph(["a", "b"], [("a", "b")])
        system = picture_zero(B, C0)
        assert len(system.carrier.vertices) == 6
        assert len(system.carrier.tuples("E")) == 6  # three symmetric edges

    def test_single_copy(self):
        B = ordered_graph(["a", "b"], [("a", "b")])
        system = picture_zero(B, B)
        assert are_isomorphic(system.carrier, B)

    def test_no_copies_empty_picture(self):
        C0 = ordered_graph(["x", "y"], [])
        B = ordered_graph(["a", "b"], [("a", "b")])
        system = picture_zero(B, C0)
        assert system.carrier.vertices == ()


class TestArrow:
    def test_pigeonhole_triangle(self, k3, k2):
        K1 = graph(["x"], [])
        report = verify_arrow(k3, K1, k2, 2)
        assert report.holds == "proved"

    def test_path_refuted_with_certificate(self, p3, k2):
        K1 = graph(["x"], [])
        report = verify_arrow(p3, K1, k2, 2)
        assert report.holds == "refuted"
        assert arrow_certificate_refutes(p3, K1, k2, report.colouring)
        cert = report.certificate()
        # the middle vertex separates both edges: it carries the odd colour
        assert cert["v"] != cert["u"] and cert["v"] != cert["w"]

    def test_matches_brute_force(self, k2):
        K1 = graph(["x"], [])
        rng = random.Random(19)
        for _ in range(40):
            C = random_graph(rng, rng.randint(2, 6))
            report = verify_arrow(C, K1, k2, 2)
            brute = self._brute(C, K1, k2, 2)
            assert report.holds == brute

    @staticmethod
    def _brute(C, A, B, k):
        from ramseyforge.ramsey import _has_mono, _mono_sets

        a_images, b_images, groups = _mono_sets(C, A, B)
        if not b_images:
            return "refuted"
        for colouring in itertools.product(range(k), repeat=len(a_images)):
            if not _has_mono(colouring, groups):
                return "refuted"
        return "proved"

    def test_three_colours(self):
        K1 = graph(["x"], [])
        k2 = graph(["a", "b"], [("a", "b")])
        K4 = complete_graph(4)
        assert verify_arrow(K4, K1, k2, 3).holds == "proved"
        assert verify_arrow(complete_graph(3), K1, k2, 3).holds == "refuted"

    def test_sampled_mode_finds_refutation(self, p3, k2):
        K1 = graph(["x"], [])
        report = verify_arrow(p3, K1, k2, 2, mode="sampled", sample=200, seed=5)
        assert report.holds == "refuted"
        assert report.seed == 5

    def test_sampled_mode_inconclusive_on_proved(self, k3, k2):
        K1 = graph(["x"], [])
        report = verify_arrow(k3, K1, k2, 2, mode="sampled", sample=50, seed=1)
        assert report.holds == "inconclusive"

    def test_no_copies_of_b(self, p3, k3):
        K1 = graph(["x"], [])
        report = verify_arrow(p3, K1, k3, 2)
        assert report.holds == "refuted"

    def test_reports_are_deterministic(self, p3, k2):
        K1 = graph(["x"], [])
        a = verify_arrow(p3, K1, k2, 2)
        b = verify_arrow(p3, K1, k2, 2)
        assert a == b

    def test_auto_proves_k8_triangles_by_complete_search(self):
        # 2^28 edge colourings exceed the cap, but the search needs far
        # fewer nodes than that
        report = verify_arrow(complete_graph(8), complete_graph(2), complete_graph(3), 2)
        assert report.holds == "proved" and report.mode == "exhaustive"

    def test_exhaustive_raises_when_nodes_run_out(self):
        with pytest.raises(CapError):
            verify_arrow(
                complete_graph(8), complete_graph(2), complete_graph(3), 2,
                mode="exhaustive", exhaustive_cap=100,
            )

    def test_auto_samples_when_nodes_run_out(self):
        report = verify_arrow(
            complete_graph(8), complete_graph(2), complete_graph(3), 2,
            mode="auto", exhaustive_cap=100,
        )
        assert report.holds == "inconclusive" and report.mode == "sampled"

    def test_auto_samples_after_sample_times_copies_nodes(self, monkeypatch):
        # K17 arrows (K3)^edge_3 (R(3,3,3) = 17), but the complete search
        # needs far more than 50 x 136 nodes, so auto falls back to its 50
        # samples at once instead of spending the 2^24-node cap first
        from ramseyforge import ramsey

        budgets = []

        def spy(n, k, groups, node_budget=None):
            budgets.append(node_budget)
            return colouring_search(n, k, groups, node_budget)

        monkeypatch.setattr(ramsey, "colouring_search", spy)
        report = verify_arrow(
            complete_graph(17), complete_graph(2), complete_graph(3), 3,
            mode="auto", sample=50,
        )
        assert budgets == [50 * 136]
        assert report.holds == "inconclusive" and report.mode == "sampled"
        assert report.colourings_examined == 50

    @pytest.mark.parametrize("n, b, k", [(5, 3, 2), (7, 3, 3), (8, 4, 2)])
    def test_refuting_colouring_is_the_oracle_s(self, n, b, k):
        from ramseyforge.ramsey import _mono_sets

        C, A, B = complete_graph(n), complete_graph(2), complete_graph(b)
        report = verify_arrow(C, A, B, k)
        a_images, _, groups = _mono_sets(C, A, B)
        colouring, nodes = oracle_search(len(a_images), k, groups)
        assert report.holds == "refuted"
        assert report.colouring == tuple(colouring)
        assert report.colourings_examined <= nodes


class TestConstruction:
    def test_micro_end_to_end(self):
        C0 = ordered_graph([f"t{i}" for i in range(3)],
                           [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
        B = ordered_graph(["a", "b"], [("a", "b")])
        result = partite_construction(OV, B, C0)
        report = verify_arrow(result.structure, OV, B, 2)
        assert report.holds == "proved"
        assert verify_morphism(result.projection)

    def test_no_copies_of_a_returns_picture_zero(self):
        C0 = Structure(ORDERED_GRAPH, ["x", "y"],
                       {"E": [("x", "y"), ("y", "x")],
                        "leq": linear_order_tuples(["x", "y"])})
        B = ordered_graph(["a", "b"], [("a", "b")])
        # an A that never embeds: a vertex with a loop
        A_loop = Structure(ORDERED_GRAPH, ["1"], {"E": [("1", "1")], "leq": [("1", "1")]})
        result = partite_construction(A_loop, B, C0, assert_arrow=True)
        assert len(result.structure.vertices) == 2

    def test_pointed_equivalence_stays_closed(self):
        U = closure_description(
            ("U", Structure(ORDERED_POINTED, ["1"], {"leq": [("1", "1")]}))
        )
        A = Structure(ORDERED_POINTED, ["s"], {"S": [("s",)], "leq": [("s", "s")]})
        B = pointed_equivalence([["u", "s"]], ordered=True, order=["u", "s"])
        C0 = Structure(
            ORDERED_POINTED,
            ["u", "w", "s"],
            {
                "U": [("u", "s"), ("w", "s")],
                "S": [("s",)],
                "leq": linear_order_tuples(["u", "w", "s"]),
            },
        )
        result = partite_construction(A, B, C0, U=U)
        assert is_U_closed(result.structure, U)
        assert verify_arrow(result.structure, A, B, 2).holds == "proved"

    def test_two_class_pointed_instance_has_real_arrow(self):
        # A = one special vertex, B = two pointed pairs, C0 = three pointed
        # pairs: every copy of B carries two copies of A, so the final arrow
        # is a genuine pigeonhole over the special vertices
        U = closure_description(
            ("U", Structure(ORDERED_POINTED, ["1"], {"leq": [("1", "1")]}))
        )
        A = Structure(ORDERED_POINTED, ["s"], {"S": [("s",)], "leq": [("s", "s")]})

        def pairs(k, prefix=""):
            classes = [[f"{prefix}u{i}", f"{prefix}s{i}"] for i in range(k)]
            order = [v for cls in classes for v in cls]
            return pointed_equivalence(classes, ordered=True, order=order)

        B = pairs(2)
        C0 = pairs(3)
        assert is_U_closed(B, U) and is_U_closed(C0, U)
        result = partite_construction(A, B, C0, U=U)
        assert is_U_closed(result.structure, U)
        report = verify_arrow(result.structure, A, B, 2, mode="exhaustive")
        assert report.holds == "proved"
        # nondegenerate: some copy of B holds two copies of A
        from ramseyforge.ramsey import _mono_sets

        _, _, groups = _mono_sets(result.structure, A, B)
        assert groups and all(len(g) == 2 for g in groups)

    def test_arrow_precondition_checked(self):
        C0 = ordered_graph(["x", "y"], [])  # no edge: no copy of B survives
        B = ordered_graph(["a", "b"], [("a", "b")])
        with pytest.raises(PreconditionError):
            partite_construction(OV, B, C0)

    def test_product_step_runs_until_dimension_is_unavailable(self):
        # two ordered triangles over a shared edge: the first power step (the
        # shared pair carries two copies) succeeds; later steps need an
        # unknown Hales-Jewett dimension and abort loudly
        verts = ["q0", "q1", "q2", "q3"]
        edges = [("q0", "q1"), ("q0", "q2"), ("q1", "q2"), ("q1", "q3"), ("q2", "q3")]
        C0 = ordered_graph(verts, edges)
        A = ordered_graph(["a0", "a1"], [("a0", "a1")])
        B = ordered_graph(["b0", "b1", "b2"],
                          [("b0", "b1"), ("b0", "b2"), ("b1", "b2")])
        with pytest.raises(CapError):
            partite_construction(A, B, C0, assert_arrow=True, size_guard=3000)

    def test_all_power_steps_when_degenerate(self):
        # one copy of B: every power step is the trivial one-line product
        C0 = ordered_graph([f"t{i}" for i in range(3)],
                           [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
        A = ordered_graph(["a0", "a1"], [("a0", "a1")])
        result = partite_construction(A, C0, C0, assert_arrow=True)
        assert all(step.startswith("power:") for step in result.steps)
        assert are_isomorphic(result.structure, C0)

    def test_u_substructure_precondition(self):
        U = closure_description(
            ("U", Structure(ORDERED_POINTED, ["1"], {"leq": [("1", "1")]}))
        )
        # A = bare non-special vertex: its copies inside C0 drag closures
        A = Structure(ORDERED_POINTED, ["u"], {"leq": [("u", "u")]})
        B = pointed_equivalence([["u", "s"]], ordered=True, order=["u", "s"])
        C0 = B
        with pytest.raises(PreconditionError):
            partite_construction(A, B, C0, U=U, assert_arrow=True)


class TestUnaryRamsey:
    def fixed_point(self):
        return Structure(UF, ["a"], {"f": [("a", "a")], "leq": [("a", "a")]})

    def two_fixed_points(self):
        return Structure(
            UF,
            ["u", "v"],
            {"f": [("u", "u"), ("v", "v")], "leq": linear_order_tuples(["u", "v"])},
        )

    def test_pigeonhole_fixture(self):
        result = unary_ramsey(self.fixed_point(), self.two_fixed_points())
        assert result.dimension == 3
        report = verify_arrow(result.structure, self.fixed_point(), self.two_fixed_points(), 2)
        assert report.holds == "proved"

    def test_b_equals_a(self):
        A = self.fixed_point()
        result = unary_ramsey(A, A)
        assert are_isomorphic(result.structure, A)

    def test_orbit_fixture(self):
        A = Structure(
            UF, ["u", "v"],
            {"f": [("u", "v"), ("v", "v")], "leq": linear_order_tuples(["u", "v"])},
        )
        B = Structure(
            UF, ["u", "v", "w"],
            {"f": [("u", "v"), ("v", "v"), ("w", "w")],
             "leq": linear_order_tuples(["u", "v", "w"])},
        )
        result = unary_ramsey(A, B)
        assert result.dimension == 6
        report = verify_arrow(result.structure, A, B, 2)
        assert report.holds == "proved"

    def test_quotient_embeds_every_indexed_copy(self):
        A = self.fixed_point()
        B = self.two_fixed_points()
        result = unary_ramsey(A, B)
        assert len(result.copies) == 3
        for m in result.copies:
            assert verify_morphism(m)

    def test_requires_total_functions(self):
        partial = Structure(UF, ["a", "b"],
                            {"f": [("a", "b")], "leq": linear_order_tuples(["a", "b"])})
        with pytest.raises(PreconditionError):
            unary_ramsey(self.fixed_point(), partial)

    @pytest.mark.parametrize(
        "leq",
        [
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "a")],
            [("a", "b"), ("b", "c"), ("a", "c")],
        ],
        ids=["cyclic", "irreflexive"],
    )
    def test_rejects_non_linear_order(self, leq):
        B = Structure(
            UF, ["a", "b", "c"], {"f": [("a", "a"), ("b", "b"), ("c", "c")], "leq": leq}
        )
        with pytest.raises(PreconditionError, match="order relation must be linear"):
            unary_ramsey(self.fixed_point(), B)

    def test_dimension_table_gap(self):
        A = Structure(
            UF, ["u", "v", "x"],
            {"f": [("u", "u"), ("v", "v"), ("x", "x")],
             "leq": linear_order_tuples(["u", "v", "x"])},
        )
        B = Structure(
            UF, ["u", "v", "x", "y"],
            {"f": [("u", "u"), ("v", "v"), ("x", "x"), ("y", "y")],
             "leq": linear_order_tuples(["u", "v", "x", "y"])},
        )
        with pytest.raises(PreconditionError):
            unary_ramsey(A, B)
        result = unary_ramsey(A, B, N=7)
        assert result.dimension == 7


class TestAdmissibleReorder:
    def rank(self, singleton):
        v = singleton.vertices[0]
        return 0 if (v, v) in singleton.tuples("E") else 1

    def test_loops_come_first(self):
        DIG = language(("E", 2), ("leq", 2), order_symbol="leq")
        C = Structure(
            DIG, ["a", "b", "c"],
            {"E": [("a", "a"), ("b", "c")], "leq": linear_order_tuples(["b", "a", "c"])},
        )
        B = Structure(DIG, ["x"], {"E": [("x", "x")], "leq": [("x", "x")]})
        out = admissible_reorder(C, B, self.rank)
        from ramseyforge.ramsey import _order_ranks

        order = _order_ranks(out)
        assert order[0] == "a"  # the loop vertex moved to the front

    def test_trivial_spec_is_identity(self):
        C = ordered_graph(["a", "b"], [("a", "b")])
        B = ordered_graph(["x", "y"], [("x", "y")])
        out = admissible_reorder(C, B, lambda s: 0)
        assert out == C

    def test_conflicting_copy_rejected(self):
        DIG = language(("E", 2), ("leq", 2), order_symbol="leq")
        # B holds a non-loop before a loop: incompatible with loops-first
        B = Structure(
            DIG, ["x", "y"],
            {"E": [("y", "y"), ("x", "y"), ("y", "x")],
             "leq": linear_order_tuples(["x", "y"])},
        )
        C = B
        with pytest.raises(PreconditionError):
            admissible_reorder(C, B, self.rank)


class TestDistanceLift:
    def test_p4_distance_two(self):
        lift = distance_lift_fixture(path_graph(4), 5)
        rho = lift.rho_map()
        assert rho[2] == frozenset(
            {("p0", "p2"), ("p2", "p0"), ("p1", "p3"), ("p3", "p1")}
        )

    def test_k2_adds_nothing(self):
        lift = distance_lift_fixture(graph(["a", "b"], [("a", "b")]), 5)
        assert all(not ts for _, ts in lift.rho)

    def test_rejects_short_odd_girth(self):
        with pytest.raises(PreconditionError):
            distance_lift_fixture(complete_graph(3), 5)

    def test_matches_canonical_lift_on_random_c5_free_graphs(self):
        family = PieceFamily([cycle_graph(5)])
        short = next(
            cls.index for cls in family.classes
            if len(cls.representative.body.vertices) == 3
        )
        long = next(
            cls.index for cls in family.classes
            if len(cls.representative.body.vertices) == 4
        )
        rng = random.Random(29)
        done = 0
        while done < 10:
            G = random_graph(rng, rng.randint(2, 7), p=0.2)
            from ramseyforge.pieces import forb_membership

            if not forb_membership(G, family.members):
                continue
            lift = canonical_lift(G, family)
            dl = distance_lift_fixture(G, 5)
            dist = graph_distances(G)
            ext = lift.ext_map()
            # even walks realise exactly graph distance two
            assert ext[short] == dl.rho_map()[2]
            # odd walks realise adjacency or graph distance three
            expect_long = set()
            for (u, v), d in dist.items():
                if u != v and d in (1, 3):
                    expect_long.add((u, v))
            assert ext[long] == frozenset(expect_long)
            done += 1

    def test_amalgam_of_lifts_is_strong(self):
        # shared lifted part, free amalgam of the shadows, re-lift: the
        # original distance lifts embed (distances on the overlap survive)
        left = path_graph(3, "a")     # a0-a1-a2
        right = path_graph(3, "b")    # b0-b1-b2
        shared = graph(["a0"], [])
        from ramseyforge.structures import free_amalgamation

        am = free_amalgamation(
            left, right.rename({"b0": "a0"}), shared
        )
        glued = am.structure
        lift = distance_lift_fixture(glued, 5)
        sub_left = distance_lift_fixture(left, 5)
        rho = lift.rho_map()
        for i, ts in sub_left.rho:
            assert ts <= rho[i]
