import random

import pytest

from ramseyforge.build import (
    ORDERED_GRAPH,
    complete_graph,
    cycle_graph,
    graph,
    path_graph,
)
from ramseyforge.errors import PreconditionError
from ramseyforge.pieces import (
    PieceFamily,
    RootedStructure,
    canonical_lift,
    forb_membership,
    incompatibility_set,
    lift_sidecar,
    maximal_lift,
    minimal_separating_cuts,
    piece_equivalence_classes,
    piece_glue,
    pieces,
    witness_amalgam,
)
from ramseyforge.structures import (
    Structure,
    are_isomorphic,
    induced_substructure,
    is_connected,
)

from conftest import gaifman_adjacency, random_graph


@pytest.fixture(scope="module")
def c5_family():
    return PieceFamily([cycle_graph(5)])


class TestCuts:
    def test_c5_has_five_distance_two_cuts(self, c5):
        cuts = minimal_separating_cuts(c5)
        assert len(cuts) == 5
        adj = gaifman_adjacency(c5)
        for cut in cuts:
            u, v = sorted(cut.cut)
            assert v not in adj[u]  # the cut pairs are non-adjacent

    def test_complete_graphs_have_no_cuts(self):
        assert minimal_separating_cuts(complete_graph(4)) == []

    def test_cut_condition_holds(self, c5):
        adj = gaifman_adjacency(c5)
        for cut in minimal_separating_cuts(c5):
            for side in cut.sides:
                neigh = set().union(*(adj[v] for v in side)) - side
                assert neigh == cut.cut

    def test_regression_not_inclusion_minimal(self):
        # a minimal separating cut properly containing another vertex cut
        A = graph(
            ["a", "b", "c", "r1", "r2"],
            [("a", "r1"), ("a", "r2"), ("b", "r1"), ("b", "r2"), ("c", "r1")],
        )
        cuts = minimal_separating_cuts(A)
        cut_sets = {c.cut for c in cuts}
        big = frozenset({"r1", "r2"})
        small = frozenset({"r1"})
        assert big in cut_sets and small in cut_sets
        assert small < big


class TestPieces:
    def test_c5_pieces_are_paths(self, c5):
        ps = pieces(c5)
        sizes = sorted(len(p.body.vertices) for p in ps)
        assert sizes == [3, 4]
        for p in ps:
            assert is_connected(p.body)
            assert are_isomorphic(p.body, path_graph(len(p.body.vertices)))

    def test_tree_pieces_are_rooted_branches(self):
        star = graph(["c", "l1", "l2", "l3"], [("c", "l1"), ("c", "l2"), ("c", "l3")])
        ps = pieces(star)
        # all branches of the star are the same rooted edge
        assert len(ps) == 1 and ps[0].root == ("c",)
        p4 = path_graph(4)
        sizes = sorted(len(p.body.vertices) for p in pieces(p4))
        assert sizes == [2, 3]
        for p in pieces(p4):
            assert p.width == 1

    def test_irreducible_structures_have_none(self, k3):
        assert pieces(k3) == []

    def test_disconnected_rejected(self):
        two = graph(["a", "b"], [])
        with pytest.raises(PreconditionError):
            pieces(two)


class TestGlue:
    def test_c5_decomposition_round_trip(self, c5):
        for p in pieces(c5):
            complement_vs = set(c5.vertices) - p.rooted().interior()
            complement = RootedStructure(
                induced_substructure(c5, complement_vs), p.root
            )
            glued = piece_glue(p.rooted(), complement)
            assert glued is not None
            assert are_isomorphic(glued, c5)

    def test_mismatched_roots_undefined(self):
        edge_rooted = RootedStructure(graph(["a", "b"], [("a", "b")]), ("a", "b"))
        hole_rooted = RootedStructure(graph(["x", "y"], []), ("x", "y"))
        assert piece_glue(edge_rooted, hole_rooted) is None

    def test_root_only_complement_is_identity(self, c5):
        p = pieces(c5)[0]
        stub = RootedStructure(
            induced_substructure(c5, p.root), p.root
        )
        glued = piece_glue(p.rooted(), stub)
        assert are_isomorphic(glued, p.body)


class TestIncompatibility:
    def test_c5_path_complements(self, c5_family):
        path2 = [p for p in c5_family.pieces if len(p.body.vertices) == 3][0]
        inc = incompatibility_set(path2, c5_family)
        assert len(inc) == 1
        assert len(inc[0].body.vertices) == 4

    def test_no_matching_root_means_empty(self, c5_family):
        wide = RootedStructure(path_graph(4), ("p0", "p1", "p2"))
        assert incompatibility_set(wide, c5_family) == []

    def test_two_member_family_collects_both(self):
        family = PieceFamily([cycle_graph(5), cycle_graph(7)])
        path2 = [p for p in family.pieces if len(p.body.vertices) == 3][0]
        inc = incompatibility_set(path2, family)
        sizes = sorted(len(d.body.vertices) for d in inc)
        assert sizes == [4, 6]  # the 3- and 5-edge complements


class TestEquivalence:
    def test_c5_has_two_classes(self, c5_family):
        classes = piece_equivalence_classes(c5_family)
        assert len(classes) == 2
        assert [cls.width for cls in classes] == [2, 2]
        body_sizes = sorted(len(cls.representative.body.vertices) for cls in classes)
        assert body_sizes == [3, 4]

    def test_classes_share_incompatibility_sets(self, c5_family):
        for cls in c5_family.classes:
            keys = {
                c5_family.incompatibility_keys(p.rooted()) for p in cls.pieces
            }
            assert len(keys) == 1

    def test_weak_orderings_refine_by_orientation(self):
        # with every weak ordering of the 5-cycle forbidden, directed path
        # pieces exclude the one complement closing a directed cycle, so the
        # equivalence distinguishes orientations (finer than path length)
        members = []
        base = cycle_graph(5)
        edges = [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c0")]
        for mask in range(32):
            oriented = []
            for i, (u, v) in enumerate(edges):
                oriented.append((u, v) if mask >> i & 1 else (v, u))
            if _acyclic(oriented):
                leq = [(v, v) for v in base.vertices] + oriented
                members.append(
                    Structure(
                        ORDERED_GRAPH,
                        base.vertices,
                        {"E": [e for p in edges for e in (p, p[::-1])], "leq": leq},
                    )
                )
        family = PieceFamily(members)
        widths = {cls.width for cls in family.classes}
        assert widths == {2}
        sizes = sorted(
            (len(cls.representative.body.vertices), len(cls.pieces))
            for cls in family.classes
        )
        by_length = {}
        for cls in family.classes:
            by_length.setdefault(len(cls.representative.body.vertices), 0)
            by_length[len(cls.representative.body.vertices)] += 1
        assert by_length[3] > 1  # finer than one class per length
        assert by_length[4] > 1


def _acyclic(arcs):
    verts = {v for arc in arcs for v in arc}
    marks = {v: 0 for v in verts}
    out = {v: [] for v in verts}
    for u, v in arcs:
        out[u].append(v)

    def dfs(u):
        marks[u] = 1
        for w in out[u]:
            if marks[w] == 1 or (marks[w] == 0 and dfs(w)):
                return True
        marks[u] = 2
        return False

    return not any(dfs(v) for v in verts if marks[v] == 0)


class TestMembership:
    def test_c7_avoids_c5(self):
        assert forb_membership(cycle_graph(7), [cycle_graph(5)])

    def test_chord_makes_a_member(self):
        chord = graph(
            [f"c{i}" for i in range(5)],
            [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c0", "c4"), ("c0", "c2")],
        )
        report = forb_membership(chord, [cycle_graph(5)])
        assert not report
        assert report.witness is not None

    def test_empty_family(self):
        assert forb_membership(complete_graph(3), [])

    def test_modes(self):
        # the 4-cycle maps homomorphically onto an edge but does not embed
        c4 = cycle_graph(4)
        edge = graph(["a", "b"], [("a", "b")])
        assert not forb_membership(c4, [edge], mode="embedding")
        assert not forb_membership(c4, [edge], mode="monomorphism")
        square_free = graph(["a", "b"], [])
        assert forb_membership(square_free, [edge], mode="homomorphism")


class TestCanonicalLift:
    def test_p3_walk_relations(self, c5_family):
        lift = canonical_lift(path_graph(3), c5_family)
        ext = lift.ext_map()
        short = next(
            cls.index
            for cls in c5_family.classes
            if len(cls.representative.body.vertices) == 3
        )
        long = next(
            cls.index
            for cls in c5_family.classes
            if len(cls.representative.body.vertices) == 4
        )
        assert ext[short] == {("p0", "p2"), ("p2", "p0")}
        assert ext[long] == {
            ("p0", "p1"), ("p1", "p0"), ("p1", "p2"), ("p2", "p1"),
        }

    def test_single_vertex_lift_empty(self, c5_family):
        lift = canonical_lift(graph(["z"], []), c5_family)
        assert all(not ts for _, ts in lift.ext)

    def test_monotone_under_extension(self, c5_family):
        rng = random.Random(17)
        done = 0
        while done < 12:
            B = random_graph(rng, rng.randint(3, 6), p=0.25)
            if not forb_membership(B, c5_family.members):
                continue
            sub_verts = rng.sample(list(B.vertices), rng.randint(1, len(B.vertices)))
            A = induced_substructure(B, sub_verts)
            lift_A = canonical_lift(A, c5_family)
            lift_B = canonical_lift(B, c5_family).restrict(sub_verts)
            for i, ts in lift_A.ext:
                assert ts <= lift_B.ext_map()[i]
            done += 1

    def test_serialisation_sidecar(self, c5_family):
        lift = canonical_lift(path_graph(3), c5_family)
        lifted = lift.as_structure()
        names = lifted.language.names()
        assert any(name.startswith("ext:") for name in names)
        sidecar = lift_sidecar(lift)
        assert set(sidecar) == {"0", "1"}
        assert all("piece" in entry for entry in sidecar.values())


class TestMaximalLift:
    def test_k2_canonical_already_stable(self, c5_family):
        K2 = graph(["u", "v"], [("u", "v")])
        result = maximal_lift(K2, c5_family)
        assert result.status == "stable"
        assert result.lift == canonical_lift(K2, c5_family).restrict(["u", "v"])

    def test_p3_canonical_is_already_maximal(self, c5_family):
        # a 3-walk between vertices at distance two would close a 5-cycle,
        # so no extension can add anything beyond the canonical lift
        P3 = path_graph(3)
        result = maximal_lift(P3, c5_family)
        assert result.status == "stable"
        assert result.lift == canonical_lift(P3, c5_family)

    def test_isolated_pair_gains_even_walks_only(self, c5_family):
        # two loose vertices: attaching a 2-path realises the even-walk
        # relation; the odd one is then blocked (together they close C5)
        two = graph(["a", "b"], [])
        result = maximal_lift(two, c5_family)
        assert result.status == "stable"
        short = next(
            cls.index
            for cls in c5_family.classes
            if len(cls.representative.body.vertices) == 3
        )
        long = next(
            cls.index
            for cls in c5_family.classes
            if len(cls.representative.body.vertices) == 4
        )
        ext = result.lift.ext_map()
        assert ext[short] == {("a", "b"), ("b", "a")}
        assert ext[long] == frozenset()
        assert len(result.witness.vertices) > 2

    def test_single_vertex_stable(self, c5_family):
        result = maximal_lift(graph(["z"], []), c5_family)
        assert result.status == "stable"

    def test_cap_zero_flags_inconclusive(self, c5_family):
        result = maximal_lift(path_graph(3), c5_family, growth_cap=0)
        assert result.status == "inconclusive"
        assert result.lift == canonical_lift(path_graph(3), c5_family)

    def test_member_input_rejected(self, c5_family):
        with pytest.raises(PreconditionError):
            maximal_lift(cycle_graph(5), c5_family)


def _lifted_k2_fixture(family, decoration):
    """A witness around an edge: the edge plus a pendant decoration."""
    K2 = graph(["u", "v"], [("u", "v")])
    W = decoration
    X = canonical_lift(W, family).restrict(["u", "v"])
    return X, W


class TestWitnessAmalgam:
    def fixtures(self, family):
        edge = [("u", "v")]
        shapes = [
            graph(["u", "v"], edge),
            graph(["u", "v", "t0"], edge + [("u", "t0")]),
            graph(["u", "v", "t0", "t1"], edge + [("u", "t0"), ("t0", "t1")]),
            graph(["u", "v", "s0"], edge + [("v", "s0")]),
            # a long path between the endpoints (length six: no short odd cycle)
            graph(
                ["u", "v", "w0", "w1", "w2", "w3", "w4"],
                edge
                + [("u", "w0"), ("w0", "w1"), ("w1", "w2"), ("w2", "w3"), ("w3", "w4"), ("w4", "v")],
            ),
        ]
        return shapes

    def test_same_lift_amalgams_stay_in_class(self, c5_family):
        K2 = graph(["u", "v"], [("u", "v")])
        Z = canonical_lift(K2, c5_family)
        for W in self.fixtures(c5_family):
            X = canonical_lift(W, c5_family).restrict(["u", "v"])
            if X != Z:
                continue
            result = witness_amalgam(Z, Z, Z, W, K2)
            assert result.ok
            assert forb_membership(result.structure, c5_family.members)
            assert result.lift.restrict(["u", "v"]) == Z

    def test_disjoint_bases_give_disjoint_union(self, c5_family):
        A = graph(["a"], [])
        B = graph(["b"], [])
        Z = canonical_lift(graph([], []), c5_family)
        LA = canonical_lift(A, c5_family)
        LB = canonical_lift(B, c5_family)
        result = witness_amalgam(LA, LB, Z, A, B)
        assert result.ok
        assert sorted(result.structure.vertices) == ["a", "b"]

    def test_wrong_witness_reported(self, c5_family):
        # claim an ext tuple the witness does not justify
        K2 = graph(["u", "v"], [("u", "v")])
        genuine = canonical_lift(K2, c5_family)
        short = next(
            cls.index
            for cls in c5_family.classes
            if len(cls.representative.body.vertices) == 3
        )
        forged_ext = genuine.ext_map()
        forged_ext[short] = forged_ext[short] | {("u", "v")}
        from ramseyforge.pieces import LiftedStructure

        forged = LiftedStructure.make(K2, forged_ext, c5_family)
        result = witness_amalgam(forged, forged, forged, K2, K2)
        assert not result.ok
        assert result.failures
