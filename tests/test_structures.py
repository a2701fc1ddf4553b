import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.build import (
    GRAPH,
    complete_graph,
    graph,
    ordered_graph,
)
from ramseyforge.errors import LanguageMismatchError, MorphismError, StructureError
from ramseyforge.structures import (
    Language,
    Morphism,
    Structure,
    are_isomorphic,
    canonical_key,
    connected_components,
    copies_of,
    enumerate_morphisms,
    free_amalgamation,
    gaifman_graph,
    induced_substructure,
    is_irreducible,
    is_strong_amalgamation,
    language,
    linear_order,
    search_morphisms,
    verify_morphism,
)

from conftest import random_graph
from search_oracle import hom_embedding_oracle


def ident(A, kind="embedding"):
    return Morphism.make(A, A, {v: v for v in A.vertices}, kind)


class TestLanguage:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StructureError):
            Language((("E", 2), ("E", 1)))

    def test_order_symbol_must_be_binary(self):
        with pytest.raises(StructureError):
            Language((("leq", 3),), order_symbol="leq")

    @pytest.mark.parametrize("arity", [True, False, 0, -1, 1.0, "2"])
    def test_invalid_arity_rejected(self, arity):
        # bool is an int subclass: True would pass for arity 1
        with pytest.raises(StructureError):
            Language((("U", arity),))

    def test_arity_lookup(self):
        lang = language(("R", 3), ("S", 1))
        assert lang.arity("R") == 3
        with pytest.raises(StructureError):
            lang.arity("T")


class TestStructure:
    def test_tuple_arity_checked(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, ["a"], {"E": [("a",)]})

    def test_undeclared_vertex_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, ["a"], {"E": [("a", "b")]})

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(StructureError):
            Structure(GRAPH, ["a", "a"], {})

    def test_vertices_sorted(self):
        A = Structure(GRAPH, ["b", "a"], {})
        assert A.vertices == ("a", "b")

    def test_equal_structures_built_apart_compare_and_hash_equal(self):
        # the key and hash are built on first use: compared before hashed,
        # hashed before compared, and from tuples given in another order,
        # as lists and from a generator
        edges = [("a", "b"), ("b", "c"), ("b", "a")]
        A = Structure(GRAPH, ["a", "b", "c"], {"E": edges})
        B = Structure(GRAPH, ["c", "b", "a"], {"E": (list(e) for e in reversed(edges))})
        C = Structure(GRAPH, ["a", "b", "c"], {"E": edges[:2]})
        assert A == B and A != C and B != C
        D = Structure(GRAPH, ["a", "b", "c"], {"E": set(edges)})
        assert hash(D) == hash(A) == hash(B)
        assert D == A and len({A, B, C, D}) == 2
        assert A != "not a structure"

    def test_a_structure_equals_itself(self):
        A = Structure(GRAPH, ["a", "b"], {"E": [("a", "b")]})
        assert A == A
        assert A in {A} and A in [A]

    def test_first_bad_tuple_after_good_ones_is_named(self):
        lang = language(("R", 2), ("U", 1))
        good = [("a", "b"), ("b", "a")]
        with pytest.raises(StructureError, match=r"tuple \('a',\) has length 1, expected 2 for 'R'"):
            Structure(lang, ["a", "b"], {"R": good + [("a",), ("a", "z")]})
        with pytest.raises(StructureError, match=r"tuple \('a', 'z'\) uses undeclared vertex 'z'"):
            Structure(lang, ["a", "b"], {"R": good + [("a", "z"), ("a",)]})
        with pytest.raises(StructureError, match=r"tuple \('y',\) uses undeclared vertex 'y'"):
            Structure(lang, ["a", "b"], {"U": [("a",), ("y",), ("x",)]})


class TestVerifyMorphism:
    def test_identity_embedding(self, p3):
        assert verify_morphism(ident(p3))

    def test_path_to_edge_is_hom_embedding(self, p3, k2):
        m = Morphism.make(p3, k2, {"u": "a", "v": "b", "w": "a"}, "homomorphism-embedding")
        assert verify_morphism(m)

    def test_same_map_is_not_mono(self, p3, k2):
        m = Morphism.make(p3, k2, {"u": "a", "v": "b", "w": "a"}, "monomorphism")
        assert not verify_morphism(m)

    def test_partial_map_raises(self, p3, k2):
        m = Morphism.make(p3, k2, {"u": "a", "v": "b"}, "homomorphism")
        with pytest.raises(MorphismError):
            verify_morphism(m)

    def test_loop_blocks_hom_embedding(self):
        # a singleton is irreducible, so its image may not gain a loop
        lang = language(("E", 2))
        loopless = Structure(lang, ["x"], {})
        loopy = Structure(lang, ["y"], {"E": [("y", "y")]})
        m = Morphism.make(loopless, loopy, {"x": "y"}, "homomorphism-embedding")
        assert not verify_morphism(m)
        assert not hom_embedding_oracle(m)

    def test_lazy_check_matches_exhaustive_oracle(self):
        rng = random.Random(7)
        lang = language(("E", 2), ("T", 3))
        checked = 0
        for _ in range(120):
            n = rng.randint(2, 4)
            verts = [f"v{i}" for i in range(n)]
            def rand_rel(arity, count):
                return [
                    tuple(rng.choice(verts) for _ in range(arity))
                    for _ in range(count)
                ]
            A = Structure(lang, verts, {"E": rand_rel(2, rng.randint(0, 4)),
                                        "T": rand_rel(3, rng.randint(0, 2))})
            m = rng.randint(1, 3)
            wverts = [f"w{i}" for i in range(m)]
            B = Structure(lang, wverts, {"E": [tuple(rng.choice(wverts) for _ in range(2)) for _ in range(rng.randint(0, 4))],
                                         "T": [tuple(rng.choice(wverts) for _ in range(3)) for _ in range(rng.randint(0, 2))]})
            for mapping in itertools.islice(
                itertools.product(wverts, repeat=n), 30
            ):
                f = Morphism.make(A, B, dict(zip(verts, mapping)), "homomorphism-embedding")
                assert verify_morphism(f) == hom_embedding_oracle(f)
                checked += 1
        assert checked > 1000


class TestEnumerate:
    def test_single_vertex_targets(self):
        K1 = graph(["x"], [])
        B = graph(["a", "b", "c"], [])
        assert len(enumerate_morphisms(K1, B, "embedding")) == 3

    def test_edge_into_triangle(self, k2, k3):
        assert len(enumerate_morphisms(k2, k3, "embedding")) == 6

    def test_path_to_edge_hom_embeddings(self, p3, k2):
        assert len(enumerate_morphisms(p3, k2, "homomorphism-embedding")) == 2

    def test_language_mismatch(self, k2):
        other = Structure(language(("F", 2)), ["a", "b"], {})
        with pytest.raises(LanguageMismatchError):
            enumerate_morphisms(k2, other, "embedding")

    def test_every_embedding_verifies_and_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            A = random_graph(rng, rng.randint(1, 3))
            B = random_graph(rng, rng.randint(1, 6))
            found = enumerate_morphisms(A, B, "embedding")
            for m in found:
                assert verify_morphism(m)
            brute = 0
            for target in itertools.permutations(B.vertices, len(A.vertices)):
                f = Morphism.make(A, B, dict(zip(A.vertices, target)), "embedding")
                if verify_morphism(f):
                    brute += 1
            assert brute == len(found)

    def test_output_order_is_deterministic(self, k2, k3):
        first = [m.map for m in enumerate_morphisms(k2, k3, "embedding")]
        second = [m.map for m in enumerate_morphisms(k2, k3, "embedding")]
        assert first == second == sorted(first)


class TestCopies:
    def test_edge_copies_in_triangle(self, k2, k3):
        assert len(copies_of(k2, k3)) == 3

    def test_vertex_copies(self, k3):
        K1 = graph(["x"], [])
        assert len(copies_of(K1, k3)) == 3

    def test_oversized_pattern(self, k2, k3):
        assert copies_of(k3, k2) == {}


class TestInducedAndGaifman:
    def test_triangle_restrictions(self, k3):
        sub = induced_substructure(k3, ["k0", "k1"])
        assert len(sub.tuples("E")) == 2
        single = induced_substructure(k3, ["k0"])
        assert single.tuple_count() == 0

    def test_path_endpoints_are_isolated(self, p3):
        sub = induced_substructure(p3, ["u", "w"])
        assert sub.tuple_count() == 0

    def test_unknown_vertex(self, k3):
        with pytest.raises(StructureError):
            induced_substructure(k3, ["nope"])

    def test_ternary_tuple_spans_triangle(self):
        lang = language(("T", 3))
        A = Structure(lang, ["u", "v", "w"], {"T": [("u", "v", "w")]})
        g = gaifman_graph(A)
        assert len(g.tuples("E")) == 6

    def test_gaifman_of_path_is_path(self, p3):
        assert are_isomorphic(gaifman_graph(p3), p3) is not None


class TestIrreducible:
    def test_examples(self, k3, p3):
        assert is_irreducible(k3)
        assert not is_irreducible(p3)

    def test_order_only_pair(self):
        A = ordered_graph(["a", "b"], [])
        assert is_irreducible(A)
        assert not is_irreducible(A.replace({"leq": ()}))

    def test_matches_amalgamation_decomposition(self):
        # irreducible iff no free amalgamation of two proper induced parts
        # reproduces the structure
        rng = random.Random(11)
        for _ in range(40):
            A = random_graph(rng, rng.randint(2, 5))
            verts = list(A.vertices)
            decomposable = False
            for r1 in range(1, len(verts)):
                for left in itertools.combinations(verts, r1):
                    left = set(left)
                    rest = [v for v in verts if v not in left]
                    for r2 in range(0, len(verts) - 1 - 0):
                        for extra in itertools.combinations(verts, r2):
                            right = set(rest) | set(extra)
                            if right == set(verts) or left == set(verts):
                                continue
                            if left | right != set(verts):
                                continue
                            tuples_split = all(
                                set(t) <= left or set(t) <= right
                                for _, t in A.all_tuples()
                            )
                            if tuples_split:
                                am = free_amalgamation(
                                    induced_substructure(A, left),
                                    induced_substructure(A, right),
                                    induced_substructure(A, left & right),
                                )
                                assert are_isomorphic(am.structure, A) is not None
                                decomposable = True
            assert is_irreducible(A) == (not decomposable)


class TestComponents:
    def test_examples(self, p3):
        assert len(connected_components(p3)) == 1
        two = graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert len(connected_components(two)) == 2
        assert connected_components(Structure(GRAPH, [], {})) == []


ORDER = language(("leq", 2), order_symbol="leq")


@st.composite
def binary_relations(draw):
    """A relation over at most five vertices: any set of pairs, or a linear
    order with a few pairs toggled, so that both verdicts occur often."""
    verts = [f"v{i}" for i in range(draw(st.integers(0, 5)))]
    pairs = [(u, v) for u in verts for v in verts]
    if not pairs:
        return verts, set()
    if draw(st.booleans()):
        return verts, set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    ranked = draw(st.permutations(verts))
    leq = {(u, v) for i, u in enumerate(ranked) for v in ranked[i:]}
    return verts, leq ^ set(draw(st.lists(st.sampled_from(pairs), max_size=2)))


class TestLinearOrder:
    @settings(max_examples=300, deadline=None)
    @given(case=binary_relations())
    def test_matches_definition(self, case):
        verts, leq = case
        linear = (
            all((v, v) in leq for v in verts)
            and all(((u, v) in leq) != ((v, u) in leq) for u, v in itertools.combinations(verts, 2))
            and all((a, d) in leq for a, b in leq for c, d in leq if b == c)
        )
        ranked = linear_order(Structure(ORDER, verts, {"leq": leq}))
        if not linear:
            assert ranked is None
        else:
            assert sorted(ranked) == verts
            assert all((u, v) in leq for i, u in enumerate(ranked) for v in ranked[i:])

    def test_needs_an_order_symbol(self, p3):
        assert linear_order(p3) is None


class TestAmalgamation:
    def test_two_edges_over_vertex(self, p3):
        B1 = graph(["x", "y"], [("x", "y")])
        B2 = graph(["x", "z"], [("x", "z")])
        A = graph(["x"], [])
        am = free_amalgamation(B1, B2, A)
        assert are_isomorphic(am.structure, p3)
        assert is_strong_amalgamation(am.structure, B1, B2, A, am.left, am.right)

    def test_triangles_over_edge(self):
        T1 = graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        T2 = graph(["a", "b", "d"], [("a", "b"), ("b", "d"), ("a", "d")])
        E = graph(["a", "b"], [("a", "b")])
        am = free_amalgamation(T1, T2, E)
        K4_minus = graph(
            ["1", "2", "3", "4"],
            [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")],
        )
        assert are_isomorphic(am.structure, K4_minus)

    def test_degenerate_identity(self, k3):
        triv = free_amalgamation(k3, k3, k3)
        assert is_strong_amalgamation(triv.structure, k3, k3, k3, triv.left, triv.right)

    def test_identifying_map_is_not_strong(self, k2):
        A = graph(["a"], [])
        B1 = graph(["a", "u"], [])
        B2 = graph(["a", "v"], [])
        C = graph(["a", "u"], [])
        b1 = Morphism.make(B1, C, {"a": "a", "u": "u"}, "embedding")
        b2 = Morphism.make(B2, C, {"a": "a", "v": "u"}, "embedding")
        assert not is_strong_amalgamation(C, B1, B2, A, b1, b2)

    def test_symmetric_up_to_isomorphism(self):
        rng = random.Random(5)
        for _ in range(15):
            B1 = random_graph(rng, rng.randint(1, 4))
            B2 = random_graph(rng, rng.randint(1, 4))
            shared = sorted(
                set(B1.vertices) & set(B2.vertices)
            )
            A = induced_substructure(B1, [])
            left = free_amalgamation(B1, B2, A)
            right = free_amalgamation(B2, B1, A)
            assert are_isomorphic(left.structure, right.structure)

    def test_non_embedding_input_rejected(self, p3, k2):
        bad = Morphism.make(k2, p3, {"a": "u", "b": "w"}, "embedding")
        with pytest.raises(MorphismError):
            free_amalgamation(p3, p3, k2, bad, bad)

    def test_cross_tuples_absent(self):
        B1 = graph(["s", "x"], [("s", "x")])
        B2 = graph(["s", "y"], [("s", "y")])
        am = free_amalgamation(B1, B2, graph(["s"], []))
        d1 = am.left.as_dict()
        d2 = am.right.as_dict()
        for t in am.structure.tuples("E"):
            assert not (d1["x"] in t and d2["y"] in t)


class TestMorphismObjects:
    """Morphisms built by the search, by ``copies_of`` and by the public
    constructor are alike: slots, frozen, equal, equal hashes and reprs."""

    def test_search_and_copies_build_public_morphisms(self):
        A = graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        B = graph(["k0", "k1", "k2", "k3"], [("k0", "k2"), ("k1", "k2"), ("k2", "k3")])
        searched = next(search_morphisms(A, B, "embedding", fixed={"b": "k2"}))
        witness = copies_of(A, B)[frozenset({"k0", "k1", "k2"})][1]
        for m in (searched, witness):
            built = Morphism(m.source, m.target, m.map, m.kind)
            assert m == built and hash(m) == hash(built) and repr(m) == repr(built)
            assert m.kind == "embedding" and verify_morphism(m)
            assert not hasattr(m, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.kind = "homomorphism"
            # a new name and a deletion fail the same way
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.extra = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                del m.map
        assert searched.map == (("a", "k0"), ("b", "k2"), ("c", "k1"))
        assert witness.map == (("a", "k1"), ("b", "k2"), ("c", "k0"))

    def test_copy_and_pickle(self):
        import copy
        import pickle

        A = graph(["a", "b"], [("a", "b")])
        B = graph(["k0", "k1", "k2"], [("k0", "k1"), ("k1", "k2")])
        searched = next(search_morphisms(A, B, "embedding"))
        public = Morphism(A, B, (("a", "k1"), ("b", "k2")), "homomorphism")
        for m in (searched, public):
            for again in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                assert type(again) is Morphism
                assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
                assert again.map == m.map and again.kind == m.kind
                assert not hasattr(again, "__dict__")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    again.kind = "embedding"
            # a shallow copy shares the structures, a deep one copies them
            assert copy.copy(m).source is m.source
            assert copy.deepcopy(m).target == m.target

    def test_public_constructor_still_validates_the_kind(self):
        A = Structure(GRAPH, [], {})
        with pytest.raises(MorphismError):
            Morphism(A, A, (), "bogus")
        with pytest.raises(MorphismError):
            Morphism.make(A, A, {}, "bogus")
        with pytest.raises(MorphismError):
            next(search_morphisms(A, A, "bogus"))


class TestIsomorphism:
    def test_relabelled_triangle(self, k3):
        other = complete_graph(3, "z")
        m = are_isomorphic(k3, other)
        assert m is not None and verify_morphism(m)

    def test_non_isomorphic(self, k3, p3):
        assert are_isomorphic(k3, p3) is None

    def test_orderings_matter(self):
        base_edges = [("a", "b")]
        A = ordered_graph(["a", "b", "c"], base_edges, order=["a", "b", "c"])
        # edge at the top of the order: no order-compatible relabelling
        B = ordered_graph(["a", "b", "c"], base_edges, order=["c", "b", "a"])
        assert are_isomorphic(A, B) is None
        # edge still at the bottom: swapping the endpoints works
        C = ordered_graph(["a", "b", "c"], base_edges, order=["b", "a", "c"])
        assert are_isomorphic(A, C) is not None

    def test_canonical_key_invariance(self):
        rng = random.Random(2)
        for _ in range(30):
            A = random_graph(rng, rng.randint(1, 5))
            renamed = A.rename(
                {v: f"r{i}" for i, v in enumerate(reversed(A.vertices))}
            )
            assert canonical_key(A) == canonical_key(renamed)
            B = random_graph(rng, len(A.vertices))
            same_key = canonical_key(A) == canonical_key(B)
            assert same_key == (are_isomorphic(A, B) is not None)


class TestComposition:
    def test_embedding_composes(self, k2, k3):
        e1 = enumerate_morphisms(k2, k3, "embedding")[0]
        K4 = complete_graph(4)
        e2 = enumerate_morphisms(k3, K4, "embedding")[0]
        comp = e2.compose(e1)
        assert verify_morphism(comp)

    def test_hom_embedding_then_embedding(self, p3, k2, k3):
        he = enumerate_morphisms(p3, k2, "homomorphism-embedding")[0]
        emb = enumerate_morphisms(k2, k3, "embedding")[0]
        comp = emb.compose(he, kind="homomorphism-embedding")
        assert verify_morphism(comp)
