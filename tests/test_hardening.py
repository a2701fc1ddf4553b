"""Cross-validation of the search machinery against blunt enumeration,
plus regression inputs for the subtle corners of the morphism semantics."""

import itertools
import random

from ramseyforge.build import complete_graph, graph
from ramseyforge.ramsey import verify_arrow
from ramseyforge.structures import (
    Morphism,
    Structure,
    enumerate_morphisms,
    language,
    verify_morphism,
)

from conftest import random_graph
from search_oracle import hom_embedding_oracle


class TestIrreducibleSpanSubtlety:
    """Pairwise tuple coverage does not imply a common irreducible
    substructure: three vertices whose pairs are covered by three ternary
    tuples pointing in different directions sit in no irreducible set, so a
    reflection failure on them is not a violation."""

    LANG = language(("T", 3))

    def source(self):
        return Structure(
            self.LANG,
            ["a", "b", "c", "x", "y", "z"],
            {"T": [("a", "b", "x"), ("b", "c", "y"), ("a", "c", "z")]},
        )

    def target_with_full_triple(self):
        return Structure(
            self.LANG,
            ["A", "B", "C", "W"],
            {
                "T": [
                    ("A", "B", "W"),
                    ("B", "C", "W"),
                    ("A", "C", "W"),
                    ("A", "B", "C"),  # the image triple the source lacks
                ]
            },
        )

    def test_reflection_gap_on_uncovered_span_is_allowed(self):
        A = self.source()
        B = self.target_with_full_triple()
        f = Morphism.make(
            A,
            B,
            {"a": "A", "b": "B", "c": "C", "x": "W", "y": "W", "z": "W"},
            "homomorphism-embedding",
        )
        assert verify_morphism(f)
        assert hom_embedding_oracle(f)

    def test_same_gap_inside_one_tuple_span_is_refused(self):
        # pull the triple inside a genuine irreducible span: now it reflects
        A = Structure(
            self.LANG,
            ["a", "b", "c"],
            {"T": [("a", "b", "c")]},
        )
        B = Structure(
            self.LANG,
            ["A", "B", "C"],
            {"T": [("A", "B", "C"), ("B", "A", "C")]},
        )
        f = Morphism.make(
            A, B, {"a": "A", "b": "B", "c": "C"}, "homomorphism-embedding"
        )
        assert not verify_morphism(f)
        assert not hom_embedding_oracle(f)


class TestEnumerationAgainstAllMaps:
    def test_hom_embeddings_match_blunt_sweep(self):
        rng = random.Random(77)
        lang = language(("E", 2), ("T", 3))
        for _ in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            averts = [f"a{i}" for i in range(n)]
            bverts = [f"b{i}" for i in range(m)]
            A = Structure(
                lang,
                averts,
                {
                    "E": [tuple(rng.choice(averts) for _ in range(2)) for _ in range(rng.randint(0, 3))],
                    "T": [tuple(rng.choice(averts) for _ in range(3)) for _ in range(rng.randint(0, 2))],
                },
            )
            B = Structure(
                lang,
                bverts,
                {
                    "E": [tuple(rng.choice(bverts) for _ in range(2)) for _ in range(rng.randint(0, 3))],
                    "T": [tuple(rng.choice(bverts) for _ in range(3)) for _ in range(rng.randint(0, 2))],
                },
            )
            found = {m_.map for m_ in enumerate_morphisms(A, B, "homomorphism-embedding")}
            blunt = set()
            for values in itertools.product(bverts, repeat=n):
                f = Morphism.make(A, B, dict(zip(averts, values)), "homomorphism-embedding")
                if verify_morphism(f):
                    blunt.add(f.map)
            assert found == blunt

    def test_monomorphisms_match_blunt_sweep(self):
        rng = random.Random(78)
        for _ in range(20):
            A = random_graph(rng, rng.randint(1, 3))
            B = random_graph(rng, rng.randint(1, 5))
            found = {m.map for m in enumerate_morphisms(A, B, "monomorphism")}
            blunt = set()
            for values in itertools.permutations(B.vertices, len(A.vertices)):
                f = Morphism.make(A, B, dict(zip(A.vertices, values)), "monomorphism")
                if verify_morphism(f):
                    blunt.add(f.map)
            assert found == blunt


class TestArrowThreeColours:
    def test_matches_enumeration(self):
        from ramseyforge.ramsey import _has_mono, _mono_sets

        rng = random.Random(79)
        K1 = graph(["x"], [])
        K2 = graph(["a", "b"], [("a", "b")])
        for _ in range(20):
            C = random_graph(rng, rng.randint(2, 5))
            report = verify_arrow(C, K1, K2, 3)
            a_images, b_images, groups = _mono_sets(C, K1, K2)
            if not b_images:
                expected = "refuted"
            else:
                expected = "proved"
                for colouring in itertools.product(range(3), repeat=len(a_images)):
                    if not _has_mono(colouring, groups):
                        expected = "refuted"
                        break
            assert report.holds == expected
            if report.holds == "refuted" and b_images:
                assert not _has_mono(report.colouring, groups)

    def test_pigeonhole_needs_enough_vertices(self):
        K1 = graph(["x"], [])
        K2 = graph(["a", "b"], [("a", "b")])
        assert verify_arrow(complete_graph(4), K1, K2, 3).holds == "proved"
        assert verify_arrow(complete_graph(3), K1, K2, 3).holds == "refuted"
