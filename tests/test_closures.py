import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.build import POINTED, pointed_equivalence
from ramseyforge.closures import (
    ClosureDescription,
    ClosureEntry,
    closed_violation,
    closure_description,
    free_amalgam_preserves_closed,
    is_U_closed,
    is_U_semi_closed,
    is_U_substructure,
    out_degree,
    u_closure,
    u_closure_set,
    u_size,
)
from ramseyforge.errors import CapError, PreconditionError, StructureError
from ramseyforge.structures import Structure, induced_substructure, language

from closure_oracle import oracle_u_closure_set
from conftest import random_pointed

POINTED_ROOT = Structure(POINTED, ["1"], {})
U_POINTED = closure_description(("U", POINTED_ROOT))


def pair():
    return pointed_equivalence([["u", "v"]])


class TestEntryValidation:
    def test_root_must_be_nonempty(self):
        with pytest.raises(StructureError):
            ClosureEntry("U", Structure(POINTED, [], {}))

    def test_root_must_be_irreducible(self):
        lang = language(("R", 3), ("E", 2))
        loose = Structure(lang, ["1", "2"], {})
        with pytest.raises(StructureError):
            ClosureEntry("R", loose)

    def test_root_uses_canonical_names(self):
        lang = language(("R", 3), ("E", 2))
        bad = Structure(lang, ["a", "b"], {"E": [("a", "b"), ("b", "a")]})
        with pytest.raises(StructureError):
            ClosureEntry("R", bad)


class TestOutDegree:
    def test_pointed_pair(self):
        A = pair()
        assert out_degree(A, "U", ("u",)) == 1
        assert out_degree(A, "U", ("v",)) == 0

    def test_shared_prefix(self):
        lang = language(("R", 3))
        A = Structure(
            lang, ["a", "b", "c"], {"R": [("a", "b", "b"), ("a", "c", "c")]}
        )
        assert out_degree(A, "R", ("a",)) == 2

    def test_prefix_too_long(self):
        with pytest.raises(StructureError):
            out_degree(pair(), "U", ("u", "v", "u"))


class TestClosedPredicates:
    def test_pointed_pair_is_closed(self):
        assert is_U_closed(pair(), U_POINTED)

    def test_missing_tuple_breaks_closed_not_semi(self):
        broken = pair().replace({"U": []})
        assert not is_U_closed(broken, U_POINTED)
        assert is_U_semi_closed(broken, U_POINTED)

    def test_empty_structure_is_closed(self):
        assert is_U_closed(Structure(POINTED, [], {}), U_POINTED)

    def test_double_successor_breaks_semi(self):
        A = Structure(
            POINTED,
            ["u", "v", "w"],
            {"U": [("u", "v"), ("u", "w")], "S": [("v",), ("w",)]},
        )
        assert not is_U_semi_closed(A, U_POINTED)
        assert closed_violation(A, U_POINTED).reason == "out-degree above one"

    def test_tuple_at_non_root(self):
        # a special vertex is not a root embedding, so it may carry no pair
        A = Structure(
            POINTED,
            ["u", "v", "w"],
            {"U": [("u", "v"), ("v", "w")], "S": [("v",), ("w",)]},
        )
        assert not is_U_semi_closed(A, U_POINTED)


class TestUSubstructure:
    def test_special_only_subset(self):
        assert is_U_substructure(["v"], pair(), U_POINTED)

    def test_nonspecial_only_subset(self):
        assert not is_U_substructure(["u"], pair(), U_POINTED)

    def test_whole_structure(self):
        A = pair()
        assert is_U_substructure(A, A, U_POINTED)

    def test_structure_argument_must_be_induced(self):
        A = pair()
        loose = Structure(POINTED, ["u", "v"], {})
        with pytest.raises(PreconditionError):
            is_U_substructure(loose, A, U_POINTED)


class TestUClosure:
    def test_examples(self):
        A = pair()
        assert sorted(u_closure(A, U_POINTED, ["u"]).vertices) == ["u", "v"]
        assert sorted(u_closure(A, U_POINTED, ["v"]).vertices) == ["v"]
        assert u_closure(A, U_POINTED, []).vertices == ()

    def test_requires_closed_ambient(self):
        broken = pair().replace({"U": []})
        with pytest.raises(PreconditionError):
            u_closure(broken, U_POINTED, ["u"])

    def test_closure_operator_laws(self):
        rng = random.Random(9)
        for _ in range(60):
            A = random_pointed(rng)
            assert is_U_closed(A, U_POINTED)
            verts = list(A.vertices)
            S = frozenset(rng.sample(verts, rng.randint(0, len(verts))))
            T = S | frozenset(rng.sample(verts, rng.randint(0, len(verts))))
            cS = u_closure_set(A, U_POINTED, S)
            cT = u_closure_set(A, U_POINTED, T)
            assert S <= cS  # extensive
            assert cS <= cT  # monotone
            assert u_closure_set(A, U_POINTED, cS) == cS  # idempotent

    def test_unary_closure_is_union_of_singletons(self):
        rng = random.Random(10)
        for _ in range(40):
            A = random_pointed(rng)
            verts = list(A.vertices)
            S = rng.sample(verts, rng.randint(0, len(verts)))
            joint = u_closure_set(A, U_POINTED, S)
            union = frozenset().union(
                *(u_closure_set(A, U_POINTED, [v]) for v in S)
            ) if S else frozenset()
            assert joint == union

    def test_closed_substructure_iff_u_substructure(self):
        rng = random.Random(12)
        for _ in range(40):
            A = random_pointed(rng)
            verts = list(A.vertices)
            S = rng.sample(verts, rng.randint(0, len(verts)))
            sub = induced_substructure(A, S)
            assert is_U_substructure(set(S), A, U_POINTED) == is_U_closed(
                sub, U_POINTED
            )


CLOSING = language(("E", 2), ("F", 2), ("G", 3))
# Irreducible roots on "1".."m"; the two two-vertex roots differ as
# structures but give the same root coordinates.
ROOTS = [
    Structure(CLOSING, ["1"], {}),
    Structure(CLOSING, ["1", "2"], {"E": [("1", "2")]}),
    Structure(CLOSING, ["1", "2"], {"E": [("1", "2"), ("2", "1")]}),
    Structure(CLOSING, ["1", "2", "3"], {"G": [("1", "2", "3")]}),
]


@st.composite
def closure_cases(draw):
    """A random structure over ``CLOSING``, a random closure description
    on its F and G tuples, and two sets of starting vertices."""
    verts = draw(st.lists(st.sampled_from("abcdefg"), max_size=7, unique=True))
    rels = {}
    if verts:
        vertex = st.sampled_from(verts)
        for name, arity in CLOSING.symbols:
            rels[name] = draw(st.lists(st.tuples(*[vertex] * arity), max_size=2 * len(verts)))
    entries = dict.fromkeys(
        ClosureEntry(symbol, root)
        for symbol, root in draw(st.lists(st.tuples(st.sampled_from("FG"), st.sampled_from(ROOTS)), max_size=4))
        if len(root.vertices) <= CLOSING.arity(symbol)
    )
    U = ClosureDescription(tuple(entries))
    starts = st.lists(st.sampled_from(verts), unique=True) if verts else st.just([])
    return Structure(CLOSING, verts, rels), U, draw(starts), draw(starts)


@settings(max_examples=300, deadline=None)
@given(closure_cases())
def test_indexed_u_closure_matches_rescan(case):
    A, U, S, T = case
    # the second call runs on the index the first one built
    for start in (S, T):
        assert u_closure_set(A, U, start) == oracle_u_closure_set(A, U, start)


class TestUSize:
    def test_pointed_class_needs_all_nonspecial(self):
        A = pointed_equivalence([["a", "b", "c", "s"]])
        assert u_size(A, U_POINTED) == 3

    def test_single_special_vertex(self):
        single = Structure(POINTED, ["x"], {"S": [("x",)]})
        assert u_size(single, U_POINTED) == 1

    def test_empty(self):
        assert u_size(Structure(POINTED, [], {}), U_POINTED) == 0

    def test_substructure_size_matches_closure_size(self):
        rng = random.Random(14)
        for _ in range(30):
            A = random_pointed(rng)
            verts = list(A.vertices)
            S = rng.sample(verts, rng.randint(1, len(verts)))
            closed = u_closure(A, U_POINTED, S)
            # the smallest generating set drawn from S alone
            best = None
            for r in range(0, len(S) + 1):
                for combo in itertools.combinations(sorted(S), r):
                    if u_closure_set(A, U_POINTED, combo) == frozenset(
                        closed.vertices
                    ):
                        best = r
                        break
                if best is not None:
                    break
            assert best == u_size(closed, U_POINTED)

    def test_generator_cap(self):
        # a long successor cycle: every vertex is reachable, so none is a
        # forced generator and the candidate pool is the whole vertex set
        verts = [f"n{i:02d}" for i in range(25)]
        cycle = Structure(
            POINTED,
            verts,
            {"U": [(verts[i], verts[(i + 1) % 25]) for i in range(25)]},
        )
        assert is_U_closed(cycle, U_POINTED)
        with pytest.raises(CapError):
            u_size(cycle, U_POINTED)


class TestAmalgamPreservation:
    def test_over_empty(self):
        rep = free_amalgam_preserves_closed(
            pointed_equivalence([["a", "s"]]),
            pointed_equivalence([["b", "t"]]),
            Structure(POINTED, [], {}),
            U_POINTED,
        )
        assert rep

    def test_over_shared_special_vertex(self):
        shared = Structure(POINTED, ["s"], {"S": [("s",)]})
        rep = free_amalgam_preserves_closed(
            pointed_equivalence([["a", "s"]]),
            pointed_equivalence([["b", "s"]]),
            shared,
            U_POINTED,
        )
        assert rep

    def test_non_closed_overlap_reports_entry(self):
        left = pointed_equivalence([["a", "s"]])
        right = Structure(
            POINTED, ["a", "t"], {"U": [("a", "t")], "S": [("t",)]}
        )
        overlap = Structure(POINTED, ["a"], {})
        rep = free_amalgam_preserves_closed(left, right, overlap, U_POINTED)
        assert not rep
        assert rep.violation.entry.symbol == "U"
