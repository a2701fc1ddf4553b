import hashlib
import itertools
import random
from collections import Counter

import pytest

from ramseyforge.build import GRAPH, ORDERED_GRAPH, POSET, complete_graph, graph, ordered_graph, poset
from ramseyforge.completion import (
    ClassPlugin,
    CompletionResult,
    ForbiddenPlugin,
    MetricPlugin,
    ObstacleCertificate,
    PosetPlugin,
    completion_iff_strong,
    complete_with,
    get_plugin,
    holes,
    is_completion,
    kfree_plugin,
    probe_local_finiteness,
    quasi_cycle_scan,
    try_completion,
    _part_positions,
)
from ramseyforge.errors import PreconditionError
from ramseyforge.metric import SGraph, distance_set, sgraph_to_structure, structure_to_sgraph
from ramseyforge.structures import (
    Structure,
    connected_components,
    free_amalgamation,
    induced_substructure,
    language,
)


class TestIsCompletion:
    def test_metric_path_into_triangle(self):
        S = distance_set(1, 2, 3, 4)
        path = sgraph_to_structure(SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}), S)
        tri = sgraph_to_structure(
            SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}), S
        )
        assert is_completion(path, tri, strong=True)

    def test_path_to_edge(self, p3, k2):
        assert is_completion(p3, k2, strong=False)
        assert not is_completion(p3, k2, strong=True)

    def test_reducible_target(self, k2, p3):
        assert not is_completion(k2, p3, strong=False)


class TestHoles:
    def test_examples(self, p3, k3):
        assert holes(p3) == [("u", "w")]
        assert holes(k3) == []

    def test_amalgam_cross_pair(self):
        B1 = graph(["s", "x"], [("s", "x")])
        B2 = graph(["s", "y"], [("s", "y")])
        am = free_amalgamation(B1, B2, graph(["s"], []))
        assert holes(am.structure) == [("x", "y")]


class TestQuasiCycle:
    def qc(self):
        return Structure(
            POSET,
            ["a", "b", "c"],
            {
                "prec": [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
                "leq": [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")],
            },
        )

    def test_three_vertex_cycle_found(self):
        found = quasi_cycle_scan(self.qc())
        assert found is not None
        assert found.holds(self.qc())
        assert found.vertices == ("a", "b", "c")

    def test_linear_extension_clean(self):
        lin = poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], order=["a", "b", "c"])
        assert quasi_cycle_scan(lin) is None

    def test_antichain_clean(self):
        flat = poset(["a", "b"], [], order=["a", "b"])
        assert quasi_cycle_scan(flat) is None


class TestPosetPlugin:
    plugin = PosetPlugin()

    def test_chains_over_point_complete_transitively(self):
        c1 = poset(["x", "y"], [("x", "y")], order=["x", "y"])
        c2 = poset(["x", "z"], [("x", "z")], order=["x", "z"])
        am = free_amalgamation(c1, c2, poset(["x"], [], order=["x"]))
        result = complete_with(am.structure, self.plugin)
        assert result.ok
        assert self.plugin.membership(result.completed)
        assert ("x", "y") in result.completed.tuples("prec")
        assert ("x", "z") in result.completed.tuples("prec")

    def test_quasi_cycle_certificate(self):
        qc = TestQuasiCycle().qc()
        result = complete_with(qc, self.plugin)
        assert not result.ok
        assert result.certificate.kind == "quasi-cycle"
        assert result.certificate.holds(qc)

    def test_linear_extension_is_its_own_completion(self):
        lin = poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], order=["a", "b", "c"])
        result = complete_with(lin, self.plugin)
        assert result.ok and result.completed == lin

    def test_output_is_always_a_member(self):
        count = 0
        for P in self.plugin.patterns_up_to(3):
            result = self.plugin.try_strong_completion(P)
            if result.ok:
                count += 1
                assert self.plugin.membership(result.completed)
                assert is_completion(P, result.completed, strong=True)
        assert count > 10

    def test_prec_cycle_detected(self):
        bad = poset(["a", "b"], [("a", "b"), ("b", "a")])
        result = complete_with(bad, self.plugin)
        assert not result.ok
        assert result.certificate.kind == "prec-antisymmetry"


class TestMetricPluginCompletion:
    plugin = MetricPlugin(distance_set(1, 2, 3, 4))

    def test_triangle_obstacles(self):
        found = self.plugin.obstacles_up_to(3)
        dists = sorted(
            tuple(sorted(structure_to_sgraph(o, self.plugin.S).dist.values()))
            for o in found
        )
        assert dists == [(1, 1, 3), (1, 1, 4), (1, 2, 4)]

    def test_obstacle_minimality_recursion(self):
        for o in self.plugin.obstacles_up_to(4):
            for v in o.vertices:
                sub = induced_substructure(o, set(o.vertices) - {v})
                assert self.plugin.try_strong_completion(sub).ok

    def test_malformed_graph_certificate(self):
        A = Structure(
            self.plugin.language,
            ["a", "b"],
            {"d:1": [("a", "b")]},  # one-way tuple
        )
        result = self.plugin.try_strong_completion(A)
        assert not result.ok
        assert result.certificate.kind == "malformed-distance-graph"

    def test_completed_output_is_a_strong_completion(self):
        S = self.plugin.S
        partial = sgraph_to_structure(
            SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 2}), S
        )
        result = self.plugin.try_strong_completion(partial)
        assert result.ok
        assert self.plugin.membership(result.completed)
        assert is_completion(partial, result.completed, strong=True)


class TestLanguageGuard:
    """A structure outside the plugin's language is a precondition error,
    not an answer: the metric plugin used to refuse K3 as a malformed
    distance graph, and the posets plugin to complete a structure with one
    more symbol into one that drops it.  The guard sits in the plugin's
    read step, so ``try_strong_completion`` called directly refuses too
    (the posets and forbidden plugins raised ``StructureError`` on an
    unknown symbol, the metric plugin answered ``no-completion``)."""

    @pytest.mark.parametrize("selector", ["posets", "metric:1,2", "forbidden:K3"])
    def test_direct_strong_completion_refuses(self, selector):
        plugin = kfree_plugin(3) if selector == "forbidden:K3" else get_plugin(selector)
        K3 = graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(PreconditionError):
            plugin.try_strong_completion(K3)

    def _refused(self, A, plugin):
        with pytest.raises(PreconditionError):
            complete_with(A, plugin)
        with pytest.raises(PreconditionError):
            try_completion(A, plugin)
        with pytest.raises(PreconditionError):
            probe_local_finiteness(plugin, A, n=1, size_cap=2)

    def test_metric_refuses_a_graph(self):
        K3 = graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        self._refused(K3, get_plugin("metric:1,2"))

    def test_posets_refuse_an_extra_symbol(self):
        L = language(("prec", 2), ("leq", 2), ("X", 2), order_symbol="leq")
        loops = [("a", "a"), ("b", "b")]
        rels = {"prec": loops, "leq": loops + [("a", "b")]}
        A = Structure(L, ["a", "b"], {**rels, "X": [("a", "b")]})
        self._refused(A, get_plugin("posets"))
        # the same structure without X completes
        B = Structure(POSET, ["a", "b"], rels)
        assert complete_with(B, get_plugin("posets")).ok


def _ordered_leq(verts):
    return [(u, v) for i, u in enumerate(verts) for v in verts[i:]]


# Structures outside every built-in plugin's language.
FOREIGN = {
    "K3": complete_graph(3),
    "leq-only": Structure(language(("leq", 2), order_symbol="leq"), ["a"], {"leq": [("a", "a")]}),
    "ordered-K3-plus-U": Structure(
        language(("E", 2), ("leq", 2), ("U", 1), order_symbol="leq"), ["a", "b", "c"],
        {"E": [(u, v) for u in "abc" for v in "abc" if u != v], "leq": _ordered_leq("abc")},
    ),
    "ternary-E": Structure(
        language(("E", 3), ("leq", 2), order_symbol="leq"), ["a", "b"],
        {"E": [("a", "b", "a")], "leq": _ordered_leq("ab")},
    ),
    "unary-E": Structure(
        language(("E", 1), ("leq", 2), order_symbol="leq"), ["a"],
        {"E": [("a",)], "leq": [("a", "a")]},
    ),
    "empty-graph": Structure(GRAPH, [], {}),
    "poset-plus-U": Structure(
        language(("prec", 2), ("leq", 2), ("U", 1), order_symbol="leq"), ["a"],
        {"prec": [("a", "a")], "leq": [("a", "a")], "U": [("a",)]},
    ),
}
BUILT_IN = [PosetPlugin(), MetricPlugin(distance_set(1, 3)), kfree_plugin(3)]


class TestMembershipOutsideTheLanguage:
    """Membership answers False outside the class's language and never
    raises: the posets plugin raised "unknown symbol 'prec'" on K3 (and
    took a poset with an extra symbol for a member) and the forbidden
    plugin raised "unknown symbol 'E'" on a structure over leq alone."""

    @pytest.mark.parametrize("plugin", BUILT_IN, ids=lambda p: p.name)
    @pytest.mark.parametrize("name", sorted(FOREIGN))
    def test_foreign_structure_is_no_member(self, plugin, name):
        assert plugin.membership(FOREIGN[name]) is False

    @pytest.mark.parametrize("plugin", BUILT_IN, ids=lambda p: p.name)
    def test_other_classes_patterns_are_no_members(self, plugin):
        for other in BUILT_IN:
            if other is not plugin:
                for P in other.patterns(2):
                    assert not plugin.membership(P), (plugin.name, other.name, P)


class TestMembershipNeedsLinearOrder:
    """Both ordered plugins read ``leq`` through ``structures.linear_order``."""

    VERTS = ["a", "b", "c"]
    LOOPS = [("a", "a"), ("b", "b"), ("c", "c")]

    @pytest.mark.parametrize(
        "leq, linear",
        [
            ([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("c", "a")], False),
            ([("a", "b"), ("b", "c"), ("a", "c")], False),
            ([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c"), ("a", "c")], True),
        ],
        ids=["cyclic", "irreflexive", "linear"],
    )
    def test_both_plugins(self, leq, linear):
        A = Structure(ORDERED_GRAPH, self.VERTS, {"leq": leq, "E": []})
        assert kfree_plugin(3).membership(A) == linear
        P = Structure(POSET, self.VERTS, {"leq": leq, "prec": self.LOOPS})
        assert PosetPlugin().membership(P) == linear


class TestForbiddenPlugin:
    plugin = kfree_plugin(3)

    def test_holes_fill_with_non_edges(self):
        A = ordered_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        result = complete_with(A, self.plugin)
        assert result.ok
        assert ("a", "c") not in result.completed.tuples("E")
        assert self.plugin.membership(result.completed)

    def test_embedded_triangle_refused(self):
        A = ordered_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        result = complete_with(A, self.plugin)
        assert not result.ok
        assert result.certificate.kind == "forbidden-member"

    def test_weak_order_completes(self):
        # two ordered edges amalgamated over a point: order holes get filled
        B1 = ordered_graph(["x", "y"], [("x", "y")])
        B2 = ordered_graph(["x", "z"], [("x", "z")])
        am = free_amalgamation(B1, B2, ordered_graph(["x"], []))
        result = complete_with(am.structure, self.plugin)
        assert result.ok

    def test_selector_round_trip(self, tmp_path):
        import json

        from ramseyforge import rsf

        members = [rsf.structure_to_obj(M) for M in self.plugin.forbidden]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(members), encoding="utf-8")
        again = get_plugin(f"forbidden:{path}")
        assert len(again.forbidden) == len(self.plugin.forbidden)

    def test_metric_selector(self):
        plugin = get_plugin("metric:1,3")
        assert sorted(plugin.S.distances) == [1, 3]

    def test_unknown_selector(self):
        with pytest.raises(PreconditionError):
            get_plugin("nonsense")


class TestQuotientCompletion:
    def test_identifying_completion_found(self):
        # a pair of loose vertices completes to a single point class
        plugin = _SingleLoopPlugin()
        A = Structure(plugin.language, ["u", "v"], {"E": [("u", "u"), ("v", "v")]})
        assert not plugin.try_strong_completion(A).ok
        found = try_completion(A, plugin)
        assert found is not None
        q, completed = found
        assert len(completed.vertices) == 1

    def test_identity_partition_tried_first(self):
        plugin = PosetPlugin()
        lin = poset(["a", "b"], [("a", "b")], order=["a", "b"])
        q, completed = try_completion(lin, plugin)
        assert len(q.image_vertices()) == 2

    def test_failing_part_of_three_ends_the_search(self, monkeypatch):
        # the 1-1-3 triangle has no completion, and isolated vertices join
        # any block, so every quotient keeps it: the part of three decides
        # the answer before any partition of the whole is tried
        plugin = get_plugin("metric:1,3")
        vs = [f"v{i}" for i in range(8)]
        rels = {"d:1": [("v0", "v1"), ("v1", "v0"), ("v1", "v2"), ("v2", "v1")],
                "d:3": [("v0", "v2"), ("v2", "v0")]}
        sizes = Counter()
        decide = plugin._decide

        def counted(verts, states):
            sizes[len(verts)] += 1
            return decide(verts, states)

        monkeypatch.setattr(plugin, "_decide", counted)
        assert try_completion(Structure(plugin.language, vs, rels), plugin) is None
        # the identity and the parts of three with their quotients only
        assert sizes[8] == 1 and all(n <= 3 for n in sizes if n != 8)

    def test_repeated_quotient_vectors_are_decided_once(self, monkeypatch):
        # leq is a 4-cycle v0 <= v1 <= v2 <= v3 <= v0 and five vertices
        # are isolated: thousands of partitions collapse it, onto six
        # quotient vectors only, and the kernel decides each once
        plugin = get_plugin("posets")
        vs = [f"v{i}" for i in range(9)]
        cycle = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
        loops = [(v, v) for v in vs]
        A = Structure(plugin.language, vs, {"leq": cycle + loops, "prec": loops})
        sizes = Counter()
        decide = plugin._decide

        def counted(verts, states):
            sizes[len(verts)] += 1
            return decide(verts, states)

        monkeypatch.setattr(plugin, "_decide", counted)
        assert try_completion(A, plugin) is None
        # the identity, then one call per distinct failing vector
        assert sum(c for n, c in sizes.items() if n > 3) <= 7
        # the 84 parts of three, which complete without a quotient
        assert sizes[3] == 84


class _SingleLoopPlugin(ClassPlugin):
    """Deliberately non-hereditary toy class: just one looped vertex."""

    name = "toy-loop"
    language = language(("E", 2))

    def membership(self, A):
        return len(A.vertices) == 1 and A.tuple_count() == 1 and all(
            t[0] == t[1] for _, t in A.all_tuples()
        )

    def try_strong_completion(self, A):
        member = Structure(self.language, ["o"], {"E": [("o", "o")]})
        if len(A.vertices) > 1:
            return CompletionResult(
                "no-completion",
                certificate=ObstacleCertificate("too-big", tuple(A.vertices)),
            )
        if A.vertices and (A.vertices[0], A.vertices[0]) not in A.tuples("E"):
            return CompletionResult(
                "no-completion",
                certificate=ObstacleCertificate("no-loop", tuple(A.vertices)),
            )
        if not A.vertices:
            return CompletionResult("completed", completed=member)
        return CompletionResult("completed", completed=A)

    # One pair state, a hole: the pattern on k vertices is k looped
    # vertices, which strongly completes only when k <= 1.
    pair_flip = (0,)

    def _read(self, A):
        # only looped vertices with holes between them read as a vector
        edges = A.tuples("E")
        if any((v, v) not in edges for v in A.vertices) or any(u != v for u, v in edges):
            return None, CompletionResult(
                "no-completion", certificate=ObstacleCertificate("not-a-pattern", A.vertices)
            )
        return [0] * (len(A.vertices) * (len(A.vertices) - 1) // 2), None

    def _decide(self, verts, states):
        return ("too-big", None) if len(verts) > 1 else (None, None)

    def _completed(self, verts, data):
        verts = verts or ["o"]
        return Structure(self.language, verts, {"E": [(v, v) for v in verts]})

    def _pattern(self, k, states):
        verts = [f"v{i}" for i in range(k)]
        return Structure(self.language, verts, {"E": [(v, v) for v in verts]})


class _SmallCliquePlugin(ClassPlugin):
    """A toy class that supplies only the hooks: loopless complete graphs
    on at most three vertices, holes completing to edges."""

    name = "toy-small-cliques"
    language = GRAPH
    pair_flip = (0, 1)  # 0 a hole, 1 an edge

    def membership(self, A):
        return A.language == self.language and len(A.vertices) <= 3 and A.tuples("E") == {
            (u, v) for u in A.vertices for v in A.vertices if u != v
        }

    def _read(self, A):
        if A.language != self.language:
            raise PreconditionError("the structure must live in the plugin's language")
        edges = A.tuples("E")
        for u, v in sorted(edges):
            if u == v or (v, u) not in edges:
                return None, CompletionResult(
                    "no-completion", certificate=ObstacleCertificate("bad-edge", (u, v))
                )
        return [int(pair in edges) for pair in itertools.combinations(A.vertices, 2)], None

    def _decide(self, verts, states):
        return ("too-big", len(verts)) if len(verts) > 3 else (None, None)

    def _completed(self, verts, data):
        return Structure(self.language, verts, {"E": [(u, v) for u in verts for v in verts if u != v]})

    def _refute(self, A, kind, data):
        return CompletionResult(
            "no-completion", certificate=ObstacleCertificate(kind, A.vertices, note=f"{data} vertices")
        )

    def _pattern(self, k, states):
        verts = [f"v{i}" for i in range(k)]
        edges = [pair for pair, s in zip(itertools.combinations(verts, 2), states) if s]
        return graph(verts, edges)


class TestSharedStrongCompletion:
    """``ClassPlugin.try_strong_completion`` is the one strong completion:
    read, decide, then ``_completed`` or ``_refute``."""

    @pytest.mark.parametrize("cls", [PosetPlugin, MetricPlugin, ForbiddenPlugin, _SmallCliquePlugin])
    def test_no_plugin_overrides_it(self, cls):
        assert "try_strong_completion" not in cls.__dict__

    def test_completes_through_the_hooks(self, p3):
        result = _SmallCliquePlugin().try_strong_completion(p3)
        assert result.ok and result.completed == graph(p3.vertices, itertools.combinations(p3.vertices, 2))

    def test_refutes_through_the_hooks(self):
        result = _SmallCliquePlugin().try_strong_completion(graph("abcd", []))
        assert not result.ok
        assert result.certificate == ObstacleCertificate("too-big", ("a", "b", "c", "d"), note="4 vertices")

    def test_screen_fault_is_returned_as_it_is(self):
        looped = Structure(GRAPH, ["a"], {"E": [("a", "a")]})
        result = _SmallCliquePlugin().try_strong_completion(looped)
        assert result.certificate == ObstacleCertificate("bad-edge", ("a", "a"))

    def test_shared_machinery_runs_on_the_hooks(self):
        plugin = _SmallCliquePlugin()
        # every graph on four vertices is minimal: its parts complete
        assert len(plugin.obstacles_up_to(4)) == 11
        assert complete_with(complete_graph(2), plugin).ok
        assert try_completion(graph("abcd", []), plugin) is not None
        assert try_completion(complete_graph(4), plugin) is None


class TestPartPositions:
    """Selecting a part's pair positions from a pattern's vector gives the
    vector ``_read`` finds on the induced part."""

    @pytest.mark.parametrize("plugin", [PosetPlugin(), MetricPlugin(distance_set(1, 2, 3, 4))],
                             ids=lambda p: p.name)
    @pytest.mark.parametrize("k", range(7))
    def test_selection_reads_the_induced_part(self, plugin, k):
        rng = random.Random(k)
        verts = [f"v{i}" for i in range(k)]
        for _ in range(10):
            vec = [rng.randrange(len(plugin.pair_flip)) for _ in range(k * (k - 1) // 2)]
            P = plugin._pattern(k, vec)
            for size in range(k + 1):
                parts = list(itertools.combinations(range(k), size))
                positions = _part_positions(k, size)
                assert len(positions) == len(parts)
                for part, pos in zip(parts, positions):
                    sub = induced_substructure(P, [verts[i] for i in part])
                    assert [vec[p] for p in pos] == plugin._read(sub)[0], (k, vec, part)


class TestCompletionVerdictOracle:
    """Plugin verdicts against blunt search: a strong completion exists iff
    some same-size class member admits an injective homomorphism-embedding
    from the input (restricting any bigger completion to its image stays in
    the class, so same-size candidates decide existence)."""

    @pytest.mark.parametrize(
        "plugin",
        [PosetPlugin(), MetricPlugin(distance_set(1, 2, 3, 4)), kfree_plugin(3)],
        ids=lambda p: p.name,
    )
    def test_no_completion_claims_are_genuine(self, plugin):
        members_by_size = {}
        for k in (1, 2, 3):
            members_by_size[k] = [
                P for P in plugin.patterns(k) if plugin.membership(P)
            ]
            assert members_by_size[k]
        checked = negatives = 0
        for k in (1, 2, 3):
            for P in plugin.patterns(k):
                checked += 1
                verdict = plugin.try_strong_completion(P).ok
                brute = any(
                    is_completion(P, M, strong=True)
                    for M in members_by_size[k]
                )
                assert verdict == brute, (plugin.name, P)
                negatives += not verdict
        assert checked > 20 and negatives > 0


class TestCompletionIffStrong:
    def test_posets_hold_at_cap_3(self):
        report = completion_iff_strong(PosetPlugin(), 3)
        assert report.holds and report.checked > 20

    def test_metric_holds_at_cap_3(self):
        report = completion_iff_strong(MetricPlugin(distance_set(1, 2, 3, 4)), 3)
        assert report.holds

    def test_toy_plugin_violates(self):
        report = completion_iff_strong(_SingleLoopPlugin(), 2)
        assert not report.holds
        # the documented two-vertex counterexample: two looped vertices
        assert any(len(v.vertices) == 2 for v in report.violations)

    def test_posets_hold_at_cap_5(self):
        report = completion_iff_strong(PosetPlugin(), 5)
        assert report.holds and report.checked == 83604

    def test_negative_caps_are_refused(self):
        with pytest.raises(PreconditionError):
            completion_iff_strong(PosetPlugin(), -2)
        with pytest.raises(PreconditionError):
            PosetPlugin().obstacles_up_to(-1)
        assert completion_iff_strong(PosetPlugin(), 0).checked == 0


class TestProbe:
    def test_13_triangle_counterexample(self):
        plugin = MetricPlugin(distance_set(1, 3))
        T = sgraph_to_structure(
            SGraph(["x", "y", "z"], {("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3}),
            plugin.S,
        )
        report = probe_local_finiteness(plugin, T, n=2, size_cap=3)
        assert not report.holds
        shapes = {
            tuple(sorted(structure_to_sgraph(c, plugin.S).dist.values()))
            for c in report.counterexamples
        }
        assert (1, 1, 3) in shapes

    def test_13_longer_cycles_appear_at_cap_5(self):
        plugin = MetricPlugin(distance_set(1, 3))
        T = sgraph_to_structure(
            SGraph(["x", "y", "z"], {("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3}),
            plugin.S,
        )
        report = probe_local_finiteness(plugin, T, n=4, size_cap=5)
        assert not report.holds
        # the classic witness: one 3-edge and four 1-edges around a 5-cycle
        found_cycle = False
        for c in report.counterexamples:
            g = structure_to_sgraph(c, plugin.S)
            vals = sorted(g.dist.values())
            if len(c.vertices) == 5 and vals == [1, 1, 1, 1, 3]:
                found_cycle = True
        assert found_cycle

    def test_1234_has_no_counterexample_at_n4(self):
        plugin = MetricPlugin(distance_set(1, 2, 3, 4))
        C0 = sgraph_to_structure(
            SGraph(
                ["a", "b", "c", "d"],
                {
                    ("a", "b"): 1,
                    ("a", "c"): 2,
                    ("a", "d"): 3,
                    ("b", "c"): 3,
                    ("b", "d"): 4,
                    ("c", "d"): 1,
                },
            ),
            plugin.S,
        )
        report = probe_local_finiteness(plugin, C0, n=4, size_cap=5)
        assert report.holds and not report.inconclusive

    def test_posets_no_counterexample(self):
        plugin = PosetPlugin()
        chain = poset(
            ["a", "b", "c"],
            [("a", "b"), ("b", "c"), ("a", "c")],
            order=["a", "b", "c"],
        )
        report = probe_local_finiteness(plugin, chain, n=3, size_cap=4)
        assert report.holds

    def test_budget_marks_inconclusive(self):
        plugin = MetricPlugin(distance_set(1, 2, 3, 4))
        C0 = sgraph_to_structure(
            SGraph(["a", "b"], {("a", "b"): 1}), plugin.S
        )
        report = probe_local_finiteness(plugin, C0, n=1, size_cap=5, budget=5)
        assert report.inconclusive

    def test_13_triangle_at_cap_6(self):
        # the CLI's default cap: 22,822 pullbacks on five and six vertices
        plugin = MetricPlugin(distance_set(1, 3))
        T = sgraph_to_structure(
            SGraph(["x", "y", "z"], {("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3}),
            plugin.S,
        )
        report = probe_local_finiteness(plugin, T, n=4, size_cap=6)
        sizes = [len(c.vertices) for c in report.counterexamples]
        assert (report.examined, report.inconclusive) == (22_822, False)
        assert sizes == [5] + [6] * 10

    @pytest.mark.parametrize(
        "selector, rels, kind",
        [
            # a one-way tuple: the probe used to report the one-way pair itself
            ("metric:1,3", {"d:1": [("a", "b")]}, "malformed-distance-graph"),
            ("posets", {"leq": [("a", "a"), ("b", "b")], "prec": [("a", "a")]}, "missing-reflexive"),
            ("forbidden:K3", {"leq": [("a", "a"), ("b", "b"), ("a", "b")], "E": [("a", "b")]}, "one-way-edge"),
        ],
    )
    def test_malformed_c0_is_refused(self, selector, rels, kind):
        plugin = kfree_plugin(3) if selector == "forbidden:K3" else get_plugin(selector)
        C0 = Structure(plugin.language, ["a", "b"], rels)
        with pytest.raises(PreconditionError, match=kind):
            probe_local_finiteness(plugin, C0, n=1, size_cap=2)

    def test_negative_bound_is_refused(self):
        plugin = MetricPlugin(distance_set(1, 3))
        C0 = sgraph_to_structure(SGraph(["a", "b"], {("a", "b"): 1}), plugin.S)
        with pytest.raises(PreconditionError):
            probe_local_finiteness(plugin, C0, n=-1, size_cap=2)
        assert probe_local_finiteness(plugin, C0, n=0, size_cap=0).examined == 0


class TestObstaclesTopLevel:
    def test_connected_obstacles_for_1234(self):
        plugin = MetricPlugin(distance_set(1, 2, 3, 4))
        found = plugin.obstacles_up_to(4)
        assert len(found) == 4
        for o in found:
            assert len(connected_components(o)) == 1


class TestObstaclesOnFiveVertices:
    """Obstacles up to five vertices, pinned by a SHA-256 of their
    relations: for posets and metric spaces as computed before strong
    completion ran on pair vectors, for forbidden cliques as computed
    before the ordered-graph kernel screened completions for cliques."""

    @staticmethod
    def digest(found):
        payload = [
            (P.vertices, [(name, sorted(P.tuples(name))) for name in P.language.names()])
            for P in found
        ]
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    @staticmethod
    def check_minimal(plugin, found):
        for P in found:
            result = plugin.try_strong_completion(P)
            assert not result.ok and result.certificate.holds(P)
            for v in P.vertices:
                part = plugin.try_strong_completion(
                    induced_substructure(P, set(P.vertices) - {v})
                )
                assert part.ok and plugin.membership(part.completed)

    def test_metric_123_has_one_triangle(self):
        plugin = get_plugin("metric:1,2,3")
        found = plugin.obstacles_up_to(5)
        assert len(found) == 1
        assert sorted(structure_to_sgraph(found[0], plugin.S).dist.values()) == [1, 1, 3]
        cert = plugin.try_strong_completion(found[0]).certificate
        assert cert.kind == "non-metric-cycle"
        self.check_minimal(plugin, found)
        assert self.digest(found) == (
            "50c713b5bc72d4667cefb18d6c928f1002940e1ddd50482019e855b7de5a4891"
        )

    def test_posets(self):
        plugin = PosetPlugin()
        found = plugin.obstacles_up_to(5)
        assert Counter(len(P.vertices) for P in found) == {3: 5, 4: 7, 5: 9}
        kinds = Counter(plugin.try_strong_completion(P).certificate.kind for P in found)
        assert kinds == {
            "prec-cycle": 3, "frozen-prec-gap": 3, "quasi-cycle": 3, "order-cycle": 12,
        }
        self.check_minimal(plugin, found)
        assert self.digest(found) == (
            "c164404f79133e37732f8c15a69bf39f78d4c3ac997da4550367e1f5e6dbdb65"
        )

    @pytest.mark.parametrize("k, sizes, digest", [
        (3, {3: 5, 4: 6, 5: 8},
         "54768b21cca43b8a461e1daa0e28b221a1375459b57babcdbd0d8ceb92963013"),
        (4, {3: 4, 4: 7, 5: 8},
         "8495a8deaf6977cc87245e220eb3226c81594d3487261d952f45ac3fa63f2623"),
    ], ids=["K3", "K4"])
    def test_forbidden_cliques(self, k, sizes, digest):
        plugin = kfree_plugin(k)
        found = plugin.obstacles_up_to(5)
        assert Counter(len(P.vertices) for P in found) == sizes
        kinds = Counter(plugin.try_strong_completion(P).certificate.kind for P in found)
        assert kinds == {"order-cycle": 18, "forbidden-member": 1}
        self.check_minimal(plugin, found)
        assert self.digest(found) == digest


class TestOneThreeCertificates:
    """The non-metric-cycle certificates of the one-three cycles: n edges of
    distance 1 on c00..cn and one of distance 3 from c00 to cn.  The walk
    is the path of ones, each edge named with its recorded distance."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_certificate(self, n):
        plugin = get_plugin("metric:1,3")
        verts = [f"c{i:02d}" for i in range(n + 1)]
        dist = {(verts[i], verts[i + 1]): 1 for i in range(n)}
        dist[(verts[0], verts[n])] = 3
        A = sgraph_to_structure(SGraph(verts, dist), plugin.S)
        cert = plugin.try_strong_completion(A).certificate
        assert cert.kind == "non-metric-cycle"
        assert cert.vertices == tuple(verts)
        assert cert.present == tuple(
            ("d:1", (verts[i], verts[i + 1])) for i in range(n)
        ) + (("d:3", ("c00", verts[n])),)
        assert cert.absent == ()
        assert cert.note == "recorded 3 exceeds walk length 1"
        assert cert.extra == (("distances", "1," * n + "3"), ("shortest", "1"))
        assert cert.holds(A)

