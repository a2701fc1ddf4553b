"""Strong completion by the pair-vector kernels against the token oracle.

Each built-in plugin decides strong completion with one kernel on the pair
state vector of a structure over its sorted vertices.  ``completion_oracle``
keeps the earlier token-level bodies: closure, cycle search and topological
sort on vertex tokens, Floyd-Warshall on ``Fraction`` distances.  On random
structures in the poset, ordered-graph and distance languages, malformed
ones included, both must give the same status, the same certificate (every
field) and the same completed structure; a second draw toggles one to six
tuples on two to six vertices, so that most structures have several
faults.  Vertex tokens are inserted in an order that differs from their
sorted order.  On every canonical pattern
with at most four vertices, the kernel's verdict must be the oracle's, and
the completion-iff-strong report, which decides both sides on pair
vectors, must be the one the oracle's loop gives by strongly completing
every pattern and searching its quotients with the oracle's
``try_completion``.  No built-in class has a violation, so the weak side is
also checked alone: on every canonical pattern with at most four vertices
that the kernel fails, the quotient verdict on the vector must be the
oracle ``try_completion``'s, and the toy class of one looped vertex, which
has violations, must give the oracle's report.  The first quotient, the
identity partition, must read every canonical pattern on at most five
vertices as itself, so that the report may take a kernel success for a
completion without asking again.

``try_completion`` decides every quotient on the pair vector and builds
only its answer; the oracle's builds, verifies and strongly completes one
structure per partition.  On random structures with two to seven
vertices, faulty ones included, both must give None or the same quotient
map, quotient and completed structure.  No built-in class needs a
quotient, so the classes are also cut down to members on at most a few
vertices (``_Bounded``), where a structure completes only by identifying
vertices and the quotient states must agree across each pair of blocks.

``probe_local_finiteness`` decides each pullback into C0 on its pair
vector, and for a failing one only its parts on exactly n vertices; the
oracle's builds and strongly completes every pullback and, for a failing
one, every induced substructure on 1..n vertices.  On random C0s of two
to four vertices, with bounds n from 0 to 3, caps up to n + 2 and budgets
that often cut a size part way, both must report the same ``examined``,
``inconclusive`` and counterexamples, in order and token for token.  A C0
that fails the plugin's screen is refused.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.build import ORDERED_GRAPH, POSET
from ramseyforge.completion import (
    ClassPlugin,
    CompletionResult,
    ForbiddenPlugin,
    MetricPlugin,
    ObstacleCertificate,
    _canonical_pair_vectors,
    _completing_quotient,
    _pattern_vertices,
    _quotients,
    completion_iff_strong,
    get_plugin,
    kfree_plugin,
    probe_local_finiteness,
    try_completion,
)
from ramseyforge.errors import PreconditionError
from ramseyforge.metric import SGraph, distance_set, sgraph_to_structure
from ramseyforge.rsf import dumps
from ramseyforge.structures import Language, Structure

import completion_oracle as oracle
import pattern_oracle
from test_completion import _SingleLoopPlugin


def _k3_without_order():
    """A K3 whose ``leq`` holds only the reflexive pairs: irreducible
    without its order, so it passes the forbidden plugin's precondition,
    but it embeds in no linearly ordered graph."""
    verts = ["u0", "u1", "u2"]
    return Structure(ORDERED_GRAPH, verts, {
        "E": [(u, v) for u in verts for v in verts if u != v],
        "leq": [(v, v) for v in verts],
    })


PLUGINS = {
    "posets": get_plugin("posets"),
    "metric:1,2,3,4": get_plugin("metric:1,2,3,4"),
    "metric:1,3": get_plugin("metric:1,3"),
    "metric:1,2": get_plugin("metric:1,2"),
    "metric:1/2,1,3/2,2": get_plugin("metric:1/2,1,3/2,2"),
    "forbidden:K3": kfree_plugin(3),
    "forbidden:K4": kfree_plugin(4),
    # triangles pass the clique screen, and the member search refutes them
    "forbidden:K4+K3-unordered": ForbiddenPlugin(
        kfree_plugin(4).forbidden + (_k3_without_order(),),
        name="forbidden:K4+K3-unordered",
    ),
}
# with the toy class, whose patterns complete only through quotients
WEAK_PLUGINS = {**PLUGINS, "toy-loop": _SingleLoopPlugin()}
METRIC = [name for name in PLUGINS if name.startswith("metric:")]
FORBIDDEN = [name for name in PLUGINS if name.startswith("forbidden:")]
# Tokens whose sorted order differs from the order they are listed in.
TOKENS = ("z", "v10", "b", "v2", "a", "q7", "m", "c")


def assert_same(plugin, A):
    fast = plugin.try_strong_completion(A)
    slow = oracle.try_strong_completion(plugin, A)
    assert fast.status == slow.status
    # kind, vertices, present, absent, note and extra
    assert fast.certificate == slow.certificate
    assert fast.completed == slow.completed
    return fast


@st.composite
def vertex_tokens(draw, min_size=0, max_size=6):
    n = draw(st.integers(min_size, max_size))
    return draw(st.permutations(TOKENS))[:n]


@st.composite
def tweaks(draw, symbols, verts, faulty=False):
    """A few tuples to toggle: mostly none, so that most structures are
    well formed and reach the kernel, else loops and one-way pairs.  With
    ``faulty``, always one to six, so that a structure often has several
    faults at once."""
    if not verts:
        return []
    pair = st.tuples(st.sampled_from(symbols), st.sampled_from(verts), st.sampled_from(verts))
    if faulty:
        return draw(st.lists(pair, min_size=1, max_size=6))
    return draw(st.one_of(st.just([]), st.just([]), st.lists(pair, min_size=1, max_size=3)))


def toggled(rels, changes):
    out = {name: set(ts) for name, ts in rels.items()}
    for name, u, v in changes:
        out[name] ^= {(u, v)}
    return out


@st.composite
def oriented_structures(
    draw, language, second, states=st.integers(0, 4), min_size=0, faulty=False, max_size=6
):
    """Pair states drawn from ``states`` over the tokens as inserted (0 a
    hole, 1/2 the order one way, 3/4 the order plus the second relation
    oriented like it; the ordered graph's edge is stored both ways), then a
    few toggled tuples."""
    verts = draw(vertex_tokens(min_size, max_size))
    rels = {"leq": {(v, v) for v in verts}, second: set()}
    if second == "prec":
        rels["prec"] |= {(v, v) for v in verts}
    for u, v in itertools.combinations(verts, 2):
        state = draw(states)
        if state == 0:
            continue
        a, b = (u, v) if state % 2 else (v, u)
        rels["leq"].add((a, b))
        if state > 2:
            rels[second].add((a, b))
            if second == "E":
                rels["E"].add((b, a))
    rels = toggled(rels, draw(tweaks(("leq", second), verts, faulty)))
    return Structure(language, verts, rels)


@st.composite
def distance_structures(draw, plugin, min_size=0, faulty=False, max_size=6, holes=1):
    """A random distance graph over the tokens as inserted, each pair a
    hole with weight ``holes`` against 1 for each distance, then a few
    toggled tuples: loops, one-way tuples, two distances on a pair."""
    verts = draw(vertex_tokens(min_size, max_size))
    names = plugin.S._symbols
    rels = {name: set() for name in names}
    ranks = st.integers(-1, len(names) - 1)
    if holes > 1:
        ranks = st.sampled_from([-1] * holes + list(range(len(names))))
    for u, v in itertools.combinations(verts, 2):
        r = draw(ranks)
        if r >= 0:
            rels[names[r]] |= {(u, v), (v, u)}
    rels = toggled(rels, draw(tweaks(names, verts, faulty)))
    return Structure(plugin.language, verts, rels)


@settings(max_examples=400, deadline=None)
@given(A=oriented_structures(POSET, "prec"))
def test_poset_kernel_matches_oracle(A):
    assert_same(PLUGINS["posets"], A)


@st.composite
def poset_candidates(draw):
    """A linear leq over the tokens and prec a subset of it, transitively
    closed or not, then a few toggled tuples."""
    verts = draw(vertex_tokens())
    ranked = draw(st.permutations(verts))
    leq = {(u, v) for i, u in enumerate(ranked) for v in ranked[i + 1:]}
    prec = set(draw(st.lists(st.sampled_from(sorted(leq)), unique=True))) if leq else set()
    if draw(st.booleans()):
        prec = oracle.transitive_closure(prec)
    loops = {(v, v) for v in verts}
    rels = toggled({"leq": leq | loops, "prec": prec | loops}, draw(tweaks(("leq", "prec"), verts)))
    return Structure(POSET, verts, rels)


@settings(max_examples=400, deadline=None)
@given(A=st.one_of(poset_candidates(), oriented_structures(POSET, "prec")))
def test_poset_membership_matches_oracle(A):
    assert PLUGINS["posets"].membership(A) == oracle.poset_membership(A)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(METRIC))
def test_metric_kernel_matches_oracle(data, name):
    plugin = PLUGINS[name]
    assert_same(plugin, data.draw(distance_structures(plugin)))


# Mostly edges oriented one way, so that four vertices often form an edge
# clique under an acyclic order and every member size is searched; with
# uniform states, four vertices form an edge clique once in about 250.
EDGE_HEAVY = st.sampled_from((0, 1, 2, 4) + (3,) * 12)


@settings(max_examples=300, deadline=None)
@given(A=oriented_structures(ORDERED_GRAPH, "E", EDGE_HEAVY), name=st.sampled_from(FORBIDDEN))
def test_forbidden_kernel_matches_oracle(A, name):
    assert_same(PLUGINS[name], A)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PLUGINS)))
def test_faulty_structures_match_oracle(data, name):
    # 2-6 vertices and one to six toggled tuples: several faults at once,
    # so the one named must be the oracle's first (for distance graphs the
    # least in sorted order), and pairs that share only a prec or E tuple
    plugin = PLUGINS[name]
    if name == "posets":
        A = data.draw(oriented_structures(POSET, "prec", min_size=2, faulty=True))
    elif name in METRIC:
        A = data.draw(distance_structures(plugin, min_size=2, faulty=True))
    else:
        A = data.draw(oriented_structures(ORDERED_GRAPH, "E", EDGE_HEAVY, min_size=2, faulty=True))
    assert_same(plugin, A)


def poset(verts, leq, prec, diag=True):
    loops = [(v, v) for v in verts] if diag else []
    return Structure(POSET, verts, {"leq": loops + leq, "prec": loops + prec})


def ordered(verts, leq, edges, diag=True):
    loops = [(v, v) for v in verts] if diag else []
    return Structure(ORDERED_GRAPH, verts, {"leq": loops + leq, "E": edges})


def chain(verts):
    return [(verts[i], verts[i + 1]) for i in range(len(verts) - 1)]


def closing(verts):
    return chain(verts) + [(verts[-1], verts[0])]


# One structure per screen and per failure kind, and some that complete,
# all on tokens inserted out of sorted order.
POSET_CASES = [
    ("missing-reflexive", Structure(POSET, ["z", "b"], {"leq": [("z", "z"), ("b", "b")], "prec": [("z", "z")]})),
    ("order-antisymmetry", poset(["z", "b"], [("z", "b"), ("b", "z")], [])),
    ("prec-antisymmetry", poset(["z", "b"], [("z", "b")], [("z", "b"), ("b", "z")])),
    ("unordered-pair", poset(["z", "b"], [], [("z", "b")])),
    ("prec-against-order", poset(["z", "b"], [("z", "b")], [("b", "z")])),
    ("prec-cycle", poset(["z", "m", "b"], closing(["z", "m", "b"]), closing(["z", "m", "b"]))),
    ("quasi-cycle", poset(["z", "m", "b"], chain(["z", "m", "b"]) + [("z", "b")], chain(["z", "m", "b"]))),
    ("frozen-prec-gap", poset(["z", "m", "b"], chain(["z", "m", "b"]) + [("b", "z")], chain(["z", "m", "b"]))),
    ("order-cycle", poset(["z", "m", "b"], closing(["z", "m", "b"]), [])),
    (None, poset(["z", "m", "b", "a"], [("z", "m"), ("b", "a")], [("z", "m")])),
    (None, poset(["v10", "v2", "c"], [("v2", "v10"), ("c", "v10")], [("v2", "v10")])),
]
FORBIDDEN_CASES = [
    ("edge-loop", ordered(["z", "b"], [("z", "b")], [("b", "b")])),
    ("missing-reflexive", ordered(["z", "b"], [], [], diag=False)),
    ("order-antisymmetry", ordered(["z", "b"], [("z", "b"), ("b", "z")], [])),
    ("unordered-pair", ordered(["z", "b"], [], [("z", "b"), ("b", "z")])),
    ("one-way-edge", ordered(["z", "b"], [("z", "b")], [("z", "b")])),
    ("one-way-edge", ordered(["z", "b"], [("z", "b")], [("b", "z")])),
    ("order-cycle", ordered(["z", "m", "b"], closing(["z", "m", "b"]), [])),
    ("forbidden-member", ordered(
        ["z", "m", "b"], [("b", "m"), ("m", "z"), ("b", "z")],
        [(u, v) for u in "zmb" for v in "zmb" if u != v],
    )),
    (None, ordered(["z", "m", "b"], [("b", "z")], [("b", "z"), ("z", "b")])),
]


@pytest.mark.parametrize("kind, A", POSET_CASES, ids=[str(k) for k, _ in POSET_CASES])
def test_poset_cases_match_oracle(kind, A):
    result = assert_same(PLUGINS["posets"], A)
    assert (result.certificate.kind if result.certificate else None) == kind


@pytest.mark.parametrize("kind, A", FORBIDDEN_CASES, ids=[str(k) for k, _ in FORBIDDEN_CASES])
def test_forbidden_cases_match_oracle(kind, A):
    result = assert_same(PLUGINS["forbidden:K3"], A)
    assert (result.certificate.kind if result.certificate else None) == kind


@pytest.mark.parametrize("name", METRIC)
def test_metric_cases_match_oracle(name):
    plugin = PLUGINS[name]
    d = plugin.S._symbols
    cases = [
        ("malformed-distance-graph", {d[0]: [("z", "z")]}),
        ("malformed-distance-graph", {d[0]: [("z", "b")]}),
        ("malformed-distance-graph", {d[0]: [("z", "b"), ("b", "z")], d[-1]: [("z", "b"), ("b", "z")]}),
        # two short edges against the longest distance, through "m"
        ("non-metric-cycle", {d[0]: [("z", "m"), ("m", "z"), ("m", "b"), ("b", "m")],
                              d[-1]: [("z", "b"), ("b", "z")]}),
        (None, {d[0]: [("z", "m"), ("m", "z")], d[-1]: [("b", "m"), ("m", "b")]}),
    ]
    for kind, rels in cases:
        if kind == "non-metric-cycle" and plugin.S.max <= 2 * plugin.S.min:
            continue
        result = assert_same(plugin, Structure(plugin.language, ["z", "m", "b"], rels))
        assert (result.certificate.kind if result.certificate else None) == kind


@pytest.mark.parametrize("name", sorted(PLUGINS))
def test_kernel_verdicts_match_oracle_on_patterns(name):
    plugin = PLUGINS[name]
    flip = plugin.pair_flip
    tried = failed = 0
    for k in range(5):
        verts = _pattern_vertices(k)
        for vec in _canonical_pair_vectors(k, len(flip), flip):
            P = plugin._pattern(k, vec)
            verdict = plugin._decide(verts, vec)[0] is None
            assert verdict == oracle.try_strong_completion(plugin, P).ok, (k, vec)
            tried += 1
            failed += not verdict
    # every distance graph over {1, 2} completes; the other classes have
    # obstacles on at most four vertices
    assert tried > 50 and (failed == 0) == (name == "metric:1,2")


@pytest.mark.parametrize("name", sorted(WEAK_PLUGINS))
def test_quotient_verdicts_match_try_completion(name):
    plugin = WEAK_PLUGINS[name]
    flip = plugin.pair_flip
    tried = weak = 0
    for k in range(5):
        verts = _pattern_vertices(k)
        for vec in _canonical_pair_vectors(k, len(flip), flip):
            if plugin._decide(verts, vec)[0] is None:
                continue
            verdict = _completing_quotient(plugin, verts, vec) is not None
            assert verdict == (oracle.try_completion(plugin._pattern(k, vec), plugin) is not None), (k, vec)
            tried += 1
            weak += verdict
    # every distance graph over {1, 2} completes; only the toy's kernel
    # failures complete through a quotient
    assert (tried == 0) == (name == "metric:1,2")
    assert (weak > 0) == (name == "toy-loop")


# one built-in plugin per distinct pair_flip
FLIP_PLUGINS = sorted({plugin.pair_flip: name for name, plugin in reversed(PLUGINS.items())}.values())


@pytest.mark.parametrize("name", FLIP_PLUGINS)
def test_identity_quotient_reads_every_vector_as_itself(name):
    # completion_iff_strong takes a kernel success for a completion
    # through the identity partition without asking the kernel again
    flip = PLUGINS[name].pair_flip
    for k in range(6):
        for vec in _canonical_pair_vectors(k, len(flip), flip):
            assert next(_quotients(vec, k, flip)) == (tuple(range(k)), list(vec)), (k, vec)


@pytest.mark.parametrize(
    "name, size_cap",
    [(name, 3) for name in sorted(PLUGINS)] + [("posets", 4), ("forbidden:K3", 4)]
    + [("toy-loop", size_cap) for size_cap in (2, 3, 4)],
)
def test_iff_report_matches_oracle(name, size_cap):
    plugin = WEAK_PLUGINS[name]
    fast = completion_iff_strong(plugin, size_cap)
    slow = oracle.completion_iff_strong(plugin, size_cap)
    assert (fast.checked, fast.violations) == (slow.checked, slow.violations)


class _Bounded(ClassPlugin):
    """The members of a built-in class on at most ``size`` vertices.  A
    structure on more vertices completes only through a quotient, so its
    blocks must hold only holes and show one state between them.
    Completability stays hereditary."""

    def __init__(self, inner, size):
        self.inner, self.size = inner, size
        self.name = f"{inner.name}<={size}"
        self.language, self.pair_flip = inner.language, inner.pair_flip

    def membership(self, A):
        return len(A.vertices) <= self.size and self.inner.membership(A)

    def _read(self, A):
        return self.inner._read(A)

    def _decide(self, verts, states):
        if len(verts) > self.size:
            return "too-big", None
        return self.inner._decide(verts, states)

    def _completed(self, verts, data):
        return self.inner._completed(verts, data)

    def try_strong_completion(self, A):
        result = self.inner.try_strong_completion(A)
        if result.ok and len(A.vertices) > self.size:
            return CompletionResult("no-completion", certificate=ObstacleCertificate("too-big", A.vertices))
        return result

    def _pattern(self, k, states):
        return self.inner._pattern(k, states)


BOUNDED = {
    plugin.name: plugin for plugin in (
        _Bounded(PLUGINS["posets"], 3),
        _Bounded(PLUGINS["metric:1,2,3,4"], 3),
        _Bounded(PLUGINS["metric:1,3"], 2),
        _Bounded(PLUGINS["forbidden:K3"], 2),
    )
}
QUOTIENT_PLUGINS = {**WEAK_PLUGINS, **BOUNDED}
# holes three times as likely as each other state, so that large blocks
# of vertices can be identified
HOLE_HEAVY = st.sampled_from((0, 0, 0, 1, 2, 3, 4))


def assert_same_completion(plugin, A):
    fast, slow = try_completion(A, plugin), oracle.try_completion(A, plugin)
    assert (fast is None) == (slow is None)
    if fast is not None:
        (q, C), (q_slow, C_slow) = fast, slow
        assert (q.map, q.target, C) == (q_slow.map, q_slow.target, C_slow)
    return fast


@st.composite
def loop_structures(draw, plugin, max_size=7):
    """Structures for the toy class: most vertices looped, and now and
    then an edge."""
    verts = draw(vertex_tokens(2, max_size))
    pair = st.tuples(st.sampled_from(verts), st.sampled_from(verts))
    edges = {(v, v) for v in verts} ^ set(draw(st.lists(pair, max_size=2)))
    return Structure(plugin.language, verts, {"E": edges})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(QUOTIENT_PLUGINS)))
def test_try_completion_matches_oracle(data, name):
    plugin = QUOTIENT_PLUGINS[name]
    faulty = data.draw(st.booleans())
    if name == "toy-loop":
        A = data.draw(loop_structures(plugin))
    elif plugin.language == POSET:
        A = data.draw(oriented_structures(POSET, "prec", HOLE_HEAVY, 2, faulty, max_size=7))
    elif plugin.language == ORDERED_GRAPH:
        A = data.draw(oriented_structures(ORDERED_GRAPH, "E", HOLE_HEAVY, 2, faulty, max_size=7))
    else:
        S = getattr(plugin, "inner", plugin)
        A = data.draw(distance_structures(S, 2, faulty, max_size=7, holes=3))
    assert_same_completion(plugin, A)


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_bounded_classes_complete_through_quotients(name):
    # on every canonical pattern with at most four vertices, and some
    # complete only by identifying vertices
    plugin = BOUNDED[name]
    flip = plugin.pair_flip
    merged = 0
    for k in range(5):
        for vec in _canonical_pair_vectors(k, len(flip), flip):
            found = assert_same_completion(plugin, plugin._pattern(k, vec))
            merged += found is not None and len(found[1].vertices) < k
    assert merged > 0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(METRIC))
def test_metric_membership_matches_oracle(data, name):
    # completed spaces are members; raw and faulty graphs mostly are not
    plugin = PLUGINS[name]
    A = data.draw(distance_structures(plugin, faulty=data.draw(st.booleans())))
    if data.draw(st.booleans()):
        result = plugin.try_strong_completion(A)
        A = result.completed if result.ok else A
    assert plugin.membership(A) == pattern_oracle.metric_membership(A, plugin.S)


PROBE_PLUGINS = {
    name: PLUGINS[name] for name in ("posets", "metric:1,2,3,4", "metric:1,3", "forbidden:K3")
}
# and one where every pullback on four or more vertices fails, so that
# counterexamples are many and repeat up to isomorphism
PROBE_PLUGINS[BOUNDED["posets<=3"].name] = BOUNDED["posets<=3"]
PROBE_OBSTACLES = {
    name: [O for O in plugin.obstacles_up_to(4) if len(O.vertices) > 1]
    for name, plugin in PROBE_PLUGINS.items()
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PROBE_PLUGINS)))
def test_probe_matches_oracle(data, name):
    plugin = PROBE_PLUGINS[name]
    if data.draw(st.booleans()):
        # an obstacle on more than n vertices and at most the cap, so that
        # counterexamples show up
        O = data.draw(st.sampled_from(PROBE_OBSTACLES[name]))
        tokens = data.draw(st.permutations(TOKENS))
        C0 = O.rename(dict(zip(O.vertices, tokens)))
        n = data.draw(st.integers(len(O.vertices) - 2, min(3, len(O.vertices) - 1)))
        size_cap = n + 2
    else:
        if plugin.language == POSET:
            C0 = data.draw(oriented_structures(POSET, "prec", min_size=2, max_size=4))
        elif plugin.language == ORDERED_GRAPH:
            C0 = data.draw(oriented_structures(ORDERED_GRAPH, "E", min_size=2, max_size=4))
        else:
            C0 = data.draw(distance_structures(plugin, min_size=2, max_size=4))
        n = data.draw(st.integers(0, 3))
        size_cap = n + data.draw(st.sampled_from((2, 1, 0)))
    budget = data.draw(st.sampled_from((2_000, 400, 100, 20, 0)))
    fault = plugin._read(C0)[1]
    if fault is not None:
        with pytest.raises(PreconditionError, match=fault.certificate.kind):
            probe_local_finiteness(plugin, C0, n, size_cap, budget)
        return
    fast = probe_local_finiteness(plugin, C0, n, size_cap, budget)
    slow = oracle.probe_local_finiteness(plugin, C0, n, size_cap, budget)
    assert (fast.examined, fast.inconclusive) == (slow.examined, slow.inconclusive)
    assert [dumps(P) for P in fast.counterexamples] == [dumps(P) for P in slow.counterexamples]


@pytest.mark.parametrize("symbols, member", [
    ((("d:1", 2), ("d:3", 2), ("E", 2)), False),
    ((("d:1", 3), ("d:3", 2)), False),
    ((("d:3", 2), ("d:1", 2)), True),
])
def test_metric_membership_of_foreign_languages_matches_oracle(symbols, member):
    # the 1-1-1 triangle over {1, 3}, in another language
    plugin = PLUGINS["metric:1,3"]
    lang = Language(symbols)
    ones = [(u, v) for u in "abc" for v in "abc" if u != v]
    arity = dict(symbols)["d:1"]
    rels = {"d:1": ones if arity == 2 else [t + (t[0],) for t in ones]}
    A = Structure(lang, ["a", "b", "c"], rels)
    assert plugin.membership(A) == pattern_oracle.metric_membership(A, plugin.S) == member


def test_metric_certificate_names_recorded_walk_edges():
    # over {1, 3, 7} the shortest walk from v1 to v2 starts on v1-v3, whose
    # recorded 3 is above its closed distance 1 (by v1-v4-v3): the
    # certificate names the recorded distances, as the oracle does
    plugin = MetricPlugin(distance_set(1, 3, 7))
    dist = {("v0", "v2"): 3, ("v0", "v3"): 3, ("v1", "v2"): 7, ("v1", "v3"): 3, ("v1", "v4"): 1,
            ("v2", "v3"): 7, ("v2", "v4"): 3, ("v3", "v4"): 1}
    A = sgraph_to_structure(SGraph([f"v{i}" for i in range(5)], dist), plugin.S)
    cert = assert_same(plugin, A).certificate
    assert cert.vertices == ("v1", "v3", "v0", "v2")
    assert cert.present == (("d:3", ("v1", "v3")), ("d:3", ("v3", "v0")), ("d:3", ("v0", "v2")),
                            ("d:7", ("v1", "v2")))
    assert cert.holds(A)
