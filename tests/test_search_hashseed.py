"""Search output and reports must not depend on PYTHONHASHSEED.

The morphism search draws candidates from neighbourhood sets, the closure
checks collect prefixes in sets, obstacle search keeps failing pattern
vectors in sets, lifts collect root tuples in sets, copies are keyed by
image sets, and a distance structure's tuples are read from sets; this
runs fixed searches and reports in fresh interpreters under different hash
seeds and requires byte-identical output.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import random
from ramseyforge.build import complete_graph, cycle_graph, graph
from ramseyforge.structures import Structure, language, search_morphisms

rng = random.Random(7)
verts = [f"g{i}" for i in range(11)]
edges = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:] if rng.random() < 0.45]
G = graph(verts, edges)

mixed = language(("U", 1), ("E", 2), ("T", 3))
pattern = Structure(mixed, ["a", "b", "c"], {
    "U": [("a",)], "E": [("a", "b"), ("b", "c"), ("c", "c")], "T": [("a", "b", "a")],
})
host_verts = [f"h{i}" for i in range(7)]
# A copy of the pattern on h1, h4, h2, plus random tuples that each touch
# a vertex outside it.
planted = {"a": "h1", "b": "h4", "c": "h2"}
rels = {name: [tuple(planted[v] for v in t) for t in pattern.tuples(name)] for name in "UET"}
outside = lambda t: not set(t) <= set(planted.values())
rels["U"] += [(v,) for v in host_verts if outside((v,)) and rng.random() < 0.6]
rels["E"] += [(u, v) for u in host_verts for v in host_verts if outside((u, v)) and rng.random() < 0.35]
rels["T"] += [(u, v, u) for u in host_verts for v in host_verts if outside((u, v)) and rng.random() < 0.4]
host = Structure(mixed, host_verts, rels)

searches = [
    ("C5 homomorphisms", search_morphisms(cycle_graph(5), G, "homomorphism")),
    ("K3 copies", search_morphisms(complete_graph(3), G, "embedding")),
    ("pinned homomorphism-embeddings", search_morphisms(
        cycle_graph(4), G, "homomorphism-embedding", fixed={"c0": edges[5][0], "c1": edges[5][1]})),
    ("mixed-arity embeddings", search_morphisms(pattern, host, "embedding")),
]
for name, found in searches:
    maps = [m.map for m in found]
    print(name, len(maps), maps, sep="\t")
"""


REPORTS_SCRIPT = r"""
import random
from ramseyforge.build import POINTED, complete_graph
from ramseyforge.closures import closed_violation, closure_description
from ramseyforge.ramsey import verify_arrow
from ramseyforge.structures import Structure

# 40 of the 64 U pairs on eight vertices: several prefixes violate the
# closure at once, so the report depends on which one is checked first.
rng = random.Random(11)
verts = [f"x{i}" for i in range(8)]
pairs = rng.sample([(u, v) for u in verts for v in verts], 40)
A = Structure(POINTED, verts, {"U": pairs})
U = closure_description(("U", Structure(POINTED, ["1"], {})))
print("closure violation", closed_violation(A, U), sep="\t")
report = verify_arrow(complete_graph(5), complete_graph(2), complete_graph(3), 2)
print("K5 arrow", report.holds, sorted(report.certificate().items()), sep="\t")
"""


COMPLETION_SCRIPT = r"""
from ramseyforge.completion import get_plugin, kfree_plugin
from ramseyforge.metric import SGraph, sgraph_to_structure

for plugin in (get_plugin("posets"), kfree_plugin(3)):
    found = plugin.obstacles_up_to(4)
    rels = [[(name, sorted(P.tuples(name))) for name in P.language.names()] for P in found]
    print(plugin.name, len(found), rels, sep="\t")

# a one-three cycle: no completion, and a certificate naming the walk
m13 = get_plugin("metric:1,3")
verts = [f"c{i}" for i in range(5)]
dist = {(verts[i], verts[i + 1]): 1 for i in range(4)}
dist[(verts[0], verts[4])] = 3
result = m13.try_strong_completion(sgraph_to_structure(SGraph(verts, dist), m13.S))
print("one-three certificate", result.status, result.certificate.to_obj(), sep="\t")
"""


LIFT_SCRIPT = r"""
from ramseyforge.build import cycle_graph, graph
from ramseyforge.pieces import PieceFamily, canonical_lift, forb_membership, lift_sidecar, maximal_lift

family = PieceFamily([cycle_graph(5)])
# the 7-cycle with a pendant path: C5-free, with walks of both parities
ring = [f"r{i}" for i in range(7)]
edges = [(ring[i], ring[(i + 1) % 7]) for i in range(7)] + [("r0", "t0"), ("t0", "t1")]
G = graph(ring + ["t0", "t1"], edges)
assert forb_membership(G, family.members)
lift = canonical_lift(G, family)
print("canonical lift", [(i, sorted(ts)) for i, ts in lift.ext], sep="\t")
print("sidecar", lift_sidecar(lift), sep="\t")
result = maximal_lift(graph(["a", "b", "c"], [("a", "b")]), family)
W = result.witness
print("maximal lift", result.status, [(i, sorted(ts)) for i, ts in result.lift.ext],
      W.vertices, sorted(W.tuples("E")), sep="\t")
"""


COPIES_SCRIPT = r"""
import hashlib
from ramseyforge.build import ORDERED_GRAPH, complete_graph, graph, ordered_graph
from ramseyforge.ramsey import partite_construction
from ramseyforge.structures import Structure, copies_of

# the circulant graph on 16 vertices with offsets 1-4: 8-regular, with
# K4 copies on every four consecutive vertices and more
verts = [f"g{i}" for i in range(16)]
G = graph(verts, [(verts[i], verts[(i + d) % 16]) for i in range(16) for d in (1, 2, 3, 4)])
copies = copies_of(complete_graph(4), G)
listing = repr([(sorted(image), [m.map for m in ms]) for image, ms in copies.items()])
print("K4 copies", len(copies), sum(map(len, copies.values())), hashlib.sha256(listing.encode()).hexdigest(), sep="\t")

OV = Structure(ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]})
edge = ordered_graph(["a", "b"], [("a", "b")])
triangle = ordered_graph(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
result = partite_construction(OV, edge, triangle)
C = result.structure
print("construction", C.vertices, [(name, sorted(C.tuples(name))) for name in C.language.names()],
      result.projection.map, result.picture_sizes, result.steps, sep="\t")
"""


CERTIFICATES_SCRIPT = r"""
from ramseyforge.build import ORDERED_GRAPH, POSET
from ramseyforge.completion import get_plugin, kfree_plugin
from ramseyforge.structures import Structure

# tokens listed out of their sorted order
T = ["z9", "k", "b3", "x1", "a"]
chain = [(T[i], T[i + 1]) for i in range(4)]
loops = [(v, v) for v in T]

def poset(leq, prec, leq_loops=loops, prec_loops=loops):
    return Structure(POSET, T, {"leq": leq_loops + leq, "prec": prec_loops + prec})

transitive = [(T[i], T[j]) for i in range(5) for j in range(i + 1, 5)]
cases = [
    poset(transitive, [], prec_loops=loops[:3] + loops[4:]),
    poset(transitive + [("x1", "k")], []),
    poset(transitive, [("k", "x1"), ("x1", "k")]),
    poset(chain, [("z9", "x1")]),
    poset(transitive, [("x1", "k")]),
    poset(chain + [("a", "z9")], chain + [("a", "z9")]),
    poset(transitive, chain),
    poset(chain + [("a", "z9")], chain),
    poset(chain + [("a", "z9")], []),
]
posets = get_plugin("posets")
for A in cases:
    print("poset", posets.try_strong_completion(A).certificate.to_obj(), sep="\t")

edges = [(u, v) for u in T[:4] for v in T[:4] if u != v] + [("a", "k"), ("k", "a")]
G = Structure(ORDERED_GRAPH, T, {"leq": loops + transitive, "E": edges})
print("forbidden", kfree_plugin(4).try_strong_completion(G).certificate.to_obj(), sep="\t")
"""


DISTANCE_FAULT_SCRIPT = r"""
from ramseyforge.completion import get_plugin
from ramseyforge.errors import StructureError
from ramseyforge.metric import structure_to_sgraph
from ramseyforge.structures import Structure

# two one-way d:1 tuples: the least fault, on (a, b), is the one reported
m12 = get_plugin("metric:1,2")
A = Structure(m12.language, ["f", "e", "d", "c", "b", "a"], {
    "d:1": [("c", "d"), ("a", "b")], "d:2": [("e", "f"), ("f", "e")],
})
print("certificate", m12.try_strong_completion(A).certificate.to_obj(), sep="\t")
try:
    structure_to_sgraph(A, m12.S)
except StructureError as exc:
    print("reader", exc, sep="\t")
"""


def _run(hashseed: str, script: str = SCRIPT) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_search_output_identical_across_hash_seeds():
    outputs = [_run(seed) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    counts = [int(line.split("\t")[1]) for line in outputs[0].splitlines()]
    # every search finds something, so the comparison is not vacuous
    assert len(counts) == 4 and all(c > 0 for c in counts)


def test_closure_violation_and_arrow_certificate_identical_across_hash_seeds():
    outputs = [_run(seed, REPORTS_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    closure, arrow = outputs[0].splitlines()
    # the smallest violating prefix is reported, and K5 does not arrow
    assert closure == "closure violation\tU@('x0',): tuple at a non-root prefix"
    assert arrow.startswith("K5 arrow\trefuted\t")


def test_obstacles_and_metric_certificate_identical_across_hash_seeds():
    outputs = [_run(seed, COMPLETION_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    posets, kfree, cycle = outputs[0].splitlines()
    # both obstacle lists are nonempty, and the cycle does not complete
    assert int(posets.split("\t")[1]) > 0 and int(kfree.split("\t")[1]) > 0
    assert cycle.startswith("one-three certificate\tno-completion\t{'kind': 'non-metric-cycle'")


def test_lifts_identical_across_hash_seeds():
    outputs = [_run(seed, LIFT_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    lift, sidecar, maximal = outputs[0].splitlines()
    # the lift relates some root pairs, both classes are described, and the
    # maximal lift grows a witness beyond its three base vertices
    assert "('r0', 'r2')" in lift
    assert sidecar.startswith("sidecar\t{'0': {'width': 2, ") and "'1': {'width': 2, " in sidecar
    assert maximal.startswith("maximal lift\tstable\t") and "'x0." in maximal


def test_copies_and_construction_identical_across_hash_seeds():
    outputs = [_run(seed, COPIES_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    copies, construction = outputs[0].splitlines()
    # 64 copies of K4, each with its 24 witness embeddings; the construction
    # identifies three times
    assert copies.startswith("K4 copies\t64\t1536\t")
    assert construction.startswith("construction\t") and "('identify:t0', 'identify:t1', 'identify:t2')" in construction


def test_completion_certificates_identical_across_hash_seeds():
    outputs = [_run(seed, CERTIFICATES_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    kinds = [line.split("'kind': '")[1].split("'")[0] for line in outputs[0].splitlines()]
    assert kinds == [
        "missing-reflexive", "order-antisymmetry", "prec-antisymmetry", "unordered-pair",
        "prec-against-order", "prec-cycle", "quasi-cycle", "frozen-prec-gap", "order-cycle",
        "forbidden-member",
    ]


def test_distance_fault_identical_across_hash_seeds():
    outputs = [_run(seed, DISTANCE_FAULT_SCRIPT) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    certificate, reader = outputs[0].splitlines()
    assert "'kind': 'malformed-distance-graph'" in certificate
    assert "'note': \"one-way distance tuple ('a', 'b')\"" in certificate
    assert reader == "reader\tone-way distance tuple ('a', 'b')"
