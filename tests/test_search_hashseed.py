"""Morphism search output must not depend on PYTHONHASHSEED.

The search draws candidates from neighbourhood sets; this runs a fixed set
of searches in fresh interpreters under different hash seeds and requires
byte-identical output.
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


def _run(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_search_output_identical_across_hash_seeds():
    outputs = [_run(seed) for seed in ("0", "1", "2", "3")]
    assert all(out == outputs[0] for out in outputs[1:])
    counts = [int(line.split("\t")[1]) for line in outputs[0].splitlines()]
    # every search finds something, so the comparison is not vacuous
    assert len(counts) == 4 and all(c > 0 for c in counts)
