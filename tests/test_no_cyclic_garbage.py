"""Searches leave no reference cycles, finished or abandoned.

A nested function that calls itself reaches itself through its closure
cell, a reference cycle that only the cycle collector frees, with all the
search state the closure holds.  The morphism search kernel
(``compile_search``) is one flat loop with no recursive closure, so its
runs, projected and copy searches included, hold no cycle even when
dropped part way.  The recursive closures left elsewhere empty their cell
in a ``finally``.  The searches below run with the collector saving
everything it finds unreachable; no ``ramseyforge`` function may be among
it.
"""

import gc

from ramseyforge.build import complete_graph, cycle_graph, graph
from ramseyforge.completion import (
    _quotients,
    get_plugin,
    kfree_plugin,
    probe_local_finiteness,
    try_completion,
)
from ramseyforge.pieces import PieceFamily, canonical_lift
from ramseyforge.structures import (
    Structure,
    _copy_search,
    compile_search,
    copies_of,
    language,
    search_morphisms,
    verify_morphism,
)

from conftest import odd_vertices
from test_completion import _SingleLoopPlugin


def library_functions_in_cycles(work) -> list[str]:
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return sorted(
            f.__qualname__ for f in gc.garbage
            if callable(f) and getattr(f, "__module__", "").startswith("ramseyforge")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_searches_leave_no_cycles():
    T = language(("E", 2), ("T", 3))
    spanned = Structure(T, ["a", "b", "c"], {"E": [("a", "b"), ("b", "c"), ("a", "c")]})

    def work():
        C5, K4 = cycle_graph(5), complete_graph(4)
        list(search_morphisms(C5, K4, "homomorphism"))
        # abandoned after the first map
        next(search_morphisms(C5, K4, "homomorphism-embedding"))
        # screened by walk length and parity, refuted at the first vertex
        K33 = graph(["a0", "a1", "a2", "b0", "b1", "b2"], [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
        list(search_morphisms(cycle_graph(9), K33, "homomorphism-embedding"))
        odd_vertices(graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")]))
        run = compile_search(graph(["a", "b", "c"], [("a", "b"), ("b", "c")]), K4,
                             "homomorphism-embedding", ("a", "c"), project=True)
        list(run(()))
        # a projected run and a copy search, each abandoned after one hit
        next(run(()))
        next(_copy_search(complete_graph(3), complete_graph(5)))
        copies_of(complete_graph(3), complete_graph(5))
        canonical_lift(complete_graph(4), PieceFamily([cycle_graph(7)]))
        target = Structure(T, ["x", "y", "z"], {"E": [("x", "y"), ("y", "z"), ("x", "z")], "T": [("x", "y", "z")]})
        f = next(search_morphisms(spanned, target, "homomorphism"))
        verify_morphism(type(f)(f.source, f.target, f.map, "homomorphism-embedding"))

    assert library_functions_in_cycles(work) == []


def test_completion_leaves_no_cycles():
    def work():
        get_plugin("posets").obstacles_up_to(3)
        kfree_plugin(3).obstacles_up_to(3)
        # every partition of four vertices, a search abandoned after the
        # identity, and one that stops at the toy's one-block quotient
        list(_quotients([0] * 6, 4, (0,)))
        next(_quotients([0] * 6, 4, (0,)))
        toy = _SingleLoopPlugin()
        try_completion(Structure(toy.language, "uvw", {"E": [(v, v) for v in "uvw"]}), toy)
        # a full probe sweep with counterexamples, and one cut by its budget
        metric = get_plugin("metric:1,3")
        T = metric._pattern(3, (1, 1, 2))
        probe_local_finiteness(metric, T, n=2, size_cap=4)
        probe_local_finiteness(metric, T, n=2, size_cap=4, budget=50)

    assert library_functions_in_cycles(work) == []
