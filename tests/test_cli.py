import json

import pytest

from ramseyforge import rsf
from ramseyforge.build import complete_graph, graph, ordered_graph, path_graph, poset
from ramseyforge.cli import run
from ramseyforge.ramsey import arrow_certificate_refutes
from ramseyforge.structures import Structure


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, A):
        p = tmp_path / name
        rsf.dump(A, p)
        paths[name] = str(p)
        return str(p)

    save("K1.rsf", graph(["x"], []))
    save("K2.rsf", graph(["a", "b"], [("a", "b")]))
    save("K3.rsf", complete_graph(3))
    save("P3.rsf", path_graph(3))
    (tmp_path / "S1235.json").write_text('{"distances": ["1","2","3","5"]}\n')
    paths["S1235.json"] = str(tmp_path / "S1235.json")
    (tmp_path / "S13.json").write_text('{"distances": ["1","3"]}\n')
    paths["S13.json"] = str(tmp_path / "S13.json")
    (tmp_path / "S124.json").write_text('{"distances": ["1","2","4"]}\n')
    paths["S124.json"] = str(tmp_path / "S124.json")
    paths["dir"] = str(tmp_path)
    return paths


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestMorph:
    def test_enumerate_embeddings(self, files, capsys):
        code, payload = run_json(
            capsys, ["morph", "enumerate", "--kind", "embedding",
                     files["K1.rsf"], files["K3.rsf"]],
        )
        assert code == 0 and payload["count"] == 3

    def test_verify(self, files, capsys):
        code, payload = run_json(
            capsys,
            ["morph", "verify", "--kind", "homomorphism",
             "--map", '{"a": "k0", "b": "k1"}',
             files["K2.rsf"], files["K3.rsf"]],
        )
        assert code == 0 and payload["valid"]

    def test_missing_file_is_usage_error(self, files):
        assert run(["morph", "enumerate", "--kind", "embedding",
                    files["K1.rsf"], files["dir"] + "/nope.rsf"]) == 3

    def test_unknown_flag_rejected(self, files):
        assert run(["morph", "enumerate", "--kind", "embedding",
                    "--bogus", files["K1.rsf"], files["K3.rsf"]]) == 3


@pytest.mark.parametrize("argv", [
    ["pieces", "classes", "{dir}/nope.json"],
    ["complete", "obstacles", "--class", "forbidden:{dir}/nope.json", "--cap", "3"],
    ["complete", "holes", "{dir}"],
])
def test_unreadable_input_is_usage_error(tmp_path, capsys, argv):
    # a missing file or a directory is a format error (exit 3), not a
    # traceback with the exit code of a refuted answer
    code = run([a.format(dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and err.startswith("format error: ")


class TestMetricCli:
    def test_four_values_witness_and_exit(self, files, capsys):
        code, payload = run_json(
            capsys, ["metric", "four-values", files["S1235.json"]]
        )
        assert code == 1
        assert payload["witness"] == ["1", "1", "3", "5", "2"]

    def test_blocks(self, files, capsys):
        code, payload = run_json(capsys, ["metric", "blocks", files["S13.json"]])
        assert code == 0 and payload["blocks"] == [["1"], ["3"]]

    def test_blocks_need_four_values(self, files, capsys):
        code, payload = run_json(capsys, ["metric", "blocks", files["S124.json"]])
        assert code == 3 and payload is None


class TestArrowCli:
    def test_refuted_with_recheckable_certificate(self, files, capsys):
        code, payload = run_json(
            capsys,
            ["ramsey", "arrow", files["P3.rsf"], files["K1.rsf"], files["K2.rsf"],
             "-k", "2", "--mode", "exhaustive"],
        )
        assert code == 1 and payload["holds"] == "refuted"
        cert = payload["certificate"]
        C = rsf.load(files["P3.rsf"])
        A = rsf.load(files["K1.rsf"])
        B = rsf.load(files["K2.rsf"])
        # round-trip: feed the emitted colouring back through the verifier
        order = sorted(cert)
        colouring = [cert[k] for k in order]
        assert arrow_certificate_refutes(C, A, B, colouring)

    def test_proved_is_exit_zero(self, files, capsys):
        code, payload = run_json(
            capsys,
            ["ramsey", "arrow", files["K3.rsf"], files["K1.rsf"], files["K2.rsf"],
             "-k", "2", "--mode", "exhaustive"],
        )
        assert code == 0 and payload["holds"] == "proved"

    def test_exhaustive_k6_triangles_proved(self, files, capsys, tmp_path):
        # R(3,3) = 6; the cap counts search nodes, not 2^15 edge colourings
        k6 = tmp_path / "K6.rsf"
        rsf.dump(complete_graph(6), k6)
        code, payload = run_json(
            capsys,
            ["ramsey", "arrow", str(k6), files["K2.rsf"], files["K3.rsf"],
             "-k", "2", "--mode", "exhaustive"],
        )
        assert code == 0 and payload["holds"] == "proved"
        assert payload["mode"] == "exhaustive"
        assert 0 < payload["colourings_examined"] < 2**15

    def test_hj_inconclusive_is_exit_two(self, files, capsys):
        code, payload = run_json(capsys, ["ramsey", "hj", "-t", "3", "-k", "2"])
        assert code == 2 and not payload["conclusive"]


class TestCompleteCli:
    def test_poset_completion_round_trip(self, files, capsys, tmp_path):
        chain = poset(["x", "y"], [("x", "y")], order=["x", "y"])
        p = tmp_path / "chain.rsf"
        rsf.dump(chain, p)
        code, payload = run_json(
            capsys, ["complete", "run", "--class", "posets", str(p)]
        )
        assert code == 0 and payload["status"] == "completed"
        completed, _ = rsf.obj_to_structure(payload["structure"])
        assert completed == chain

    def test_no_completion_emits_certificate(self, files, capsys, tmp_path):
        bad = poset(["a", "b"], [("a", "b"), ("b", "a")])
        p = tmp_path / "bad.rsf"
        rsf.dump(bad, p)
        code, payload = run_json(
            capsys, ["complete", "run", "--class", "posets", str(p)]
        )
        assert code == 1
        assert payload["certificate"]["kind"] == "prec-antisymmetry"
        # certificate facts re-check against the input
        for sym, t in payload["certificate"]["present"]:
            assert tuple(t) in bad.tuples(sym)

    @pytest.mark.parametrize("klass", ["posets", "metric:1,2"])
    def test_structure_outside_the_language_is_usage_error(self, files, capsys, klass):
        code = run(["complete", "run", "--class", klass, files["K3.rsf"]])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and err.startswith("error: ")

    def test_holes(self, files, capsys):
        code, payload = run_json(capsys, ["complete", "holes", files["P3.rsf"]])
        assert code == 0 and payload["holes"] == [["p0", "p2"]]


class TestPiecesCli:
    def test_list_and_classes(self, files, capsys, tmp_path):
        from ramseyforge.build import cycle_graph

        p = tmp_path / "C5.rsf"
        rsf.dump(cycle_graph(5), p)
        code, payload = run_json(capsys, ["pieces", "list", str(p)])
        assert code == 0 and len(payload["cuts"]) == 5
        code, payload = run_json(capsys, ["pieces", "classes", str(p)])
        assert code == 0 and len(payload["classes"]) == 2

    def test_key_budget_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        from ramseyforge import structures
        from ramseyforge.build import cycle_graph

        p = tmp_path / "C7.rsf"
        rsf.dump(cycle_graph(7), p)
        monkeypatch.setattr(structures, "KEY_NODE_BUDGET", 1)
        code, payload = run_json(capsys, ["pieces", "classes", str(p)])
        assert code == 2 and payload["status"] == "inconclusive"
        assert "node budget" in payload["reason"]


class TestLiftCli:
    def test_distance(self, files, capsys, tmp_path):
        p = tmp_path / "P4.rsf"
        rsf.dump(path_graph(4), p)
        code, payload = run_json(capsys, ["lift", "distance", "-l", "5", str(p)])
        assert code == 0
        lifted, _ = rsf.obj_to_structure(payload["structure"])
        assert ("p0", "p2") in lifted.tuples("rho:2")

    def test_canonical(self, files, capsys, tmp_path):
        from ramseyforge.build import cycle_graph

        c5 = tmp_path / "C5.rsf"
        rsf.dump(cycle_graph(5), c5)
        p3 = tmp_path / "P3g.rsf"
        rsf.dump(path_graph(3), p3)
        code, payload = run_json(
            capsys, ["lift", "canonical", "--family", str(c5), str(p3)]
        )
        assert code == 0
        assert set(payload["classes"]) == {"0", "1"}


class TestClosureCli:
    @pytest.fixture
    def closure_files(self, tmp_path):
        from ramseyforge.build import POINTED, pointed_equivalence
        from ramseyforge.closures import closure_description

        root = Structure(POINTED, ["1"], {})
        U = closure_description(("U", root))
        upath = tmp_path / "U.json"
        upath.write_text(rsf.dumps_closure_description(U), encoding="utf-8")
        pe = pointed_equivalence([["u", "v"]])
        ppath = tmp_path / "pe.rsf"
        rsf.dump(pe, ppath)
        broken = pe.replace({"U": []})
        bpath = tmp_path / "broken.rsf"
        rsf.dump(broken, bpath)
        return {"U": str(upath), "pe": str(ppath), "broken": str(bpath)}

    def test_check(self, closure_files, capsys):
        code, payload = run_json(
            capsys, ["closure", "check", "--closures", closure_files["U"], closure_files["pe"]]
        )
        assert code == 0 and payload["closed"]
        code, payload = run_json(
            capsys, ["closure", "check", "--closures", closure_files["U"], closure_files["broken"]]
        )
        assert code == 1 and not payload["closed"] and payload["semi_closed"]

    def test_close_and_size(self, closure_files, capsys):
        code, payload = run_json(
            capsys,
            ["closure", "close", "--closures", closure_files["U"],
             "--generators", "u", closure_files["pe"]],
        )
        assert code == 0
        closed, _ = rsf.obj_to_structure(payload["structure"])
        assert closed.vertices == ("u", "v")
        code, payload = run_json(
            capsys, ["closure", "size", "--closures", closure_files["U"], closure_files["pe"]]
        )
        assert code == 0 and payload["u_size"] == 1

    @pytest.mark.parametrize("relation", [["U"], 7])
    def test_relation_that_is_not_a_string_is_a_format_error(self, closure_files, relation, capsys):
        with open(closure_files["U"], encoding="utf-8") as fh:
            arr = json.load(fh)
        arr[0]["relation"] = relation
        with open(closure_files["U"], "w", encoding="utf-8") as fh:
            json.dump(arr, fh)
        code = run(["closure", "check", "--closures", closure_files["U"], closure_files["pe"]])
        assert code == 3
        assert "closure relation must be a string" in capsys.readouterr().err

    def test_boolean_arity_is_a_format_error(self, closure_files, capsys):
        with open(closure_files["pe"], encoding="utf-8") as fh:
            obj = json.load(fh)
        obj["language"] = [dict(entry, arity=True) if entry["arity"] == 1 else entry for entry in obj["language"]]
        with open(closure_files["pe"], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code = run(["closure", "check", "--closures", closure_files["U"], closure_files["pe"]])
        assert code == 3
        assert "language entry types" in capsys.readouterr().err


class TestAmalgCli:
    def test_free_amalgam(self, files, capsys, tmp_path):
        B1 = graph(["x", "y"], [("x", "y")])
        B2 = graph(["x", "z"], [("x", "z")])
        shared = graph(["x"], [])
        paths = {}
        for name, A in (("B1", B1), ("B2", B2), ("A", shared)):
            p = tmp_path / f"{name}.rsf"
            rsf.dump(A, p)
            paths[name] = str(p)
        code, payload = run_json(
            capsys, ["amalg", "--over", paths["A"], paths["B1"], paths["B2"]]
        )
        assert code == 0
        out, _ = rsf.obj_to_structure(payload["structure"])
        assert len(out.vertices) == 3 and len(out.tuples("E")) == 4


class TestMetricGraphCli:
    def test_complete_and_scan(self, files, capsys, tmp_path):
        from ramseyforge.metric import SGraph, distance_set, sgraph_to_structure

        S = distance_set(1, 2, 3, 4)
        spath = tmp_path / "S.json"
        spath.write_text('{"distances": ["1","2","3","4"]}\n')
        good = sgraph_to_structure(
            SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1}), S
        )
        gpath = tmp_path / "good.rsf"
        rsf.dump(good, gpath)
        code, payload = run_json(
            capsys, ["metric", "complete", str(spath), str(gpath)]
        )
        assert code == 0 and payload["status"] == "completed"
        bad = sgraph_to_structure(
            SGraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 4}), S
        )
        bpath = tmp_path / "bad.rsf"
        rsf.dump(bad, bpath)
        code, payload = run_json(capsys, ["metric", "complete", str(spath), str(bpath)])
        assert code == 1 and payload["recorded"] == "4"
        code, payload = run_json(capsys, ["metric", "scan", str(spath), str(bpath)])
        assert code == 1 and payload["non_metric_cycle"]["distances"][-1] == "4"
        code, payload = run_json(capsys, ["metric", "scan", str(spath), str(gpath)])
        assert code == 0 and payload["non_metric_cycle"] is None


    @pytest.mark.parametrize("symbols", [
        (("d:1", 2), ("d:3", 2), ("E", 2)),
        (("d:1", 3), ("d:3", 2)),
    ], ids=["extra-symbol", "ternary-d1"])
    @pytest.mark.parametrize("action", ["complete", "scan"])
    def test_foreign_symbol_is_usage_error(self, files, capsys, tmp_path, symbols, action):
        # ``metric complete`` used to drop E and answer "completed", and a
        # ternary d:1 crashed with a traceback
        from ramseyforge.structures import language

        arity = dict(symbols)["d:1"]
        rels = {"d:1": [("a", "b") + ("a",) * (arity - 2), ("b", "a") + ("b",) * (arity - 2)]}
        if "E" in dict(symbols):
            rels["E"] = [("a", "b")]
        path = tmp_path / "foreign.rsf"
        rsf.dump(Structure(language(*symbols), ["a", "b"], rels), path)
        code = run(["metric", action, files["S13.json"], str(path)])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("error: symbol ") and "is not a distance symbol" in err

    def test_reordered_language_is_read(self, files, capsys, tmp_path):
        from ramseyforge.structures import language

        path = tmp_path / "reordered.rsf"
        rsf.dump(Structure(language(("d:3", 2), ("d:1", 2)), ["a", "b"],
                           {"d:1": [("a", "b"), ("b", "a")]}), path)
        code, payload = run_json(capsys, ["metric", "complete", files["S13.json"], str(path)])
        assert code == 0 and payload["status"] == "completed"

    def test_partial_declaration_is_read(self, files, capsys, tmp_path):
        # a {1, 3}-graph declaring d:1 only: metric complete and scan read
        # d:3 as empty (they exited 3 on "unknown symbol 'd:3'"), while
        # complete run still refuses the language
        from ramseyforge.structures import language

        path = tmp_path / "partial.rsf"
        rsf.dump(Structure(language(("d:1", 2)), ["a", "b", "c"],
                           {"d:1": [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]}), path)
        code, payload = run_json(capsys, ["metric", "complete", files["S13.json"], str(path)])
        assert code == 0 and payload["status"] == "completed"
        assert ["a", "c"] in payload["structure"]["relations"]["d:1"]
        code, payload = run_json(capsys, ["metric", "scan", files["S13.json"], str(path)])
        assert code == 0 and payload["non_metric_cycle"] is None
        code = run(["complete", "run", "--class", "metric:1,3", str(path)])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and "Traceback" not in err
        assert err == "error: the structure must live in the plugin's language\n"


class TestLiftMaximalCli:
    def test_stable_lift(self, files, capsys, tmp_path):
        from ramseyforge.build import cycle_graph

        c5 = tmp_path / "C5.rsf"
        rsf.dump(cycle_graph(5), c5)
        two = tmp_path / "two.rsf"
        rsf.dump(graph(["a", "b"], []), two)
        code, payload = run_json(
            capsys, ["lift", "maximal", "--family", str(c5), str(two)]
        )
        assert code == 0 and payload["status"] == "stable"
        lifted, _ = rsf.obj_to_structure(payload["structure"])
        assert ("a", "b") in lifted.tuples("ext:0:2")


class TestRamseyConstructCli:
    def test_construct_then_arrow(self, files, capsys, tmp_path):
        from ramseyforge.build import ORDERED_GRAPH, ordered_graph

        ov = tmp_path / "OV.rsf"
        rsf.dump(Structure(ORDERED_GRAPH, ["1"], {"leq": [("1", "1")]}), ov)
        edge = tmp_path / "edge.rsf"
        rsf.dump(ordered_graph(["a", "b"], [("a", "b")]), edge)
        tri = tmp_path / "tri.rsf"
        rsf.dump(
            ordered_graph(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2"), ("t0", "t2")]),
            tri,
        )
        code, payload = run_json(
            capsys, ["ramsey", "construct", str(ov), str(edge), str(tri)]
        )
        assert code == 0
        out = tmp_path / "C.rsf"
        out.write_text(json.dumps(payload["structure"]) + "\n")
        code, verdict = run_json(
            capsys,
            ["ramsey", "arrow", str(out), str(ov), str(edge), "-k", "2",
             "--mode", "exhaustive"],
        )
        assert code == 0 and verdict["holds"] == "proved"

    def test_cap_abort_is_exit_two(self, files, capsys, tmp_path):
        from ramseyforge.build import ordered_graph

        A = tmp_path / "A.rsf"
        rsf.dump(ordered_graph(["a0", "a1"], [("a0", "a1")]), A)
        B = tmp_path / "B.rsf"
        rsf.dump(
            ordered_graph(["b0", "b1", "b2"], [("b0", "b1"), ("b0", "b2"), ("b1", "b2")]),
            B,
        )
        C0 = tmp_path / "C0.rsf"
        rsf.dump(
            ordered_graph(
                ["q0", "q1", "q2", "q3"],
                [("q0", "q1"), ("q0", "q2"), ("q1", "q2"), ("q1", "q3"), ("q2", "q3")],
            ),
            C0,
        )
        code = run(["ramsey", "construct", str(A), str(B), str(C0),
                    "--assert-arrow", "--cap", "3000"])
        assert code == 2

    def test_unary(self, files, capsys, tmp_path):
        from ramseyforge.build import linear_order_tuples
        from ramseyforge.structures import language

        UF = language(("f", 2), ("leq", 2), order_symbol="leq")
        A = Structure(UF, ["a"], {"f": [("a", "a")], "leq": [("a", "a")]})
        B = Structure(
            UF, ["u", "v"],
            {"f": [("u", "u"), ("v", "v")], "leq": linear_order_tuples(["u", "v"])},
        )
        apath, bpath = tmp_path / "A.rsf", tmp_path / "B.rsf"
        rsf.dump(A, apath)
        rsf.dump(B, bpath)
        code, payload = run_json(
            capsys, ["ramsey", "unary", str(apath), str(bpath)]
        )
        assert code == 0 and payload["dimension"] == 3
        C, _ = rsf.obj_to_structure(payload["structure"])
        assert len(C.vertices) == 3


class TestCompleteProbeCli:
    def test_probe_counterexample_exit(self, files, capsys, tmp_path):
        from ramseyforge.metric import SGraph, distance_set, sgraph_to_structure

        S = distance_set(1, 3)
        T = sgraph_to_structure(
            SGraph(["x", "y", "z"], {("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 3}), S
        )
        tpath = tmp_path / "T.rsf"
        rsf.dump(T, tpath)
        code, payload = run_json(
            capsys,
            ["complete", "probe", "--class", "metric:1,3", "-n", "2",
             "--cap", "3", str(tpath)],
        )
        assert code == 1 and payload["counterexamples"]

    @pytest.mark.parametrize(
        "rels, n",
        [
            ({"d:1": [("a", "b"), ("b", "a")]}, "-1"),
            # a one-way tuple fails the screen
            ({"d:1": [("a", "b")]}, "1"),
        ],
    )
    def test_probe_refuses_bad_input(self, capsys, tmp_path, rels, n):
        from ramseyforge.completion import get_plugin

        path = tmp_path / "C0.rsf"
        rsf.dump(Structure(get_plugin("metric:1,3").language, ["a", "b"], rels), path)
        code, payload = run_json(
            capsys,
            ["complete", "probe", "--class", "metric:1,3", "-n", n, "--cap", "2", str(path)],
        )
        assert code == 3 and payload is None

    def test_iff_holds(self, files, capsys):
        code, payload = run_json(
            capsys, ["complete", "iff", "--class", "posets", "--cap", "3"]
        )
        assert code == 0 and payload["holds"]

    @pytest.mark.parametrize("action", ["iff", "obstacles"])
    def test_negative_cap_is_a_usage_error(self, capsys, action):
        code, payload = run_json(
            capsys, ["complete", action, "--class", "posets", "--cap", "-1"]
        )
        assert code == 3 and payload is None

    def test_forbidden_file_obstacles(self, capsys, tmp_path):
        from ramseyforge.completion import kfree_plugin

        k3 = ordered_graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        members = tmp_path / "K3.json"
        members.write_text(json.dumps([rsf.structure_to_obj(k3)]))
        code, payload = run_json(
            capsys,
            ["complete", "obstacles", "--class", f"forbidden:{members}", "--cap", "4"],
        )
        expected = kfree_plugin(3).obstacles_up_to(4)
        assert code == 0 and payload["count"] == len(expected) == 11
        assert payload["obstacles"] == [rsf.structure_to_obj(P) for P in expected]


class TestOutput:
    def test_out_file(self, files, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(["--out", str(target), "metric", "blocks", files["S13.json"]])
        assert code == 0
        assert json.loads(target.read_text())["blocks"] == [["1"], ["3"]]
        assert capsys.readouterr().out == ""
