import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge import rsf
from ramseyforge.build import GRAPH, complete_graph, ordered_graph
from ramseyforge.closures import closure_description
from ramseyforge.errors import FormatError
from ramseyforge.metric import DistanceSet
from ramseyforge.structures import Structure, language


def test_round_trip(tmp_path):
    A = ordered_graph(["a", "b", "c"], [("a", "b")])
    path = tmp_path / "a.rsf"
    rsf.dump(A, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert rsf.load(path) == A


def test_rooted_round_trip():
    A = complete_graph(3)
    text = rsf.dumps(A, root=("k1", "k0"))
    B, root = rsf.loads_rooted(text)
    assert B == A and root == ("k1", "k0")


def test_unknown_keys_rejected():
    obj = rsf.structure_to_obj(complete_graph(2))
    obj["comment"] = "hi"
    with pytest.raises(FormatError):
        rsf.obj_to_structure(obj)


def test_missing_key_rejected():
    obj = rsf.structure_to_obj(complete_graph(2))
    del obj["vertices"]
    with pytest.raises(FormatError):
        rsf.obj_to_structure(obj)


def test_bad_json_reports_position():
    with pytest.raises(FormatError) as err:
        rsf.loads("{\n  broken")
    assert "line" in str(err.value)


def test_undeclared_relation_rejected():
    obj = rsf.structure_to_obj(complete_graph(2))
    obj["relations"]["F"] = []
    with pytest.raises(FormatError):
        rsf.obj_to_structure(obj)


@pytest.mark.parametrize("arity", [True, False, 1.0, "1"])
def test_non_integer_arity_rejected(arity):
    obj = rsf.structure_to_obj(Structure(language(("U", 1)), ["a"], {"U": [("a",)]}))
    obj["language"][0]["arity"] = arity
    with pytest.raises(FormatError):
        rsf.obj_to_structure(obj)


def test_duplicate_root_rejected():
    obj = rsf.structure_to_obj(complete_graph(2), root=("k0", "k0"))
    with pytest.raises(FormatError):
        rsf.obj_to_structure(obj)


@pytest.mark.parametrize(
    "text,value",
    [("1", Fraction(1)), ("3/2", Fraction(3, 2)), ("10/4", Fraction(5, 2))],
)
def test_parse_rational(text, value):
    assert rsf.parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "x", "1/0", "1.5"])
def test_bad_rationals(text):
    with pytest.raises(FormatError):
        rsf.parse_rational(text)


def test_distance_set_round_trip():
    S = DistanceSet([1, Fraction(3, 2), 4])
    text = rsf.dumps_distance_set(S)
    assert rsf.loads_distance_set(text) == S


def test_distance_set_shape_checked():
    with pytest.raises(FormatError):
        rsf.loads_distance_set('{"values": []}')


def test_closure_description_round_trip():
    root = Structure(language(("U", 2), ("S", 1)), ["1"], {})
    U = closure_description(("U", root))
    text = rsf.dumps_closure_description(U)
    U2 = rsf.loads_closure_description(text)
    assert U2 == U


@pytest.mark.parametrize("relation", [["E"], 7, None])
def test_closure_relation_must_be_a_string(relation):
    root = Structure(language(("U", 2), ("S", 1)), ["1"], {})
    arr = json.loads(rsf.dumps_closure_description(closure_description(("U", root))))
    arr[0]["relation"] = relation
    with pytest.raises(FormatError, match="closure relation must be a string"):
        rsf.loads_closure_description(json.dumps(arr))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True, min_size=0, max_size=4),
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["a", "b", "c", "d"])),
        max_size=8,
    ),
)
def test_structure_serialisation_is_total(verts, pairs):
    usable = [(u, v) for u, v in pairs if u in verts and v in verts]
    A = Structure(GRAPH, verts, {"E": usable})
    assert rsf.loads(rsf.dumps(A)) == A
