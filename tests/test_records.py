"""The frozen records against ``dataclasses`` as the oracle.

Each record class is paired with a twin made by
``dataclasses.make_dataclass(name, fields, frozen=True)`` over the same
fields and defaults; the two must agree on equality, hash and repr for the
same field values, including values that are equal but not identical, and
fail alike on a bad construction or an assignment.  The import guard checks
that importing the CLI and the benchmark's workloads loads neither
``dataclasses`` nor the modules it pulls in.
"""

import dataclasses
import os
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from ramseyforge import _record, closures, completion, metric, pieces, ramsey, structures
from ramseyforge.build import complete_graph
from ramseyforge.errors import MorphismError, StructureError

ROOT = Path(__file__).resolve().parents[1]
MODULES = (structures, closures, completion, metric, pieces, ramsey)
RECORDS = [
    cls
    for mod in MODULES
    for cls in vars(mod).values()
    if isinstance(cls, type) and cls.__module__ == mod.__name__ and cls.__dict__.get("__setattr__") is _record._setattr
]


def generated(cls, attr):
    return getattr(cls, attr).__module__ == _record.__name__


def field_names(cls):
    return tuple(cls.__dict__["__annotations__"])


def twin_of(cls):
    fields = []
    for name in field_names(cls):
        default = cls.__dict__.get(name, dataclasses.MISSING)
        if isinstance(default, types.MemberDescriptorType):  # a slot, not a default
            default = dataclasses.MISSING
        fields.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def bare(cls, values):
    """An instance with the given field values, past any ``__init__`` or
    ``__post_init__`` check."""
    obj = object.__new__(cls)
    for name, value in zip(field_names(cls), values):
        object.__setattr__(obj, name, value)
    return obj


def sample_values():
    """Field values of many kinds; two calls give values that are equal but,
    apart from small ints, interned strings, None and booleans, not
    identical.  NaN is never equal to a NaN from another call."""
    return [
        Fraction(3, 4),
        1,
        True,
        float("1"),
        "k0",
        None,
        tuple(["a", tuple(["b", 1])]),
        frozenset(["a", "b"]),
        complete_graph(2),
        float("nan"),
        [1, 2],
    ]


def sample_rows(k):
    rows = []
    for pool in (sample_values(), sample_values()):
        shared_nan = pool[9]
        rows += [[pool[(i + j) % len(pool)] for j in range(k)] for i in range(len(pool))]
        rows.append([shared_nan] * k)
    return rows


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_every_result_type_is_a_record():
    assert len(RECORDS) == 35
    assert all("__dataclass_fields__" not in vars(cls) for cls in RECORDS)


def test_own_dunders_are_kept():
    assert metric.DistanceSet.__init__.__module__ == metric.__name__
    assert pieces.LiftedStructure.__eq__.__module__ == pieces.__name__
    assert pieces.LiftedStructure.__hash__.__module__ == pieces.__name__
    assert structures.Morphism.__slots__ == ("source", "target", "map", "kind")
    K1 = complete_graph(1)
    assert not hasattr(structures.Morphism(K1, K1, (("k0", "k0"),), "embedding"), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_records_agree_with_dataclass_twins(cls):
    twin = twin_of(cls)
    assert cls.__match_args__ == twin.__match_args__ == field_names(cls)
    rows = sample_rows(len(field_names(cls)))
    records = [bare(cls, row) for row in rows]
    twins = [twin(*row) for row in rows]
    compare = generated(cls, "__eq__")
    for a, ta in zip(records, twins):
        assert repr(a) == repr(ta)
        if not compare:
            continue
        assert hash_or_error(a) == hash_or_error(ta)
        for b, tb in zip(records, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
        assert (a == rows[0]) is (ta == rows[0]) is False
    # the first rows of the two pools start with equal Fractions that are
    # not identical
    other = len(rows) // 2
    assert rows[0] == rows[other] and rows[0][0] is not rows[other][0]
    if compare:
        assert records[0] == records[other]


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if generated(c, "__init__") and not hasattr(c, "__post_init__")], ids=lambda c: c.__qualname__
)
def test_constructor_agrees_with_dataclass_twin(cls):
    twin = twin_of(cls)
    names = field_names(cls)
    values = sample_values()[: len(names)]
    assert repr(cls(*values)) == repr(twin(*values))
    kwargs = dict(zip(names, values))
    assert repr(cls(**kwargs)) == repr(twin(**kwargs))
    required = [f for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    assert repr(cls(*values[: len(required)])) == repr(twin(*values[: len(required)]))
    assert cls(*values) == cls(**kwargs)


@pytest.mark.parametrize("cls", [c for c in RECORDS if generated(c, "__init__")], ids=lambda c: c.__qualname__)
def test_bad_construction_raises_type_error(cls):
    twin = twin_of(cls)
    names = field_names(cls)
    values = sample_values()[: len(names)]
    for args, kwargs in (
        ((), {}),  # missing
        (values + [None], {}),  # extra positional
        (values, {names[0]: values[0]}),  # duplicate
        (values, {"no_such_field": 1}),  # unknown keyword
    ):
        with pytest.raises(TypeError) as expected:
            twin(*args, **kwargs)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_records_are_frozen(cls):
    obj = bare(cls, sample_values()[: len(field_names(cls))])
    first = field_names(cls)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, first, "changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.no_such_field = 1
    assert getattr(obj, first) == sample_values()[0]


def test_constructors_build_real_records_like_the_twins():
    K = complete_graph(2)
    lang = structures.Language((("E", 2),))
    assert lang == structures.Language(symbols=(("E", 2),), order_symbol=None)
    assert repr(lang) == repr(twin_of(structures.Language)((("E", 2),)))
    m = structures.Morphism(K, K, (("k0", "k1"), ("k1", "k0")), "embedding")
    twin = twin_of(structures.Morphism)(K, K, (("k0", "k1"), ("k1", "k0")), "embedding")
    assert repr(m) == repr(twin) and hash(m) == hash(twin)
    assert structures._morphism(K, K, m.map, m.kind) == m


def test_post_init_still_runs():
    with pytest.raises(StructureError):
        structures.Language((("E", 2), ("E", 1)))
    with pytest.raises(StructureError):
        structures.Language(symbols=(("E", 2), ("E", 1)))
    with pytest.raises(MorphismError):
        structures.Morphism(complete_graph(1), complete_graph(1), (), "bogus")
    with pytest.raises(MorphismError):
        structures.Morphism(complete_graph(1), complete_graph(1), (), kind="bogus")


def test_import_loads_no_dataclasses():
    # A fresh interpreter: this one has the oracle modules loaded already.
    code = (
        "import sys\n"
        "sys.path[:0] = ['src', 'perfbench']\n"
        "import ramseyforge.cli, workloads\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.split() == []


def test_no_dataclass_left_in_the_library():
    for path in (ROOT / "src" / "ramseyforge").glob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert not [line for line in lines if line.startswith(("@dataclass", "import dataclasses", "from dataclasses"))], path.name
