"""RSF interchange format and the JSON sidecar formats.

RSF is UTF-8 JSON: {"language": [{"name","arity"}...], "order_symbol"?,
"vertices": [...], "relations": {symbol: [[v,...],...]}, "root"?: [...]}.
Files end with a newline; unknown keys are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import FormatError
from .structures import Language, Structure

_ALLOWED_KEYS = {"language", "order_symbol", "vertices", "relations", "root"}


def _fail(msg: str) -> None:
    raise FormatError(f"RSF: {msg}")


def structure_to_obj(A: Structure, root: Optional[tuple[str, ...]] = None) -> dict:
    obj: dict = {
        "language": [
            {"name": name, "arity": arity} for name, arity in A.language.symbols
        ],
        "vertices": list(A.vertices),
        "relations": {
            name: [list(t) for t in sorted(ts)]
            for name, ts in sorted(A.relations.items())
        },
    }
    if A.language.order_symbol is not None:
        obj["order_symbol"] = A.language.order_symbol
    if root is not None:
        obj["root"] = list(root)
    return obj


def obj_to_structure(obj) -> tuple[Structure, Optional[tuple[str, ...]]]:
    if not isinstance(obj, dict):
        _fail("top level must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        _fail(f"unknown keys {sorted(unknown)}")
    for key in ("language", "vertices", "relations"):
        if key not in obj:
            _fail(f"missing key {key!r}")
    if not isinstance(obj["language"], list):
        _fail("language must be an array")
    symbols = []
    for entry in obj["language"]:
        if not isinstance(entry, dict) or set(entry) != {"name", "arity"}:
            _fail("language entries must be {name, arity}")
        arity = entry["arity"]
        if not isinstance(entry["name"], str) or isinstance(arity, bool) or not isinstance(arity, int):
            _fail("language entry types")
        symbols.append((entry["name"], arity))
    order_symbol = obj.get("order_symbol")
    if order_symbol is not None and not isinstance(order_symbol, str):
        _fail("order_symbol must be a string")
    try:
        lang = Language(tuple(symbols), order_symbol)
    except Exception as exc:
        _fail(str(exc))
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        _fail("vertices must be an array of strings")
    relations = obj["relations"]
    if not isinstance(relations, dict):
        _fail("relations must be an object")
    rels = {}
    for name, tuples in relations.items():
        if not lang.has(name):
            _fail(f"relation {name!r} not in language")
        if not isinstance(tuples, list):
            _fail(f"relation {name!r} must map to an array")
        parsed = []
        for t in tuples:
            if not isinstance(t, list) or not all(isinstance(v, str) for v in t):
                _fail(f"tuple {t!r} must be an array of vertex strings")
            parsed.append(tuple(t))
        rels[name] = parsed
    try:
        A = Structure(lang, vertices, rels)
    except Exception as exc:
        _fail(str(exc))
    root = None
    if "root" in obj:
        r = obj["root"]
        if not isinstance(r, list) or not all(isinstance(v, str) for v in r):
            _fail("root must be an array of vertex strings")
        if len(set(r)) != len(r):
            _fail("root vertices must be distinct")
        for v in r:
            if v not in set(A.vertices):
                _fail(f"root vertex {v!r} not declared")
        root = tuple(r)
    return A, root


def dumps(A: Structure, root: Optional[tuple[str, ...]] = None) -> str:
    return json.dumps(structure_to_obj(A, root), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Structure:
    A, root = loads_rooted(text)
    if root is not None:
        _fail("unexpected root in plain structure file")
    return A


def loads_rooted(text: str) -> tuple[Structure, Optional[tuple[str, ...]]]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"RSF: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return obj_to_structure(obj)


def load(path: Union[str, Path]) -> Structure:
    return loads(Path(path).read_text(encoding="utf-8"))


def dump(A: Structure, path: Union[str, Path], root: Optional[tuple[str, ...]] = None) -> None:
    Path(path).write_text(dumps(A, root), encoding="utf-8")


# -- rationals and distance sets -------------------------------------------


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise FormatError(f"rational must be a string, got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def loads_distance_set(text: str):
    from .metric import DistanceSet

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"distance set: invalid JSON: {exc.msg}")
    if not isinstance(obj, dict) or set(obj) != {"distances"}:
        raise FormatError('distance set file must be {"distances": [...]}')
    if not isinstance(obj["distances"], list):
        raise FormatError("distances must be an array")
    return DistanceSet(parse_rational(s) for s in obj["distances"])


def dumps_distance_set(S) -> str:
    vals = [format_rational(q) for q in sorted(S.distances)]
    return json.dumps({"distances": vals}) + "\n"


# -- closure descriptions ----------------------------------------------------


def loads_closure_description(text: str):
    from .closures import ClosureDescription, ClosureEntry

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"closure description: invalid JSON: {exc.msg}")
    if not isinstance(obj, list):
        raise FormatError("closure description file must be a JSON array")
    entries = []
    for item in obj:
        if not isinstance(item, dict) or set(item) != {"relation", "root"}:
            raise FormatError('closure entries must be {"relation", "root"}')
        if not isinstance(item["relation"], str):
            raise FormatError(f"closure relation must be a string, got {item['relation']!r}")
        root, pinned = obj_to_structure(item["root"])
        if pinned is not None:
            raise FormatError("closure roots carry no explicit root tuple")
        entries.append(ClosureEntry(item["relation"], root))
    return ClosureDescription(tuple(entries))


def dumps_closure_description(U) -> str:
    arr = [
        {"relation": entry.symbol, "root": structure_to_obj(entry.root)}
        for entry in U.entries
    ]
    return json.dumps(arr, indent=2, sort_keys=True) + "\n"
