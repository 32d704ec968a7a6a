"""File formats and deterministic report serialization.

Polyhedra travel as JSON objects ``{"vertices": [[x, y, z], ...],
"faces": [[i, j, k, ...], ...]}`` with 0-based integer indices and faces
counterclockwise viewed from outside; target angles as one flat list, bare
or as ``{"angles": [...]}``; representations as ``{"matrices": [...]}``, a
list of 2x2 matrices, each two rows of two ``[re, im]`` pairs.  Numbers
are strict: a coordinate, angle or matrix part is a JSON number (int or
float, not a boolean and not a string) and an index a JSON integer,
checked in one pass over the parsed lists, and anything else is a
``ParseError`` naming the first bad entry.  Presentations use a
line-based text format: ``gens n``, one ``rel`` line per relator with
signed 1-based indices, and optional ``loop`` lines marking trace loops;
every number there is an ASCII decimal integer.

All floats are serialized with 17 significant digits, and integral ones
with a decimal point, so emit -> parse -> emit is a fixed point and a JSON
reader gets floats back; dictionaries keep insertion order, giving
byte-identical reports for identical inputs.  ``to_json`` dispatches on
the exact type of each value, so the built-in floats, ints, strings,
dicts and lists of a report take one test each; numpy scalars, None and
subclasses follow the ``isinstance`` rules after them.
"""

import hashlib
import json
import re

import numpy as np

from .errors import InvalidCombinatorics, ParseError
from .polyhedron import CombinatorialType, EmbeddedPolyhedron
from .repvar import Presentation, Representation


def format_float(x):
    """17 significant digits; text with no point, exponent, ``nan`` or
    ``inf`` is an integral value and gets ``.0``."""
    text = format(float(x), ".17g")
    return text if "." in text or "e" in text or "n" in text else text + ".0"


def _float_text(x):
    text = format_float(x)
    return f'"{text}"' if "n" in text else text     # strict JSON has no nan or inf


_SCALARS = (bool, np.bool_, int, float, np.integer, np.floating)
_NUMBER_TYPES = {int, float}       # JSON numbers; bool subclasses int and is excluded
_INDEX_TYPES = {int}
_DECIMAL = re.compile(r"[+-]?[0-9]+")      # [0-9], not \d, which takes any Unicode digit
_DECIMAL_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def to_json(obj, indent=0):
    """Deterministic JSON text with fixed float formatting and key order.

    Containers open one line per entry, indented two spaces a level, except
    a list or tuple of at most 16 numbers, which stays on one line.
    """
    return _emit(obj, "  " * indent)


def _emit(obj, pad):
    kind = type(obj)
    if kind is float:
        return _float_text(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return json.dumps(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is dict or isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [f'{inner}"{k}": {_emit(v, inner)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if len(obj) <= 16 and all(isinstance(v, _SCALARS) for v in obj):
            return "[" + ", ".join([_emit(v, "") for v in obj]) + "]"
        inner = pad + "  "
        return "[\n" + ",\n".join([inner + _emit(v, inner) for v in obj]) + "\n" + pad + "]"
    # numpy scalars, None and everything else
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def sha256_of_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc


def _finite_array(rows, path, what):
    """The float array of type-checked JSON numbers ``rows``; an entry that
    is not finite raises ``ParseError`` "``what`` must be finite"."""
    try:
        arr = np.array(rows, dtype=float)
    except OverflowError:       # an integer beyond the float range
        raise ParseError(f"{path}: {what} must be finite") from None
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: {what} must be finite")
    return arr


def load_polyhedron(path) -> EmbeddedPolyhedron:
    data = _load_json(path)
    if not (isinstance(data, dict) and "vertices" in data and isinstance(data.get("faces"), list)):
        raise ParseError(f"{path}: expected an object with 'vertices' and a 'faces' list")
    rows = data["vertices"]
    if type(rows) is not list:
        raise ParseError(f"{path}: vertices must be a list of [x, y, z] rows of numbers")
    for k, row in enumerate(rows):
        if not (type(row) is list and len(row) == 3 and _NUMBER_TYPES.issuperset(map(type, row))):
            raise ParseError(f"{path}: vertices must be a list of [x, y, z] rows of numbers; "
                             f"vertex {k} is {json.dumps(row)}")
    vertices = _finite_array(rows, path, "vertex coordinates").reshape(-1, 3)
    for k, face in enumerate(data["faces"]):
        # bool subclasses int, so index types are compared exactly
        if not (isinstance(face, list) and _INDEX_TYPES.issuperset(map(type, face))):
            raise ParseError(f"{path}: face {k} is not a list of integer indices: "
                             f"{json.dumps(face)}")
    try:
        comb = CombinatorialType(len(vertices), data["faces"])
    except InvalidCombinatorics as exc:     # an index beyond a machine integer
        raise ParseError(f"{path}: {exc}") from None
    return EmbeddedPolyhedron(comb, vertices)


def polyhedron_to_dict(poly: EmbeddedPolyhedron):
    return {
        "vertices": [[float(c) for c in row] for row in poly.positions],
        "faces": [list(f) for f in poly.combinatorics.faces],
    }


def dump_polyhedron(poly: EmbeddedPolyhedron) -> str:
    return to_json(polyhedron_to_dict(poly)) + "\n"


def load_angles(path, edge_count=None):
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("angles")
    if type(data) is not list:
        raise ParseError(f"{path}: expected a list of angles, bare or under 'angles'")
    if not _NUMBER_TYPES.issuperset(map(type, data)):
        k = next(k for k, a in enumerate(data) if type(a) not in _NUMBER_TYPES)
        raise ParseError(f"{path}: angles must be a flat list of numbers; "
                         f"entry {k} is {json.dumps(data[k])}")
    angles = _finite_array(data, path, "angles")
    if edge_count is not None and angles.size != edge_count:
        raise ParseError(f"{path}: expected {edge_count} angles, found {angles.size}")
    return angles


def dump_angles(angles) -> str:
    return to_json({"angles": [float(a) for a in angles]}) + "\n"


def parse_int(text):
    """The integer of an ASCII decimal token ``[+-]?[0-9]+``; anything else,
    such as ``1_0`` or non-ASCII digits that ``int`` also reads, raises
    ``ValueError``."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_float(text):
    """``parse_int`` for a decimal literal such as ``-1e-4``, ``2.`` or ``.5``."""
    if not _DECIMAL_FLOAT.fullmatch(text):
        raise ValueError(f"invalid number {text!r}")
    return float(text)


def load_presentation(path):
    """Parse the presentation text format; returns (Presentation, loops).

    Every number is an ASCII decimal integer (``parse_int``).  Any other
    token, a second ``gens`` line, one without exactly one count or with a
    count below 1, an empty relator, or a letter 0 or beyond ``gens`` in a
    ``rel`` or ``loop`` line raises ``ParseError`` at its line.
    """
    gens = None
    words = []              # (line number, directive, letters)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "gens":
                if gens is not None or len(parts) != 2:
                    raise ValueError("a second 'gens' line" if gens is not None else
                                     f"'gens' takes one count, got {len(parts) - 1}")
                gens = parse_int(parts[1])
                if gens < 1:
                    raise ValueError(f"gens must be at least 1, got {gens}")
            elif parts[0] in ("rel", "loop"):
                words.append((lineno, parts[0], tuple(map(parse_int, parts[1:]))))
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from exc
    if gens is None:
        raise ParseError(f"{path}: missing 'gens' line")
    for lineno, kind, word in words:
        if kind == "rel" and not word:
            raise ParseError(f"{path}: empty relator", line=lineno)
        for letter in word:
            if letter == 0 or abs(letter) > gens:
                raise ParseError(f"{path}: {kind} letter {letter} outside 1..{gens}", line=lineno)
    relators = tuple(word for _, kind, word in words if kind == "rel")
    return Presentation(gens, relators), [word for _, kind, word in words if kind == "loop"]


def dump_presentation(pres: Presentation, loops=()) -> str:
    lines = [f"gens {pres.generator_count}"]
    for r in pres.relators:
        lines.append("rel " + " ".join(str(l) for l in r))
    for w in loops:
        lines.append("loop " + " ".join(str(l) for l in w))
    return "\n".join(lines) + "\n"


def load_matrices(path) -> Representation:
    data = _load_json(path)
    if not isinstance(data, dict) or "matrices" not in data:
        raise ParseError(f"{path}: expected an object with 'matrices'")
    mats = data["matrices"]
    shape = "matrices must be a list of 2x2 matrices of [re, im] pairs of numbers"
    if type(mats) is not list:
        raise ParseError(f"{path}: {shape}")
    for k, m in enumerate(mats):
        if not (type(m) is list and len(m) == 2
                and all(type(row) is list and len(row) == 2 for row in m)
                and all(type(z) is list and len(z) == 2 and _NUMBER_TYPES.issuperset(map(type, z))
                        for row in m for z in row)):
            raise ParseError(f"{path}: {shape}; matrix {k} is {json.dumps(m)}")
    arr = _finite_array(mats, path, "matrix entries").reshape(-1, 2, 2, 2)
    return Representation(arr[..., 0] + 1j * arr[..., 1])


def dump_matrices(rep: Representation) -> str:
    mats = [
        [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]
        for m in rep.images
    ]
    return to_json({"matrices": mats}) + "\n"
