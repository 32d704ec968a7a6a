"""File formats and deterministic report serialization.

Polyhedra travel as JSON objects ``{"vertices": [[x, y, z], ...],
"faces": [[i, j, k, ...], ...]}`` with 0-based integer indices and faces
counterclockwise viewed from outside.  Presentations use a line-based text
format: ``gens n``, one ``rel`` line per relator with signed 1-based
indices, and optional ``loop`` lines marking trace loops.  Representations
travel as ``{"matrices": [[[re, im], ...], ...]}`` with row-major 2x2
entries.

All floats are serialized with 17 significant digits, and integral ones
with a decimal point, so emit -> parse -> emit is a fixed point and a JSON
reader gets floats back; dictionaries keep insertion order, giving
byte-identical reports for identical inputs.
"""

import hashlib
import json

import numpy as np

from .errors import ParseError
from .polyhedron import CombinatorialType, EmbeddedPolyhedron
from .repvar import Presentation, Representation


def format_float(x):
    """17 significant digits; text with no point, exponent, ``nan`` or
    ``inf`` is an integral value and gets ``.0``."""
    text = format(float(x), ".17g")
    return text if any(c in text for c in ".ein") else text + ".0"


def to_json(obj, indent=0):
    """Deterministic JSON text with fixed float formatting and key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.integer, np.floating)) for v in seq)
        if flat and len(seq) <= 16:
            return "[" + ", ".join(to_json(v) for v in seq) + "]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return f'"{float(obj)}"'  # strict JSON has no Infinity literal
        return format_float(obj)
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


def load_polyhedron(path) -> EmbeddedPolyhedron:
    data = _load_json(path)
    if not (isinstance(data, dict) and "vertices" in data and isinstance(data.get("faces"), list)):
        raise ParseError(f"{path}: expected an object with 'vertices' and a 'faces' list")
    try:
        vertices = np.asarray(data["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed vertices: {exc}") from exc
    if vertices.shape[1:] != (3,) and vertices.shape != (0,):
        raise ParseError(f"{path}: vertices must be a list of [x, y, z] rows")
    if not np.all(np.isfinite(vertices)):
        raise ParseError(f"{path}: vertex coordinates must be finite")
    for k, face in enumerate(data["faces"]):
        # bool subclasses int, so index types are compared exactly
        if not (isinstance(face, list) and all(type(i) is int for i in face)):
            raise ParseError(f"{path}: face {k} is not a list of integer indices: "
                             f"{json.dumps(face)}")
    comb = CombinatorialType(len(vertices), data["faces"])
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
    try:
        angles = np.asarray(data, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed angle list: {exc}") from exc
    if not np.all(np.isfinite(angles)):
        raise ParseError(f"{path}: angles must be finite")
    if edge_count is not None and angles.size != edge_count:
        raise ParseError(f"{path}: expected {edge_count} angles, found {angles.size}")
    return angles


def dump_angles(angles) -> str:
    return to_json({"angles": [float(a) for a in angles]}) + "\n"


def load_presentation(path):
    """Parse the presentation text format; returns (Presentation, loops).

    A ``gens`` count below 1, an empty relator, or a letter 0 or beyond
    ``gens`` in a ``rel`` or ``loop`` line raises ``ParseError`` at its line.
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
            if parts[0] == "gens" and len(parts) == 2:
                gens = int(parts[1])
                if gens < 1:
                    raise ValueError(f"gens must be at least 1, got {gens}")
            elif parts[0] in ("rel", "loop"):
                words.append((lineno, parts[0], tuple(int(p) for p in parts[1:])))
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
    mats = []
    try:
        for raw in data["matrices"]:
            arr = np.asarray(raw, dtype=float).reshape(2, 2, 2)
            if not np.all(np.isfinite(arr)):
                raise ParseError(f"{path}: matrix entries must be finite")
            mats.append(arr[..., 0] + 1j * arr[..., 1])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed matrix entries: {exc}") from exc
    return Representation(mats)


def dump_matrices(rep: Representation) -> str:
    mats = [
        [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)] for i in range(2)]
        for m in rep.images
    ]
    return to_json({"matrices": mats}) + "\n"
