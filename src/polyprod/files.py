"""On-disk formats: complex files, characteristic matrices, pair specs.

Complexes come either as directive text (`m 4`, then `face 1 2` lines,
`#` comments) or as JSON {"m": int, "maximal_faces": [[...], ...]}.  The two
are distinguished by sniffing for a leading '{'.  Characteristic matrices
come as JSON {"n": int, "rows": [[...], ...]} or as a whitespace matrix.
Pair specifications are strings: disk-sphere:N, cone:FILE:V, based:FILE:V.
"""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import SimplicialComplex
from .errors import InputError
from .pairs import PairModel, pair_cone, pair_disk_sphere, pair_space_basepoint
from .toric import CharacteristicMatrix


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _load_json_object(text: str, source: str, keys: set[str]) -> dict:
    """Parse text as one JSON object whose keys are distinct and all in keys."""
    try:
        data = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object")
    unknown = set(data) - keys
    if unknown:
        raise InputError(f"{source}: unknown keys {sorted(unknown)}")
    return data


def _is_int(value) -> bool:
    """A JSON integer; true and false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _add_face(faces: dict[tuple[int, ...], None], verts: tuple[int, ...],
              m: int, where: str) -> None:
    """Add a sorted face to faces, an ordered set, refusing a repeated
    vertex, a face given twice and a vertex outside 1..m."""
    if len(set(verts)) != len(verts):
        raise InputError(f"{where}: repeated vertex in face {verts}")
    if verts in faces:
        raise InputError(f"{where}: duplicate face {verts}")
    for v in verts:
        if not 1 <= v <= m:
            raise InputError(f"{where}: vertex {v} outside 1..{m}")
    faces[verts] = None


def _read(path, what: str, parse_json, parse_text):
    """Read a file and parse it as JSON if it starts with '{', else as text."""
    source = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {source}: {exc}") from None
    parse = parse_json if text.lstrip().startswith("{") else parse_text
    return parse(text, source)


def parse_complex_text(text: str, source: str = "<string>") -> SimplicialComplex:
    m: int | None = None
    faces: dict[tuple[int, ...], None] = {}
    for lineno, line in _meaningful_lines(text):
        tokens = line.split()
        directive, rest = tokens[0], tokens[1:]
        where = f"{source}:{lineno}"
        if directive == "m":
            if m is not None:
                raise InputError(f"{where}: duplicate m directive")
            # isdecimal, not isdigit: int() refuses digits like '²'; it also
            # refuses a token longer than its digit limit (4,300 by default)
            try:
                m = int(rest[0]) if len(rest) == 1 and rest[0].isdecimal() else 0
            except ValueError:
                m = 0
            if m < 1:
                raise InputError(f"{where}: m needs one positive integer")
        elif directive == "face":
            if m is None:
                raise InputError(f"{where}: face before the m directive")
            try:
                verts = tuple(sorted(int(tok) for tok in rest))
            except ValueError:
                raise InputError(f"{where}: face vertices must be integers") from None
            if not verts:
                raise InputError(f"{where}: face needs at least one vertex")
            _add_face(faces, verts, m, where)
        else:
            raise InputError(f"{where}: unknown directive {directive!r}")
    if m is None:
        raise InputError(f"{source}: missing m directive")
    return SimplicialComplex.from_maximal_faces(m, faces)


def parse_complex_json(text: str, source: str = "<string>") -> SimplicialComplex:
    data = _load_json_object(text, source, {"m", "maximal_faces"})
    m = data.get("m")
    raw_faces = data.get("maximal_faces")
    if not _is_int(m) or m < 1:
        raise InputError(f"{source}: \"m\" must be a positive integer")
    if not isinstance(raw_faces, list):
        raise InputError(f"{source}: \"maximal_faces\" must be a list of vertex lists")
    faces: dict[tuple[int, ...], None] = {}
    for entry in raw_faces:
        if (not isinstance(entry, list) or not entry
                or not all(_is_int(v) for v in entry)):
            raise InputError(f"{source}: each face must be a nonempty integer list")
        _add_face(faces, tuple(sorted(entry)), m, source)
    return SimplicialComplex.from_maximal_faces(m, faces)


def load_complex(path) -> SimplicialComplex:
    return _read(path, "complex", parse_complex_json, parse_complex_text)


def parse_characteristic_text(text: str, source: str = "<string>") -> CharacteristicMatrix:
    rows = []
    for lineno, line in _meaningful_lines(text):
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InputError(f"{source}:{lineno}: matrix entries must be integers") from None
    if not rows:
        raise InputError(f"{source}: empty matrix")
    return CharacteristicMatrix.from_rows(rows)


def parse_characteristic_json(text: str, source: str = "<string>") -> CharacteristicMatrix:
    data = _load_json_object(text, source, {"n", "rows"})
    n = data.get("n")
    rows = data.get("rows")
    if not _is_int(n) or n < 1:
        raise InputError(f"{source}: \"n\" must be a positive integer")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and all(_is_int(x) for x in r)
                       for r in rows)):
        raise InputError(f"{source}: \"rows\" must be a list of integer lists")
    if any(len(r) != n for r in rows):
        raise InputError(f"{source}: every row must have n = {n} entries")
    return CharacteristicMatrix.from_rows(rows)


def load_characteristic(path) -> CharacteristicMatrix:
    return _read(path, "matrix", parse_characteristic_json, parse_characteristic_text)


def parse_pair_spec(spec: str) -> PairModel:
    """disk-sphere:N, cone:FILE:V, or based:FILE:V."""
    kind, _, rest = spec.partition(":")
    if kind == "disk-sphere":
        try:
            n = int(rest)
        except ValueError:
            raise InputError(f"bad pair spec {spec!r}: expected disk-sphere:N") from None
        return pair_disk_sphere(n)
    if kind in ("cone", "based"):
        path, sep, vertex_part = rest.rpartition(":")
        if not sep or not path:
            raise InputError(f"bad pair spec {spec!r}: expected {kind}:FILE:V")
        try:
            vertex = int(vertex_part)
        except ValueError:
            raise InputError(f"bad pair spec {spec!r}: vertex must be an integer") from None
        k = load_complex(path)
        if kind == "cone":
            return pair_cone(k, vertex)
        return pair_space_basepoint(k, vertex)
    raise InputError(
        f"bad pair spec {spec!r}: kinds are disk-sphere:N, cone:FILE:V, based:FILE:V")
