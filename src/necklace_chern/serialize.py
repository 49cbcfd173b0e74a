"""JSON input and output for complexes, bundle maps, and decorations.

All three schemas carry a version field "v": 1, the integer, and loaders
reject every key their writer does not write. Simplex ids used in
decoration files are indices into the canonical simplex list of the base
complex, which is exactly the order stored in the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Tuple, Union

from .complexes import LocallyOrderedComplex
from .decorations import Decoration
from .errors import InvalidInputError
from .words_necklaces import Word

if TYPE_CHECKING:
    from .bundles import BundleMap

__all__ = [
    "SCHEMA_VERSION",
    "complex_to_data",
    "complex_from_data",
    "bundle_to_data",
    "bundle_from_data",
    "decoration_to_data",
    "decoration_from_data",
    "save_json",
    "load_complex",
    "load_bundle",
    "load_decoration",
    "save_complex",
    "save_bundle",
    "save_decoration",
    "packaged_data",
    "packaged_bundle_names",
    "hopf_bundle",
    "trivial_bundle",
    "boundary_tetrahedron",
]

SCHEMA_VERSION = 1


def _require_fields(data, what: str, keys: Tuple[str, ...], versioned: bool) -> None:
    """Accept only a JSON object whose keys are among those its writer
    writes; a versioned object must also carry "v" as the integer 1."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} must contain a JSON object")
    # the exact type: True and 1.0 compare equal to 1
    if versioned and (type(data.get("v")) is not int or data["v"] != SCHEMA_VERSION):
        raise InvalidInputError(
            f"{what} must declare schema version \"v\": {SCHEMA_VERSION}"
        )
    for key in data:
        if key not in keys and not (versioned and key == "v"):
            raise InvalidInputError(f"{what} has an unknown key {key!r}")


def _int_list(raw, what: str) -> list:
    if not isinstance(raw, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in raw
    ):
        raise InvalidInputError(f"{what} must be a list of integers")
    return list(raw)


def complex_to_data(c: LocallyOrderedComplex, versioned: bool = True) -> dict:
    data = {
        "vertices": c.vertex_count,
        "simplices": [list(s) for s in c.simplices],
    }
    if versioned:
        data["v"] = SCHEMA_VERSION
    return data


def complex_from_data(data: dict, versioned: bool = True) -> LocallyOrderedComplex:
    what = "complex file" if versioned else "complex data"
    _require_fields(data, what, ("vertices", "simplices"), versioned)
    vertices = data.get("vertices")
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise InvalidInputError("\"vertices\" must be an integer")
    raw = data.get("simplices")
    if not isinstance(raw, list):
        raise InvalidInputError("\"simplices\" must be a list")
    simplices = [_int_list(s, "each simplex") for s in raw]
    return LocallyOrderedComplex(vertices, simplices)


def bundle_to_data(b: BundleMap) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "total": complex_to_data(b.total, versioned=False),
        "base": complex_to_data(b.base, versioned=False),
        "vertex_map": list(b.vertex_map),
        "fiber_orientation": {
            str(v): list(cycle) for v, cycle in enumerate(b.fiber_orientation)
        },
    }


def bundle_from_data(data: dict) -> BundleMap:
    # loaded here only: reading a decoration or complex never needs bundles
    from .bundles import BundleMap

    keys = ("total", "base", "vertex_map", "fiber_orientation")
    _require_fields(data, "bundle file", keys, versioned=True)
    total = complex_from_data(data.get("total"), versioned=False)
    base = complex_from_data(data.get("base"), versioned=False)
    vertex_map = tuple(_int_list(data.get("vertex_map"), "\"vertex_map\""))
    raw_orient = data.get("fiber_orientation")
    if not isinstance(raw_orient, dict):
        raise InvalidInputError(
            "\"fiber_orientation\" must map base vertices to vertex lists"
        )
    # the only accepted keys, exactly as bundle_to_data writes them
    vertex_keys = {str(v): v for v in range(base.vertex_count)}
    cycles = {}
    for key, cycle in raw_orient.items():
        v = vertex_keys.get(key)
        if v is None:
            raise InvalidInputError(
                f"fiber_orientation key {key!r} is not a base vertex"
            )
        cycles[v] = tuple(_int_list(cycle, f"fiber over vertex {v}"))
    if sorted(cycles) != list(range(base.vertex_count)):
        raise InvalidInputError(
            "fiber_orientation must list every base vertex exactly once"
        )
    orientation = tuple(cycles[v] for v in range(base.vertex_count))
    return BundleMap(total, base, vertex_map, orientation)


def decoration_to_data(d: Decoration) -> dict:
    words = {
        str(i): list(d.words[i].letters) for i in range(len(d.base.simplices))
    }
    shifts = {}
    for i, s in enumerate(d.base.simplices):
        if len(s) < 2:
            continue
        for j in range(len(s)):
            shifts[f"{i}/{j}"] = d.shifts[i][j]
    return {
        "v": SCHEMA_VERSION,
        "base": complex_to_data(d.base, versioned=False),
        "words": words,
        "shifts": shifts,
    }


def decoration_from_data(data: dict) -> Decoration:
    keys = ("base", "words", "shifts")
    _require_fields(data, "decoration file", keys, versioned=True)
    base = complex_from_data(data.get("base"), versioned=False)
    raw_words = data.get("words")
    raw_shifts = data.get("shifts")
    if not isinstance(raw_words, dict) or not isinstance(raw_shifts, dict):
        raise InvalidInputError(
            "decoration file needs \"words\" and \"shifts\" objects"
        )
    # the only accepted keys, exactly as decoration_to_data writes them
    word_ids = {str(i): i for i in range(len(base.simplices))}
    shift_slots = {
        f"{i}/{j}": (i, j)
        for i, s in enumerate(base.simplices)
        if len(s) > 1
        for j in range(len(s))
    }
    words: Dict[int, Word] = {}
    for key, letters in raw_words.items():
        i = word_ids.get(key)
        if i is None:
            raise InvalidInputError(f"word key {key!r} is not a simplex id")
        words[i] = Word(
            tuple(_int_list(letters, f"word for simplex {i}")),
            len(base.simplices[i]),
        )
    shifts: Dict[tuple, int] = {}
    for key, t in raw_shifts.items():
        slot = shift_slots.get(key)
        if slot is None:
            raise InvalidInputError(
                f"shift key {key!r} is not \"<id>/<face>\" for a face of "
                "a simplex of the base"
            )
        if isinstance(t, bool) or not isinstance(t, int):
            raise InvalidInputError(f"shift {key!r} must be an integer")
        shifts[slot] = t
    return Decoration.from_maps(base, words, shifts)


def save_json(data: dict, path: Union[str, Path], what: str = "JSON") -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise InvalidInputError(f"cannot write {what} file {path}: {err}")


def _load(path: Union[str, Path], what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise InvalidInputError(f"cannot read {what} file {path}: {err}")
    try:
        return json.loads(text)
    # nesting deeper than the decoder's recursion limit is no valid file either
    except (json.JSONDecodeError, RecursionError) as err:
        raise InvalidInputError(f"{what} file {path} is not valid JSON: {err}")


def load_complex(path: Union[str, Path]) -> LocallyOrderedComplex:
    return complex_from_data(_load(path, "complex"))


def load_bundle(path: Union[str, Path]) -> BundleMap:
    return bundle_from_data(_load(path, "bundle"))


def load_decoration(path: Union[str, Path]) -> Decoration:
    return decoration_from_data(_load(path, "decoration"))


def packaged_data(name: str) -> dict:
    """Parse one of the JSON files shipped with the package."""
    from importlib import resources

    ref = resources.files("necklace_chern").joinpath("data", name)
    try:
        text = ref.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise InvalidInputError(f"no packaged data file named {name!r}")
    return json.loads(text)


def packaged_bundle_names() -> tuple:
    """The bundle files of the shipped example corpus."""
    return ("hopf_bundle.json", "trivial_bundle.json")


def hopf_bundle() -> BundleMap:
    """The 12-vertex triangulated Hopf bundle over the tetrahedron
    boundary; its Chern number has absolute value one."""
    return bundle_from_data(packaged_data("hopf_bundle.json"))


def trivial_bundle() -> BundleMap:
    """The product circle bundle over the tetrahedron boundary with
    three-vertex fibers; its Chern number is zero."""
    return bundle_from_data(packaged_data("trivial_bundle.json"))


def boundary_tetrahedron() -> LocallyOrderedComplex:
    """The four-triangle sphere used throughout the examples."""
    return complex_from_data(packaged_data("boundary_tetrahedron.json"))


def save_complex(c: LocallyOrderedComplex, path: Union[str, Path]) -> None:
    save_json(complex_to_data(c), path, "complex")


def save_bundle(b: BundleMap, path: Union[str, Path]) -> None:
    save_json(bundle_to_data(b), path, "bundle")


def save_decoration(d: Decoration, path: Union[str, Path]) -> None:
    save_json(decoration_to_data(d), path, "decoration")
