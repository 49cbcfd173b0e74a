"""Tests for the JSON schemas and the shipped example corpus."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_chern.bundles import (
    cycle_bundle,
    extract_decoration,
    product_bundle,
    validate_bundle,
)
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.errors import InvalidInputError
from necklace_chern.serialize import (
    boundary_tetrahedron,
    bundle_from_data,
    bundle_to_data,
    complex_from_data,
    complex_to_data,
    decoration_from_data,
    decoration_to_data,
    hopf_bundle,
    load_bundle,
    load_complex,
    load_decoration,
    packaged_bundle_names,
    packaged_data,
    save_bundle,
    save_complex,
    save_decoration,
    trivial_bundle,
)

from conftest import json_values, mutated_json


def tetra_boundary():
    return LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


class TestRoundTrips:
    def test_complex(self, tmp_path):
        c = tetra_boundary()
        path = tmp_path / "c.json"
        save_complex(c, path)
        assert load_complex(path) == c

    def test_bundle(self, tmp_path):
        b = product_bundle(tetra_boundary(), 3)
        path = tmp_path / "b.json"
        save_bundle(b, path)
        assert load_bundle(path) == b

    def test_decoration(self, tmp_path):
        d = extract_decoration(product_bundle(tetra_boundary(), 3))
        path = tmp_path / "d.json"
        save_decoration(d, path)
        assert load_decoration(path) == d

    def test_save_is_deterministic(self, tmp_path):
        b = product_bundle(tetra_boundary(), 3)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        save_bundle(b, one)
        save_bundle(b, two)
        assert one.read_bytes() == two.read_bytes()


class TestSchemaValidation:
    def test_version_field_required(self):
        data = complex_to_data(tetra_boundary())
        del data["v"]
        with pytest.raises(InvalidInputError):
            complex_from_data(data)

    def test_wrong_version_rejected(self):
        data = complex_to_data(tetra_boundary())
        data["v"] = 2
        with pytest.raises(InvalidInputError):
            complex_from_data(data)

    def test_non_object_rejected(self):
        with pytest.raises(InvalidInputError):
            complex_from_data([1, 2, 3])

    def test_bad_vertices_rejected(self):
        with pytest.raises(InvalidInputError):
            complex_from_data({"v": 1, "vertices": "4", "simplices": []})

    def test_bool_entries_rejected(self):
        with pytest.raises(InvalidInputError):
            complex_from_data(
                {"v": 1, "vertices": 2, "simplices": [[0], [True]]}
            )

    def test_bundle_orientation_must_cover_base(self):
        data = bundle_to_data(product_bundle(tetra_boundary(), 3))
        del data["fiber_orientation"]["0"]
        with pytest.raises(InvalidInputError):
            bundle_from_data(data)

    def test_bundle_orientation_key_must_be_integer(self):
        data = bundle_to_data(product_bundle(tetra_boundary(), 3))
        data["fiber_orientation"]["x"] = data["fiber_orientation"].pop("0")
        with pytest.raises(InvalidInputError):
            bundle_from_data(data)

    # other spellings of a base vertex than str(v), and vertices it lacks
    @pytest.mark.parametrize("key", ["01", " 2", "2 ", "+1", "1_0", "4", "-1", 1])
    def test_bundle_orientation_key_must_be_canonical(self, key):
        data = packaged_data("trivial_bundle.json")
        data["fiber_orientation"][key] = data["fiber_orientation"]["1"]
        with pytest.raises(InvalidInputError, match="key"):
            bundle_from_data(data)

    def test_decoration_bad_shift_key(self):
        d = extract_decoration(product_bundle(tetra_boundary(), 3))
        data = decoration_to_data(d)
        data["shifts"]["nonsense"] = 0
        with pytest.raises(InvalidInputError):
            decoration_from_data(data)

    def test_decoration_missing_word(self):
        d = extract_decoration(product_bundle(tetra_boundary(), 3))
        data = decoration_to_data(d)
        del data["words"]["0"]
        with pytest.raises(InvalidInputError):
            decoration_from_data(data)

    def test_decoration_unknown_word_key(self):
        d = extract_decoration(product_bundle(tetra_boundary(), 3))
        data = decoration_to_data(d)
        data["words"]["999"] = [0]
        with pytest.raises(InvalidInputError):
            decoration_from_data(data)

    # tetrahedron boundary ids: vertices 0-3, edges 4-9, triangles 10-13
    @pytest.mark.parametrize(
        "field, key",
        [
            ("shifts", "99/0"),  # no such simplex
            ("shifts", "0/5"),  # vertices have no faces
            ("shifts", "0/0"),
            ("shifts", "4/2"),  # an edge has faces 0 and 1
            ("shifts", "10/3"),  # a triangle has faces 0, 1 and 2
            ("shifts", "4/0/7"),  # trailing part
            ("shifts", "04/0"),  # not the canonical spelling
            ("shifts", "4/ 0"),
            ("shifts", "-1/0"),
            ("words", "14"),  # no such simplex
            ("words", "-1"),
            ("words", "04"),
            ("words", "4.0"),
            ("words", 4),  # not a string
        ],
    )
    def test_decoration_unknown_key_rejected(self, field, key):
        d = extract_decoration(product_bundle(tetra_boundary(), 3))
        data = decoration_to_data(d)
        data[field][key] = 0 if field == "shifts" else [0, 1]
        with pytest.raises(InvalidInputError, match="key"):
            decoration_from_data(data)

    # "v" must be the integer 1, and every key must be one the writer writes,
    # at the top level and in the nested "total" and "base" objects
    @pytest.mark.parametrize(
        "kind, nested, key, value",
        [
            ("complex", None, "v", True),
            ("complex", None, "v", 1.0),
            ("complex", None, "v", "1"),
            ("complex", None, "extra", 0),
            ("bundle", None, "v", True),
            ("bundle", None, "bogus", 0),
            ("bundle", "total", "v", 7),
            ("bundle", "total", "extra", []),
            ("bundle", "base", "v", 1),
            ("decoration", None, "v", 1.0),
            ("decoration", None, "extra", {}),
            ("decoration", "base", "v", 1),
        ],
    )
    def test_only_written_keys_load(self, kind, nested, key, value):
        b = product_bundle(tetra_boundary(), 3)
        to_data, from_data = {
            "complex": (lambda: complex_to_data(b.base), complex_from_data),
            "bundle": (lambda: bundle_to_data(b), bundle_from_data),
            "decoration": (
                lambda: decoration_to_data(extract_decoration(b)),
                decoration_from_data,
            ),
        }[kind]
        data = to_data()
        from_data(data)
        target = data if nested is None else data[nested]
        target[key] = value
        with pytest.raises(InvalidInputError):
            from_data(data)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_complex(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_bundle(tmp_path / "missing.json")


class TestPackagedCorpus:
    def test_names(self):
        assert packaged_bundle_names() == (
            "hopf_bundle.json",
            "trivial_bundle.json",
        )

    def test_all_bundles_validate(self):
        for name in packaged_bundle_names():
            b = bundle_from_data(packaged_data(name))
            assert validate_bundle(b).ok, name

    def test_hopf_shape(self):
        b = hopf_bundle()
        assert b.total.vertex_count == 12
        assert len(b.total.simplices_of_dimension(3)) == 36
        assert b.base == boundary_tetrahedron()

    def test_trivial_is_product(self):
        assert trivial_bundle() == product_bundle(boundary_tetrahedron(), 3)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            packaged_data("no_such_file.json")

    def test_data_files_carry_version(self):
        for name in packaged_bundle_names() + ("boundary_tetrahedron.json",):
            assert packaged_data(name)["v"] == 1


# =========================================================================
# The loaders under fuzzing: load, or raise InvalidInputError, nothing else
# =========================================================================

_BUNDLES = [bundle_to_data(trivial_bundle()), bundle_to_data(cycle_bundle(4))]
_DECORATIONS = [
    decoration_to_data(extract_decoration(trivial_bundle())),
    decoration_to_data(extract_decoration(hopf_bundle())),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BUNDLES).flatmap(mutated_json) | json_values)
def test_bundle_loader_raises_only_input_errors(data):
    try:
        bundle_from_data(data)
    except InvalidInputError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_DECORATIONS).flatmap(mutated_json) | json_values)
def test_decoration_loader_raises_only_input_errors(data):
    try:
        decoration_from_data(data)
    except InvalidInputError:
        pass


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"[" * 100_000],
    ids=["not-utf8", "nested-past-the-recursion-limit"],
)
def test_unreadable_files_are_input_errors(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for load in (load_complex, load_bundle, load_decoration):
        with pytest.raises(InvalidInputError):
            load(path)
