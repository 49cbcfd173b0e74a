"""Tests for decorations: validity checking and exhaustive enumeration."""

import hashlib
import itertools
import math
import sys

import pytest

from necklace_chern import decorations
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.decorations import (
    Decoration,
    elementary_decoration,
    enumerate_decorations,
    face_morphism,
    validate_decoration,
)
from necklace_chern.errors import InvalidInputError, ResourceBudgetError
from necklace_chern.serialize import save_decoration
from necklace_chern.words_necklaces import Word, boundary_word, word, words_of_content

from conftest import grid_torus
from corrupted_decorations import CLI_CASE, GOLDEN, RECORD, cases, corpus_lines


def triangle_complex():
    return LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])


def edge_complex():
    return LocallyOrderedComplex.from_maximal(2, [(0, 1)])


def point_complex():
    return LocallyOrderedComplex.from_maximal(1, [(0,)])


class TestDecorationStructure:
    def test_from_maps_simple_triangle(self):
        base = triangle_complex()
        words = {}
        shifts = {}
        for i, s in enumerate(base.simplices):
            words[i] = Word(tuple(range(len(s))), len(s))
            for j in range(len(s) if len(s) > 1 else 0):
                shifts[(i, j)] = 0
        d = Decoration.from_maps(base, words, shifts)
        assert d.word_for((0, 1, 2)) == word((0, 1, 2))
        assert d.shift_for((0, 1), 0) == 0

    def test_missing_word_rejected(self):
        base = point_complex()
        with pytest.raises(InvalidInputError):
            Decoration.from_maps(base, {}, {})

    def test_missing_shift_rejected(self):
        base = edge_complex()
        words = {i: Word((0,) * len(s), len(s)) if len(s) == 1 else word((0, 1))
                 for i, s in enumerate(base.simplices)}
        with pytest.raises(InvalidInputError):
            Decoration.from_maps(base, words, {})

    def test_wrong_length_tuples_rejected(self):
        base = point_complex()
        with pytest.raises(InvalidInputError):
            Decoration(base, (), ())


class TestValidation:
    def test_simple_triangle_is_valid(self):
        base = triangle_complex()
        words = {}
        shifts = {}
        for i, s in enumerate(base.simplices):
            words[i] = Word(tuple(range(len(s))), len(s))
            for j in range(len(s) if len(s) > 1 else 0):
                shifts[(i, j)] = 0
        d = Decoration.from_maps(base, words, shifts)
        report = validate_decoration(d)
        assert report.ok, report.summary()

    def test_wrong_alphabet_flagged(self):
        base = point_complex()
        d = Decoration.from_maps(base, {0: word((0, 1))}, {})
        report = validate_decoration(d)
        assert not report.ok
        assert report.issues[0].code == "wrong-alphabet"

    def test_swapped_edge_word_breaks_triangle(self):
        # Flip one edge word of the valid triangle decoration to (1, 0):
        # the triangle's zero-shift boundary toward that edge still reads
        # (0, 1), so validation reports a boundary mismatch there.
        base = triangle_complex()
        words = {}
        shifts = {}
        for i, s in enumerate(base.simplices):
            words[i] = Word(tuple(range(len(s))), len(s))
            for j in range(len(s) if len(s) > 1 else 0):
                shifts[(i, j)] = 0
        words[base.simplex_id((0, 1))] = word((1, 0))
        d = Decoration.from_maps(base, words, shifts)
        report = validate_decoration(d)
        assert not report.ok
        assert any(i.code == "boundary-mismatch" for i in report.issues)

    def test_standalone_decreasing_edge_word_is_valid(self):
        # On a lone edge the boundary toward either vertex is the one-letter
        # word (0,) no matter how (1, 0) is rotated, so zero shifts pass.
        base = edge_complex()
        words = {}
        for i, s in enumerate(base.simplices):
            if len(s) == 1:
                words[i] = word((0,))
            else:
                words[i] = word((1, 0))
        d = Decoration.from_maps(base, words, {(2, 0): 0, (2, 1): 0})
        report = validate_decoration(d)
        assert report.ok, report.summary()

    def test_shift_out_of_range_flagged(self):
        base = edge_complex()
        words = {0: word((0,)), 1: word((0,)), 2: word((0, 1))}
        d = Decoration.from_maps(base, words, {(2, 0): 5, (2, 1): 0})
        report = validate_decoration(d)
        assert not report.ok
        assert any(i.code == "shift-out-of-range" for i in report.issues)

    def test_bad_shift_shape_flagged(self):
        base = edge_complex()
        d = Decoration(
            base,
            (word((0,)), word((0,)), word((0, 1))),
            ((), (), (0,)),
        )
        report = validate_decoration(d)
        assert not report.ok
        assert any(i.code == "bad-shift-shape" for i in report.issues)

    def test_functoriality_mismatch_with_compatible_shifts(self):
        # Every stored shift turns the parent's boundary into the face word,
        # yet the two paths from the triangle down to vertex 1 (faces 0 and
        # 2) rotate its two-point fiber differently.
        base = triangle_complex()
        words = {
            0: word((0,)),
            1: word((0, 0)),
            2: word((0,)),
            3: word((0, 1, 1)),
            4: word((0, 1)),
            5: word((0, 0, 1)),
            6: word((0, 1, 1, 2)),
        }
        shifts = {
            (i, j): 0 for i in range(3, 7) for j in range(len(base.simplices[i]))
        }
        shifts[(5, 1)] = 2
        d = Decoration.from_maps(base, words, shifts)
        report = validate_decoration(d)
        assert [(i.code, i.detail, i.simplex) for i in report.issues] == [
            (
                "functoriality-mismatch",
                "faces 0 and 2 compose differently",
                (0, 1, 2),
            )
        ]


class TestFaceMorphism:
    def test_zero_shift_increasing_word(self):
        d = elementary_decoration(word((0, 1, 2)))
        base = d.base
        mu = face_morphism(d, (0, 1, 2), 0)
        assert mu.domain_word == word((0, 1))
        assert mu.codomain_word == word((0, 1, 2))
        assert mu.shift == 0
        # letters 1, 2 of the parent survive, at positions 1 and 2
        assert mu.position_map() == (1, 2)

    def test_morphism_respects_stored_shift(self):
        base = edge_complex()
        words = {}
        for i, s in enumerate(base.simplices):
            if len(s) == 1:
                words[i] = word((0,))
            else:
                words[i] = word((1, 0))
        d = Decoration.from_maps(base, words, {(2, 0): 1, (2, 1): 0})
        mu0 = face_morphism(d, (0, 1), 0)
        mu1 = face_morphism(d, (0, 1), 1)
        assert mu0.codomain_word == word((1, 0))
        # both morphisms intertwine letters correctly by construction
        for x in range(1):
            pos = mu0.position_map()[x]
            assert mu0.codomain_word.letters[pos] == 1

    def test_mismatched_face_word_raises(self):
        base = edge_complex()
        words = {0: Word((0, 0), 1), 1: word((0,)), 2: word((1, 0))}
        d = Decoration.from_maps(base, words, {(2, 0): 0, (2, 1): 0})
        with pytest.raises(InvalidInputError):
            face_morphism(d, (0, 1), 1)


class TestElementaryDecoration:
    @pytest.mark.parametrize(
        "w",
        [
            word((0, 1)),
            word((0, 1, 0, 1)),
            word((0, 1, 2)),
            word((0, 1, 2, 0)),
            word((0, 2, 1, 0)),
            word((0, 1, 2, 0, 1)),
            word((0, 1, 2, 3)),
            word((0, 1, 2, 3, 0, 2)),
        ],
    )
    def test_always_valid(self, w):
        d = elementary_decoration(w)
        report = validate_decoration(d)
        assert report.ok, report.summary()

    def test_words_are_boundaries(self):
        w = word((0, 1, 2, 0))
        d = elementary_decoration(w)
        assert d.word_for((0, 1, 2)) == w
        from necklace_chern.words_necklaces import FaceOperator

        bw, _ = boundary_word(w, FaceOperator((0, 2), 3))
        assert d.word_for((0, 2)) == bw


def counts_compatible(base, combo):
    """Cheap arithmetic filter: along every codimension-1 face, letter
    multiplicities must agree after renumbering through the inclusion."""
    for i, s in enumerate(base.simplices):
        if len(s) == 1:
            continue
        parent = combo[i]
        for j in range(len(s)):
            child_simplex = s[:j] + s[j + 1:]
            child = combo[base.simplex_id(child_simplex)]
            surviving = [x for x in range(len(s)) if x != j]
            expected = tuple(
                sum(1 for a in parent.letters if a == v) for v in surviving
            )
            got = tuple(
                sum(1 for a in child.letters if a == x)
                for x in range(len(child_simplex))
            )
            if expected != got:
                return False
    return True


def brute_force_decorations(base, max_len, words=None):
    """Oracle: generate word/shift combinations, prefilter by letter
    counts, keep whatever the validator accepts. Tiny complexes only.

    Given ``words`` (one per simplex id), only the shifts are searched."""
    per_simplex_words = [] if words is None else [[w] for w in words]
    for s in base.simplices if words is None else ():
        k1 = len(s)
        choices = []
        for length in range(k1, max_len + 1):
            for letters in itertools.product(range(k1), repeat=length):
                if set(letters) == set(range(k1)):
                    choices.append(Word(letters, k1))
        per_simplex_words.append(choices)
    slots = []
    for i, s in enumerate(base.simplices):
        if len(s) > 1:
            slots.extend((i, j) for j in range(len(s)))

    def plain_boundary(letters, j, t):
        # independent re-derivation: rotate right by t, drop letter j,
        # close the gap in the numbering
        rot = letters[-t:] + letters[:-t] if t else letters
        return tuple(a - 1 if a > j else a for a in rot if a != j)

    found = []
    for combo in itertools.product(*per_simplex_words):
        if not counts_compatible(base, combo):
            continue
        per_slot = []
        for i, j in slots:
            s = base.simplices[i]
            child = combo[base.simplex_id(s[:j] + s[j + 1:])]
            options = [
                t
                for t in range(combo[i].length)
                if plain_boundary(combo[i].letters, j, t) == child.letters
            ]
            per_slot.append(options)
        for assignment in itertools.product(*per_slot):
            shifts = {slot: t for slot, t in zip(slots, assignment)}
            d = Decoration.from_maps(base, dict(enumerate(combo)), shifts)
            if validate_decoration(d).ok:
                found.append(d)
    return found


class TestEnumeration:
    def test_single_vertex_count(self):
        # fiber circles of length 1, 2, 3: exactly one decoration each
        base = point_complex()
        found = list(enumerate_decorations(base, 3))
        assert len(found) == 3
        lengths = sorted(d.words[0].length for d in found)
        assert lengths == [1, 2, 3]

    def test_single_edge_count(self):
        # words of length 2 over two letters with both present: (0,1) and
        # (1,0); each has two faces with two shift choices apiece.
        base = edge_complex()
        found = list(enumerate_decorations(base, 2))
        assert len(found) == 8
        for d in found:
            assert validate_decoration(d).ok

    def test_single_edge_matches_brute_force(self):
        base = edge_complex()
        ours = list(enumerate_decorations(base, 3))
        oracle = brute_force_decorations(base, 3)
        assert len(ours) == len(oracle)
        key = lambda d: (tuple(w.letters for w in d.words), d.shifts)
        assert sorted(map(key, ours)) == sorted(map(key, oracle))

    def test_triangle_matches_brute_force(self):
        base = triangle_complex()
        ours = list(enumerate_decorations(base, 3))
        oracle = brute_force_decorations(base, 3)
        assert len(ours) == len(oracle)
        key = lambda d: (tuple(w.letters for w in d.words), d.shifts)
        assert sorted(map(key, ours)) == sorted(map(key, oracle))

    def test_single_edge_with_longer_fibers_matches_brute_force(self):
        # at 4 the fibers reach length 3, so shifts of repeated letters matter
        base = edge_complex()
        ours = list(enumerate_decorations(base, 4))
        oracle = brute_force_decorations(base, 4)
        assert len(ours) == len(oracle)
        key = lambda d: (tuple(w.letters for w in d.words), d.shifts)
        assert sorted(map(key, ours)) == sorted(map(key, oracle))

    @pytest.mark.parametrize("fibers", [(1, 1, 2), (1, 2, 1), (2, 1, 1)])
    def test_triangle_shift_search_with_longer_fibers(self, fibers):
        # With a fiber of length 2 the face-pair identities depend on the
        # shifts.  The triangle at max_len 4 has 387,072 such decorations
        # (the oracle would try ~3e7 word combinations), so this compares
        # the shift search alone, on the first words of each content.
        base = triangle_complex()
        words = tuple(
            next(words_of_content([fibers[v] for v in s])) for s in base.simplices
        )
        ours = list(
            decorations._shift_decorations(
                base, words, decorations._face_slots(base), decorations._Budget(10**6)
            )
        )
        oracle = brute_force_decorations(base, 4, words)
        assert ours and len(ours) == len(oracle)
        key = lambda d: (tuple(w.letters for w in d.words), d.shifts)
        assert sorted(map(key, ours)) == sorted(map(key, oracle))

    def test_deep_base_enumerates_without_recursion(self):
        # more vertices than the interpreter's recursion limit, and so more
        # simplices and face slots: one stack frame per vertex, simplex or
        # slot would pass it
        base = grid_torus(math.isqrt(sys.getrecursionlimit()) + 1)
        assert base.vertex_count > sys.getrecursionlimit()
        d = next(enumerate_decorations(base, 3))
        assert d.base == base
        assert validate_decoration(d).ok

    def test_enumerated_sample_is_valid(self):
        base = triangle_complex()
        for pos, d in enumerate(enumerate_decorations(base, 3)):
            if pos % 37 == 0:
                assert validate_decoration(d).ok

    def test_no_duplicates(self):
        base = triangle_complex()
        key = lambda d: (tuple(w.letters for w in d.words), d.shifts)
        seen = set()
        for d in enumerate_decorations(base, 3):
            k = key(d)
            assert k not in seen
            seen.add(k)

    def test_budget_exhaustion(self):
        base = triangle_complex()
        with pytest.raises(ResourceBudgetError):
            list(enumerate_decorations(base, 3, budget=0))

    def test_budget_env_override(self, monkeypatch):
        base = point_complex()
        monkeypatch.setenv("NECKLACE_MAX_CANDIDATES", "0")
        with pytest.raises(ResourceBudgetError):
            list(enumerate_decorations(base, 2))
        monkeypatch.setenv("NECKLACE_MAX_CANDIDATES", "1000")
        assert len(list(enumerate_decorations(base, 2))) == 2

    def test_max_len_below_dimension_rejected(self):
        base = triangle_complex()
        with pytest.raises(InvalidInputError):
            list(enumerate_decorations(base, 2))

    def test_high_dimension_rejected(self):
        base = LocallyOrderedComplex.from_maximal(4, [(0, 1, 2, 3)])
        with pytest.raises(InvalidInputError):
            list(enumerate_decorations(base, 4))


def stream_digest(stream):
    """The number of decorations and a sha256 over their words and shifts,
    in stream order."""
    digest = hashlib.sha256()
    count = 0
    for d in stream:
        key = (tuple((w.letters, w.alphabet_size) for w in d.words), d.shifts)
        digest.update(repr(key).encode())
        count += 1
    return count, digest.hexdigest()


class TestGoldenStreams:
    """Digests recorded from the enumeration before its shift search and the
    range solver's were merged into one: order, words and shifts are pinned."""

    def test_triangle_complete(self):
        assert stream_digest(enumerate_decorations(triangle_complex(), 3)) == (
            10368,
            "9e5a61c4e32b8c02feb4e5a99d3bf9cbd99df9f03ed641ee500aba73112aecba",
        )

    def test_triangle_prefix_with_longer_fibers(self):
        # past the first 10,368 (all fibers of length 1), repeated letters
        # make the face-pair identities depend on the shifts
        stream = itertools.islice(enumerate_decorations(triangle_complex(), 4), 20000)
        assert stream_digest(stream) == (
            20000,
            "6c5490645037755c65e09ab5e9105d9ca70cc84e4a239fabd6bba4203c95e168",
        )

    def test_tetrahedron_boundary_prefix(self):
        base = LocallyOrderedComplex.from_maximal(
            4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        )
        stream = itertools.islice(enumerate_decorations(base, 4), 3000)
        assert stream_digest(stream) == (
            3000,
            "5d9cde6f5cb584c5d4f2a3f64aa802e9e283daad4e667fec92e9bba3d7f7936f",
        )


class TestCorruptedCorpus:
    def test_reports(self):
        # reports on seeded corruptions, line for line as the golden record
        # has them
        expected = RECORD.read_text(encoding="utf-8").splitlines()
        assert list(corpus_lines()) == expected

    def test_cli_case_file(self, tmp_path):
        # the decoration file of the CLI golden is that case of the corpus
        _, d = next(itertools.islice(cases(), CLI_CASE, None))
        save_decoration(d, tmp_path / "d.json")
        golden = GOLDEN / "corrupted_decoration.json"
        assert (tmp_path / "d.json").read_bytes() == golden.read_bytes()


class TestMorphismTable:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: elementary_decoration(word([0, 1, 2, 3, 4])),
            lambda: elementary_decoration(word([3, 1, 0, 2, 1, 3, 0])),
            lambda: next(
                itertools.islice(
                    enumerate_decorations(triangle_complex(), 4), 777, None
                )
            ),
        ],
        ids=["elementary-5", "elementary-4-repeats", "enumerated-triangle"],
    )
    def test_validation_builds_each_face_morphism_once(self, monkeypatch, make):
        d = make()
        calls = []
        real = decorations.morphism_from_shift

        def counting(parent, child, j, t):
            calls.append((parent, child, j, t))
            return real(parent, child, j, t)

        monkeypatch.setattr(decorations, "morphism_from_shift", counting)
        assert validate_decoration(d).ok
        assert 0 < len(calls) <= sum(len(per_face) for per_face in d.shifts)
