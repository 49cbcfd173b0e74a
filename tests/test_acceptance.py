"""Acceptance suite: one test per primary criterion, each emitting a
single PASS/FAIL line (run with -s or -rA to see them) and enforcing the
stated runtime budget."""

import itertools
import random
import time
from fractions import Fraction

from necklace_chern.bundles import (
    extract_decoration,
    extract_word,
    elementary_view,
    product_bundle,
    section_shift,
    validate_bundle,
)
from necklace_chern.chern import (
    achievable_chern_numbers,
    chern_cochain,
    chern_number,
    coboundary,
)
from necklace_chern.complexes import LocallyOrderedComplex, simplex_face
from necklace_chern.cyclic_forms import (
    AffineSimplexMap,
    ExteriorForm,
    connection_form,
    curvature,
    exterior_derivative,
    pullback_affine,
    pullback_cyclic_gauge,
    reduced_dl,
    wedge_power,
)
from necklace_chern.decorations import elementary_decoration, validate_decoration
from necklace_chern.exact_linalg import (
    ExactMatrix,
    matrix_parity,
    normalized_word_matrix,
    okada_matrix,
    pfaffian,
    sum_maximal_minors,
)
from necklace_chern.serialize import (
    bundle_from_data,
    hopf_bundle,
    packaged_bundle_names,
    packaged_data,
    trivial_bundle,
)
from necklace_chern.words_necklaces import (
    Word,
    boundary_word,
    canonical_necklace,
    cyclic_shift,
    delete_index_face,
    necklace_parity,
    rational_parity,
    words_of_content,
)

import math

from oracles import all_surjective_words


def report(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def word_corpus(target: int = 10_000):
    """Deterministic corpus of surjective words, lengths <= 10 over
    alphabets <= 5: every small shape exhaustively, the rest seeded."""
    words = []
    for alphabet in range(1, 4):
        for length in range(alphabet, 7):
            words.extend(all_surjective_words(length, alphabet))
    rng = random.Random(46_664)
    while len(words) < target:
        alphabet = rng.choice((2, 2, 3, 3, 4, 4, 5))
        length = rng.randint(max(alphabet, 7), 10)
        letters = list(range(alphabet)) + [
            rng.randrange(alphabet) for _ in range(length - alphabet)
        ]
        rng.shuffle(letters)
        words.append(Word(tuple(letters), alphabet))
    return words


def matrix_corpus(count: int = 1_000):
    """Seeded random integer matrices up to 7x5, entries in [-3, 3], at
    least two columns, no zero column sums (so the parity quotient is
    defined for every column deletion)."""
    rng = random.Random(81_712)
    out = []
    while len(out) < count:
        cols = rng.randint(2, 5)
        rows = rng.randint(cols, 7)
        m = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if all(m.column_sum(j) != 0 for j in range(cols)):
            out.append(m)
    return out


def tetra_boundary():
    return LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def test_criterion_1_parity_oracle_equivalence():
    started = time.monotonic()
    words = word_corpus()
    for w in words:
        assert rational_parity(w) == sum_maximal_minors(
            normalized_word_matrix(w)
        ), w.letters
    elapsed = time.monotonic() - started
    report(
        elapsed < 60,
        f"[1] parity oracle equivalence on {len(words)} words "
        f"(length <= 10, alphabet <= 5), exact ({elapsed:.1f} s)",
    )


def test_criterion_2_okada_identity():
    started = time.monotonic()
    matrices = matrix_corpus()
    odd = even = 0
    for m in matrices:
        assert pfaffian(okada_matrix(m)) == sum_maximal_minors(m), m.entries
        if m.cols % 2 == 1:
            odd += 1
        else:
            even += 1
    elapsed = time.monotonic() - started
    report(
        odd > 0 and even > 0 and elapsed < 60,
        f"[2] okada Pfaffian identity on {len(matrices)} matrices up to 7x5 "
        f"({odd} odd-column, {even} even-column), exact ({elapsed:.1f} s)",
    )


def test_criterion_3_matrix_cocycle_lemma():
    started = time.monotonic()
    matrices = matrix_corpus()
    for m in matrices:
        total = Fraction(0)
        for j in range(m.cols):
            total += (-1) ** j * matrix_parity(m.delete_column(j))
        expected = matrix_parity(m) if m.cols % 2 == 1 else Fraction(0)
        assert total == expected, m.entries
    elapsed = time.monotonic() - started
    report(
        True,
        f"[3] column-deletion cocycle lemma on the same {len(matrices)} "
        f"matrices, exact ({elapsed:.1f} s)",
    )


def test_criterion_4_forms_suite():
    started = time.monotonic()
    gauge = deriv = 0
    for n in range(7):
        alpha = connection_form(n)
        for i in range(n + 1):
            assert pullback_cyclic_gauge(alpha, n, i) == alpha
            gauge += 1
        assert exterior_derivative(alpha) == curvature(n)
        deriv += 1

    powers = 0
    for n in range(7):
        for h in range(1, 4):
            if 2 * h > n:
                continue
            reference = ExteriorForm.zero(n, 2 * h)
            for combo in itertools.combinations(range(n + 1), 2 * h):
                piece = None
                for i in combo:
                    term = reduced_dl(n, i)
                    piece = term if piece is None else piece.wedge(term)
                reference = reference + piece
            reference = reference * (
                Fraction((-1) ** h) * math.factorial(h)
            )
            assert wedge_power(curvature(n), h) == reference
            powers += 1

    rng = random.Random(90_125)
    pulls = 0
    for _ in range(60):
        h = rng.choice((1, 2))
        cols = 2 * h + 1
        rows = rng.randint(cols, 7)
        columns = []
        for _ in range(cols):
            weights = [rng.randint(0, 4) for _ in range(rows)]
            if sum(weights) == 0:
                weights[rng.randrange(rows)] = 1
            total = sum(weights)
            columns.append([Fraction(v, total) for v in weights])
        a = AffineSimplexMap(
            ExactMatrix.from_rows(
                [[columns[j][i] for j in range(cols)] for i in range(rows)]
            )
        )
        got = pullback_affine(wedge_power(curvature(rows - 1), h), a)
        scale = (
            Fraction((-1) ** h)
            * math.factorial(h)
            * sum_maximal_minors(a.matrix)
        )
        assert got == ExteriorForm.term(cols - 1, tuple(range(cols - 1)), scale)
        pulls += 1

    elapsed = time.monotonic() - started
    report(
        elapsed < 120,
        f"[4] connection-form suite: {gauge} gauge invariances, {deriv} "
        f"derivatives, {powers} curvature powers (n <= 6, h <= 3), "
        f"{pulls} stochastic pullbacks up to 7x5, exact ({elapsed:.1f} s)",
    )


def test_criterion_5_hopf_landmark():
    started = time.monotonic()
    hopf = hopf_bundle()
    assert validate_bundle(hopf).ok
    d = extract_decoration(hopf)
    assert validate_decoration(d).ok
    hopf_number = chern_number(d)
    assert abs(hopf_number) == 1

    trivial = trivial_bundle()
    assert validate_bundle(trivial).ok
    trivial_number = chern_number(extract_decoration(trivial))
    assert trivial_number == 0
    elapsed = time.monotonic() - started
    report(
        elapsed < 10,
        f"[5] Hopf landmark: 12-vertex bundle gives |c1| = 1 "
        f"(c1 = {hopf_number}), trivial product gives 0 ({elapsed:.1f} s)",
    )


def test_criterion_6_local_formula_is_a_cocycle():
    started = time.monotonic()
    checked = 0
    for content in (
        (1, 1, 1, 1),
        (2, 1, 1, 1),
        (1, 2, 1, 1),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
    ):
        for w in words_of_content(content):
            d = elementary_decoration(w)
            assert d.base.dimension == 3
            assert coboundary(chern_cochain(d, 1)).is_zero
            checked += 1
    solid = LocallyOrderedComplex.from_maximal(4, [(0, 1, 2, 3)])
    for m in (3, 4, 5):
        d = extract_decoration(product_bundle(solid, m))
        assert coboundary(chern_cochain(d, 1)).is_zero
        checked += 1
    elapsed = time.monotonic() - started
    report(
        checked >= 100,
        f"[6] coboundary of the Chern cochain vanishes on {checked} valid "
        f"decorations of 3-dimensional complexes, exact ({elapsed:.1f} s)",
    )


def test_criterion_7_range_experiment():
    started = time.monotonic()
    achieved = achievable_chern_numbers(tetra_boundary(), 8)
    assert achieved == {-2, -1, 0, 1, 2}

    classical = []
    for name in packaged_bundle_names():
        b = bundle_from_data(packaged_data(name))
        if b.base == tetra_boundary():
            value = chern_number(extract_decoration(b))
            assert -1 <= value <= 1, name
            classical.append(value)
    elapsed = time.monotonic() - started
    report(
        len(classical) >= 2 and elapsed < 600,
        f"[7] decoration search over the tetrahedron boundary with "
        f"max_len 8 achieves exactly {{-2,-1,0,1,2}}; classical corpus "
        f"values {classical} stay within [-1, 1] ({elapsed:.1f} s)",
    )


def test_criterion_8_structural_invariants():
    started = time.monotonic()
    bundles = [bundle_from_data(packaged_data(n)) for n in packaged_bundle_names()]

    covariance = 0
    for b in bundles:
        for U in b.base.simplices:
            view = elementary_view(b, U)
            for s0 in view.zero_sections:
                base_word = extract_word(b, U, s0)
                for s1 in view.zero_sections:
                    t = section_shift(b, U, s0, s1)
                    assert extract_word(b, U, s1) == cyclic_shift(base_word, t)
                    covariance += 1

    commutation = 0
    for b in bundles:
        for V in b.base.simplices:
            if len(V) < 2:
                continue
            view = elementary_view(b, V)
            for j in range(len(V)):
                U = simplex_face(V, j)
                delta = delete_index_face(j, len(V))
                for s in view.zero_sections:
                    restricted = tuple(
                        x for x in s if b.vertex_map[x] != V[j]
                    )
                    lhs, _ = boundary_word(extract_word(b, V, s), delta)
                    assert lhs == extract_word(b, U, restricted)
                    commutation += 1

    independence = 0
    for b in bundles:
        for T in b.base.simplices_of_dimension(2):
            view = elementary_view(b, T)
            parities = {
                necklace_parity(canonical_necklace(extract_word(b, T, s)))
                for s in view.zero_sections
            }
            assert len(parities) == 1, T
            independence += 1

    for b in bundles:
        assert validate_bundle(b).ok
        assert validate_decoration(extract_decoration(b)).ok

    elapsed = time.monotonic() - started
    report(
        True,
        f"[8] structural invariants on the corpus: {covariance} "
        f"section-change covariances, {commutation} boundary commutations, "
        f"{independence} parity section-independence checks, and "
        f"{len(bundles)} bundle round-trips ({elapsed:.1f} s)",
    )
