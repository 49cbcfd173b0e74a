"""Exact terms of the forms that the connection-form lemmas compute, one
line per form.

The forms are the connection and the curvature over the n-simplex for
n <= 5, the curvature's wedge powers for h <= 3 and the connection wedged
with them, every cyclic gauge pullback of the connection, of the
curvature and of seeded random forms, the pullback of the connection
along every face inclusion, seeded random forms with their exterior
derivatives, and pullbacks along seeded column-stochastic matrices with
their exterior derivatives.

Each line is a label, then the form's terms in sorted order, each written
``differentials|monomial|p/q``: the differential indices (-1 for dx) and
the exponents of l_0 .. l_{arity-1}, comma-separated, then the coefficient
in lowest terms.  A zero form has no terms.  ``tests/golden/forms_terms.txt``
holds the record; after an intended change of behaviour, regenerate it
with

    PYTHONPATH=src python3 tests/forms_terms.py > tests/golden/forms_terms.txt
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Tuple

from necklace_chern.cyclic_forms import (
    DX,
    AffineSimplexMap,
    ExteriorForm,
    connection_form,
    curvature,
    exterior_derivative,
    fiber_differential,
    pullback_affine,
    pullback_cyclic_gauge,
    pullback_face,
    reduced_dl,
    reduced_l,
    wedge_power,
)
from necklace_chern.exact_linalg import ExactMatrix
from necklace_chern.words_necklaces import FaceOperator

RECORD = Path(__file__).parent / "golden" / "forms_terms.txt"
MAX_N = 5
MAX_H = 3
AFFINE_MAPS = 30


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def form_line(label: str, f: ExteriorForm) -> str:
    terms = sorted(
        (indices, mono, Fraction(c)) for (indices, mono), c in f.terms.items()
    )
    return " ".join(
        [label]
        + [f"{_csv(i)}|{_csv(m)}|{c.numerator}/{c.denominator}" for i, m, c in terms]
    )


def random_form(rng: random.Random, n: int, degree: int) -> ExteriorForm:
    """A sum of up to four terms: a rational times a product of up to two
    barycentric coordinates times a wedge of distinct differentials."""
    pool = [DX] + list(range(n))
    total = ExteriorForm.zero(n, degree)
    for _ in range(rng.randint(1, 4)):
        scale = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        piece = ExteriorForm.term(n, (), scale)
        for _ in range(rng.randint(0, 2)):
            piece = piece * reduced_l(n, rng.randint(0, n))
        for index in sorted(rng.sample(pool, degree)):
            piece = piece.wedge(
                fiber_differential(n) if index == DX else reduced_dl(n, index)
            )
        total = total + piece
    return total


def random_stochastic_map(rng: random.Random, rows: int, cols: int) -> AffineSimplexMap:
    columns = []
    for _ in range(cols):
        weights = [rng.randint(0, 4) for _ in range(rows)]
        if sum(weights) == 0:
            weights[rng.randrange(rows)] = 1
        columns.append([Fraction(w, sum(weights)) for w in weights])
    return AffineSimplexMap(
        ExactMatrix.from_rows(
            [[columns[j][i] for j in range(cols)] for i in range(rows)]
        )
    )


def _matrix_label(a: AffineSimplexMap) -> str:
    return "[" + ";".join(_csv(row) for row in a.matrix.entries) + "]"


def forms() -> Iterator[Tuple[str, ExteriorForm]]:
    for n in range(MAX_N + 1):
        yield f"connection n={n}", connection_form(n)
        yield f"curvature n={n}", curvature(n)
        for h in range(1, MAX_H + 1):
            power = wedge_power(curvature(n), h)
            yield f"curvature^{h} n={n}", power
            if h < MAX_H:
                yield f"connection*curvature^{h} n={n}", connection_form(n).wedge(power)
    for n in range(MAX_N + 1):
        alpha, omega = connection_form(n), curvature(n)
        for name, f in (("connection", alpha), ("curvature", omega)):
            for i in range(n + 1):
                yield f"gauge {name} n={n} i={i}", pullback_cyclic_gauge(f, n, i)
    rng = random.Random(21)
    for n in range(1, MAX_N):
        for degree in (0, 1, 2):
            f = random_form(rng, n, degree)
            yield f"random n={n} degree={degree}", f
            yield f"d random n={n} degree={degree}", exterior_derivative(f)
            for i in range(n + 1):
                yield (
                    f"gauge random n={n} degree={degree} i={i}",
                    pullback_cyclic_gauge(f, n, i),
                )
    for n in range(MAX_N + 1):
        alpha = connection_form(n)
        for size in range(1, n + 2):
            for image in itertools.combinations(range(n + 1), size):
                face = FaceOperator(image, n + 1)
                yield f"face connection n={n} image={_csv(image)}", pullback_face(
                    alpha, n, face
                )
    rng = random.Random(2021)
    for index in range(AFFINE_MAPS):
        rows = rng.randint(1, MAX_N + 1)
        a = random_stochastic_map(rng, rows, rng.randint(1, rows))
        n = rows - 1
        label = f"affine {index} {_matrix_label(a)}"
        for name, f in (
            ("connection", connection_form(n)),
            ("random", random_form(rng, n, rng.randint(0, min(2, n + 1)))),
        ):
            pulled = pullback_affine(f, a)
            yield f"{label} {name}", pulled
            yield f"{label} d {name}", exterior_derivative(pulled)
    for h in range(1, MAX_H + 1):
        cols = 2 * h + 1
        for index in range(10):
            a = random_stochastic_map(rng, rng.randint(cols, 7), cols)
            yield (
                f"affine curvature^{h} {index} {_matrix_label(a)}",
                pullback_affine(wedge_power(curvature(a.target_dimension), h), a),
            )


def corpus_lines() -> Iterator[str]:
    for label, f in forms():
        yield form_line(label, f)


if __name__ == "__main__":
    sys.stdout.writelines(line + "\n" for line in corpus_lines())
