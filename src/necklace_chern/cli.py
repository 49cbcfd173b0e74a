"""Command-line surface for parities, verification suites, bundle
extraction, Chern cochains, and the realizable-range search.

Exit codes: 0 success, 1 check failure, 2 input error, 3 resource bound.
All rational output is exact, rendered in lowest terms as "p/q". Reports
for identical inputs and flags are byte-identical apart from the final
timing line, which --no-timing suppresses.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, List, Optional

# Each command imports the modules it runs, so a fresh process loads and
# compiles only those; main needs just the error types.
from .errors import (
    InvalidInputError,
    NonIntegralError,
    NonOrientableError,
    NotClosedError,
    ResourceBudgetError,
)

if TYPE_CHECKING:
    from .chern import FundamentalCycle

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_BOUND = 3

_VERIFY_SEED = 20210
# the forms suite draws matrices with 2h+1 of at most 7 columns
_FORMS_MAX_H = 3

class CheckFailure(Exception):
    """A verification ran to completion and found a violation."""


def _positive(kind: str, value: int) -> int:
    if value < 1:
        raise InvalidInputError(f"{kind} must be at least 1, got {value}")
    return value


# =========================================================================
# parity
# =========================================================================


def cmd_parity(args: argparse.Namespace) -> int:
    from .exact_linalg import matrix_parity, normalized_word_matrix
    from .words_necklaces import (
        canonical_necklace,
        necklace_parity,
        rational_parity,
        word,
    )

    w = word(args.letters)
    brute = rational_parity(w)
    minors = matrix_parity(normalized_word_matrix(w))
    print(f"brute force P = {brute}")
    print(f"minor sum P = {minors}")
    odd = w.alphabet_size % 2 == 1
    # the Pfaffian route of the Chern computations needs an odd alphabet
    if brute != minors or (odd and necklace_parity(canonical_necklace(w)) != brute):
        print("FAIL parity computations disagree")
        raise CheckFailure
    if odd:
        print(f"P = {brute}")
    else:
        print(f"P = {brute} (not rotation-invariant: even alphabet)")
    return EXIT_OK


# =========================================================================
# verify suites
# =========================================================================


def cmd_verify_okada(args: argparse.Namespace) -> int:
    import random

    from .exact_linalg import (
        ExactMatrix,
        okada_matrix,
        pfaffian,
        sum_maximal_minors,
    )

    rows_bound = _positive("--rows", args.rows)
    cols_bound = _positive("--cols", args.cols)
    samples = _positive("--samples", args.samples)
    rng = random.Random(_VERIFY_SEED)
    odd = 0
    for index in range(samples):
        cols = rng.randint(1, min(cols_bound, rows_bound))
        rows = rng.randint(cols, rows_bound)
        x = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        if pfaffian(okada_matrix(x)) != sum_maximal_minors(x):
            print(f"FAIL okada identity at sample {index}: {x.entries}")
            raise CheckFailure
        odd += cols % 2
    print(
        f"PASS okada Pfaffian identity: {samples} samples "
        f"({odd} odd-column, {samples - odd} even-column), sizes up to "
        f"{rows_bound}x{cols_bound}"
    )
    return EXIT_OK


def cmd_verify_identities(args: argparse.Namespace) -> int:
    import itertools

    from .cyclic_category import dual_degeneracy, factorize_shift
    from .words_necklaces import FaceOperator

    bound = _positive("--max-k", args.max_k)

    def all_faces(size: int, codomain: int):
        for image in itertools.combinations(range(codomain), size):
            yield FaceOperator(image, codomain)

    pairs = 0
    for m in range(1, bound + 1):
        for mid in range(1, m + 1):
            for d1 in all_faces(mid, m):
                for inner in range(1, mid + 1):
                    for d2 in all_faces(inner, mid):
                        composite = FaceOperator(
                            tuple(d1.image[v] for v in d2.image), m
                        )
                        lhs = dual_degeneracy(composite).values
                        d1_op = dual_degeneracy(d1)
                        d2_op = dual_degeneracy(d2)
                        rhs = tuple(d2_op(d1_op(i)) for i in range(m))
                        if lhs != rhs:
                            print(
                                "FAIL duality of composition at "
                                f"{d1.image}->{m}, {d2.image}->{mid}"
                            )
                            raise CheckFailure
                        pairs += 1
    print(
        f"PASS duality reverses composition: {pairs} composable pairs "
        f"(codomain size <= {bound})"
    )

    checks = 0
    for m in range(1, bound + 1):
        for size in range(1, m + 1):
            for d in all_faces(size, m):
                for i in range(m):
                    face, shift = factorize_shift(d, i)
                    target = tuple((d.image[x] - i) % m for x in range(size))
                    found = []
                    for image in itertools.combinations(range(m), size):
                        candidate = FaceOperator(image, m)
                        for s in range(size):
                            if all(
                                candidate((x - s) % size) == target[x]
                                for x in range(size)
                            ):
                                found.append((image, s))
                    if size == 1:
                        ok = {p[0] for p in found} == {face.image}
                    else:
                        ok = found == [(face.image, shift)]
                    if not ok:
                        print(
                            f"FAIL factorization not unique for {d.image}->"
                            f"{m} rotated by {i}: found {found}"
                        )
                        raise CheckFailure
                    checks += 1
    print(
        f"PASS cyclic factorization exists and is unique: {checks} "
        f"(face, rotation) pairs (codomain size <= {bound})"
    )
    return EXIT_OK


def cmd_verify_forms(args: argparse.Namespace) -> int:
    import math
    import random
    from fractions import Fraction

    from .cyclic_forms import (
        AffineSimplexMap,
        ExteriorForm,
        connection_form,
        curvature,
        exterior_derivative,
        pullback_affine,
        pullback_cyclic_gauge,
        wedge_power,
    )
    from .exact_linalg import ExactMatrix, sum_maximal_minors

    n_bound = args.n
    h_bound = args.h
    if n_bound < 0:
        raise InvalidInputError("--n must be nonnegative")
    if not 1 <= h_bound <= _FORMS_MAX_H:
        raise InvalidInputError(
            f"--h must be between 1 and {_FORMS_MAX_H}, got {h_bound}"
        )
    gauge_checks = 0
    for n in range(n_bound + 1):
        alpha = connection_form(n)
        for i in range(n + 1):
            if pullback_cyclic_gauge(alpha, n, i) != alpha:
                print(f"FAIL gauge invariance at n={n}, shift {i}")
                raise CheckFailure
            gauge_checks += 1
    print(
        f"PASS connection invariant under all cyclic gauges: "
        f"{gauge_checks} checks (n <= {n_bound})"
    )

    for n in range(n_bound + 1):
        if exterior_derivative(connection_form(n)) != curvature(n):
            print(f"FAIL derivative of connection at n={n}")
            raise CheckFailure
    print(
        f"PASS exterior derivative of connection equals curvature "
        f"(n <= {n_bound})"
    )

    rng = random.Random(_VERIFY_SEED)
    pull_checks = 0
    for h in range(1, h_bound + 1):
        cols = 2 * h + 1
        for _ in range(10):
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
            expected = ExteriorForm.term(cols - 1, tuple(range(cols - 1)), scale)
            if got != expected:
                print(
                    f"FAIL curvature power pullback at h={h}, "
                    f"matrix {a.matrix.entries}"
                )
                raise CheckFailure
            pull_checks += 1
    print(
        f"PASS curvature power pullback equals scaled minor sum: "
        f"{pull_checks} stochastic matrices (h <= {h_bound})"
    )
    return EXIT_OK


# =========================================================================
# extract / chern / range
# =========================================================================


def _report_issues(label: str, report) -> None:
    if report.ok:
        print(f"{label}: PASS")
        return
    print(f"{label}: FAIL")
    for issue in report.issues:
        print(f"  {issue}")
    raise CheckFailure


def cmd_extract(args: argparse.Namespace) -> int:
    from .bundles import extract_decoration, validate_bundle
    from .decorations import validate_decoration
    from .serialize import load_bundle, save_decoration

    b = load_bundle(args.bundle)
    _report_issues("bundle validation", validate_bundle(b))
    d = extract_decoration(b)
    top = b.base.dimension
    for s in b.base.simplices_of_dimension(top):
        print(f"word {tuple(s)} = {d.word_for(s).letters}")
    save_decoration(d, args.out)
    print(f"decoration written: {args.out}")
    _report_issues("round-trip validation", validate_decoration(d))
    return EXIT_OK


def cmd_chern(args: argparse.Namespace) -> int:
    from .chern import chern_cochain, chern_number, fundamental_cycle
    from .decorations import validate_decoration
    from .serialize import load_decoration

    h = args.h
    if h < 0:
        raise InvalidInputError("--h must be nonnegative")
    d = load_decoration(args.decoration)
    _report_issues("decoration validation", validate_decoration(d))
    cochain = chern_cochain(d, h, validate=False)
    for s, value in cochain.items():
        print(f"c{tuple(s)} = {value}")
    if h != 1 or d.base.dimension != 2:
        return EXIT_OK
    if args.cycle == "auto":
        try:
            fc = fundamental_cycle(d.base)
        except (NotClosedError, NonOrientableError) as err:
            print(f"no chern number: {err}")
            return EXIT_OK
    else:
        fc = _load_cycle(args.cycle, d)
    try:
        value = chern_number(d, fc, validate=False)
    except NonIntegralError as err:
        print(f"FAIL {err}")
        raise CheckFailure
    print(f"c1 = {value}")
    return EXIT_OK


def _load_cycle(path: str, d) -> FundamentalCycle:
    from .chern import FundamentalCycle
    from .serialize import _int_list, _load, _require_fields

    data = _load(path, "cycle")
    _require_fields(data, "cycle file", ("coefficients",), versioned=True)
    # exact ints only: True and 1.0 compare equal to 1
    coeffs = _int_list(data.get("coefficients"), "cycle file \"coefficients\"")
    fc = FundamentalCycle(d.base, tuple(coeffs))
    base = d.base
    boundary = [0] * len(base.simplices)
    for t, c in zip(fc.triangles, fc.coefficients):
        for j, e in enumerate(base.face_ids[base.simplex_id(t)]):
            boundary[e] += c * (-1) ** j
    for e, value in enumerate(boundary):
        if value:
            raise InvalidInputError(
                f"cycle file coefficients are not a cycle: their boundary "
                f"is {value} on edge {base.simplices[e]}"
            )
    return fc


def cmd_range(args: argparse.Namespace) -> int:
    from .chern import achievable_chern_numbers
    from .serialize import load_complex

    base = load_complex(args.base)
    if args.max_len < 1:
        raise InvalidInputError("--max-len must be at least 1")
    achieved = achievable_chern_numbers(base, args.max_len)
    print("{" + ",".join(str(c) for c in sorted(achieved)) + "}")
    return EXIT_OK


# =========================================================================
# argument parsing and dispatch
# =========================================================================


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="suppress the trailing timing line",
    )

    parser = argparse.ArgumentParser(
        prog="necklace-chern",
        description=(
            "Exact local Chern class computations for triangulated "
            "circle bundles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "parity",
        parents=[common],
        help="rational parity of a cyclic word, three ways",
    )
    p.add_argument("letters", nargs="+", type=int)
    p.set_defaults(func=cmd_parity)

    suites = sub.add_parser(
        "verify", help="run an exact verification suite"
    ).add_subparsers(dest="suite", required=True)
    # each suite takes only its own flags, unabbreviated: "--n" and "--h"
    # would otherwise stand for --no-timing and --help in another suite
    suite_options = dict(parents=[common], allow_abbrev=False)
    v = suites.add_parser(
        "okada", help="the Okada Pfaffian identity", **suite_options
    )
    v.add_argument("--rows", type=int, default=7)
    v.add_argument("--cols", type=int, default=5)
    v.add_argument("--samples", type=int, default=1000)
    v.set_defaults(func=cmd_verify_okada)
    v = suites.add_parser(
        "identities",
        help="duality and cyclic factorization of face operators",
        **suite_options,
    )
    v.add_argument("--max-k", type=int, default=5)
    v.set_defaults(func=cmd_verify_identities)
    v = suites.add_parser(
        "forms", help="the connection-form lemmas", **suite_options
    )
    v.add_argument("--n", type=int, default=4)
    v.add_argument("--h", type=int, default=2, help=f"at most {_FORMS_MAX_H}")
    v.set_defaults(func=cmd_verify_forms)

    e = sub.add_parser(
        "extract",
        parents=[common],
        help="validate a bundle file and write its decoration",
    )
    e.add_argument("--bundle", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extract)

    c = sub.add_parser(
        "chern",
        parents=[common],
        help="evaluate the local Chern cochain of a decoration",
    )
    c.add_argument("--decoration", required=True)
    c.add_argument("--h", type=int, default=1)
    c.add_argument(
        "--cycle",
        default="auto",
        help="fundamental cycle: \"auto\" or a JSON coefficient file",
    )
    c.set_defaults(func=cmd_chern)

    r = sub.add_parser(
        "range",
        parents=[common],
        help="achievable Chern numbers over a closed surface",
    )
    r.add_argument("--base", required=True)
    r.add_argument("--max-len", type=int, required=True)
    r.set_defaults(func=cmd_range)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except CheckFailure:
        code = EXIT_CHECK_FAILURE
    except (InvalidInputError, NotClosedError, NonOrientableError) as err:
        print(f"input error: {err}")
        code = EXIT_INPUT_ERROR
    except ResourceBudgetError as err:
        print(f"resource bound exceeded: {err}")
        code = EXIT_RESOURCE_BOUND
    if not args.no_timing:
        elapsed = (time.monotonic() - started) * 1000.0
        print(f"time: {elapsed:.1f} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())
