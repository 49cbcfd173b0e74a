"""Seeded corruptions of valid decorations, and a text record of what
`validate_decoration` makes of each.

The sources are the golden Hopf and trivial decorations, the elementary
decorations of six 3- and 5-letter words, and six decorations drawn from
the start of the enumeration stream of the triangle at max_len 4.  Each
case changes one shift, swaps the words of two simplices of one dimension,
rotates one word, deletes one occurrence of a letter that occurs more than
once in a word, puts an edge word on a triangle, or gives one simplex a
shift tuple of the wrong length.  A kind that cannot apply to a source
(no letter occurs twice in any of its words) is left out for it.
``tests/golden/corrupted_decorations.txt`` holds the record; after an
intended change of behaviour, regenerate it with

    PYTHONPATH=src python3 tests/corrupted_decorations.py > tests/golden/corrupted_decorations.txt

``tests/golden/corrupted_decoration.json`` is case `CLI_CASE` saved as a
decoration file, for the CLI's `chern` golden.
"""

from __future__ import annotations

import random
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.decorations import (
    Decoration,
    elementary_decoration,
    enumerate_decorations,
    validate_decoration,
)
from necklace_chern.serialize import load_decoration
from necklace_chern.words_necklaces import Word, cyclic_shift

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "corrupted_decorations.txt"
CLI_CASE = 2  # a functoriality mismatch, which a decoration file can hold
CASES_PER_KIND = 5  # 14 sources x 6 kinds x 5, less the kinds left out
ELEMENTARY = [
    ((0, 2, 1), 3),
    ((1, 0, 2), 3),
    ((0, 2, 1, 0, 2), 3),
    ((1, 0, 2, 2, 1), 3),
    ((0, 2, 1, 3, 1), 4),
    ((3, 0, 2, 1, 0), 4),
]
# the stream of the triangle at max_len 4 is 397,440 decorations long;
# this prefix holds every 3-letter top word and every top word of content
# (1, 1, 2)
ENUMERATED_PREFIX = 17_280
ENUMERATED = 6


def sources() -> List[Tuple[str, Decoration]]:
    found = [
        ("hopf", load_decoration(GOLDEN / "hopf_decoration.json")),
        ("trivial", load_decoration(GOLDEN / "trivial_decoration.json")),
    ]
    for letters, size in ELEMENTARY:
        word = "".join(map(str, letters))
        found.append((f"elementary {word}", elementary_decoration(Word(letters, size))))
    triangle = LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
    stream = list(islice(enumerate_decorations(triangle, 4), ENUMERATED_PREFIX))
    picks = sorted(random.Random(0).sample(range(ENUMERATED_PREFIX), ENUMERATED))
    found.extend((f"triangle decoration {k}", stream[k]) for k in picks)
    return found


Corruption = Tuple[str, Decoration]


def _replace(d: Decoration, i: int, word=None, shifts=None) -> Decoration:
    words, per_face = list(d.words), list(d.shifts)
    if word is not None:
        words[i] = word
    if shifts is not None:
        per_face[i] = shifts
    return Decoration(d.base, tuple(words), tuple(per_face))


def _change_shift(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    slots = [(i, j) for i, s in enumerate(d.shifts) for j in range(len(s))]
    i, j = rng.choice(slots)
    old = d.shifts[i][j]
    # one past the last valid shift too, so some are out of range
    t = rng.choice([t for t in range(d.words[i].length + 1) if t != old])
    shifts = d.shifts[i][:j] + (t,) + d.shifts[i][j + 1 :]
    simplex = d.base.simplices[i]
    return f"face {j} shift of {simplex} {old} -> {t}", _replace(d, i, shifts=shifts)


def _swap_words(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    simplices = d.base.simplices
    pairs = [
        (a, b)
        for a in range(len(simplices))
        for b in range(a + 1, len(simplices))
        if len(simplices[a]) == len(simplices[b]) and d.words[a] != d.words[b]
    ]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    swapped = _replace(_replace(d, a, word=d.words[b]), b, word=d.words[a])
    return f"swap the words of {simplices[a]} and {simplices[b]}", swapped


def _rotate_word(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    movable = [i for i, w in enumerate(d.words) if cyclic_shift(w, 1) != w]
    if not movable:
        return None
    i = rng.choice(movable)
    w = d.words[i]
    r = rng.choice([r for r in range(1, w.length) if cyclic_shift(w, r) != w])
    simplex = d.base.simplices[i]
    return f"rotate the word of {simplex} by {r}", _replace(d, i, word=cyclic_shift(w, r))


def _delete_letter(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    spots = [
        (i, k)
        for i, w in enumerate(d.words)
        for k, x in enumerate(w.letters)
        if w.letters.count(x) > 1
    ]
    if not spots:
        return None
    i, k = rng.choice(spots)
    w = d.words[i]
    shorter = Word(w.letters[:k] + w.letters[k + 1 :], w.alphabet_size)
    simplex = d.base.simplices[i]
    return f"delete letter {k} of the word of {simplex}", _replace(d, i, word=shorter)


def _edge_word_on_triangle(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    simplices = d.base.simplices
    triangle = rng.choice([i for i, s in enumerate(simplices) if len(s) == 3])
    edge = rng.choice([i for i, s in enumerate(simplices) if len(s) == 2])
    return (
        f"put the word of {simplices[edge]} on {simplices[triangle]}",
        _replace(d, triangle, word=d.words[edge]),
    )


def _shift_tuple_length(rng: random.Random, d: Decoration) -> Optional[Corruption]:
    i = rng.randrange(len(d.base.simplices))
    per_face = d.shifts[i]
    if per_face and rng.random() < 0.5:
        shifts, what = per_face[:-1], "drop the last shift"
    else:
        shifts, what = per_face + (0,), "append a shift"
    simplex = d.base.simplices[i]
    return f"{what} of {simplex}", _replace(d, i, shifts=shifts)


KINDS: Tuple[Callable[[random.Random, Decoration], Optional[Corruption]], ...] = (
    _change_shift,
    _swap_words,
    _rotate_word,
    _delete_letter,
    _edge_word_on_triangle,
    _shift_tuple_length,
)


def cases(seed: int = 0) -> Iterator[Corruption]:
    """(label, decoration) for every case, in a fixed order."""
    rng = random.Random(seed)
    for name, d in sources():
        yield f"{name}: as it is", d
        for corrupt in KINDS:
            for _ in range(CASES_PER_KIND):
                case = corrupt(rng, d)
                if case is None:
                    break
                label, bad = case
                yield f"{name}: {label}", bad


def record(d: Decoration) -> List[str]:
    report = validate_decoration(d)
    if report.ok:
        return ["  valid"]
    return [f"  {issue}" for issue in report.issues]


def corpus_lines(seed: int = 0) -> Iterator[str]:
    for case, (label, d) in enumerate(cases(seed)):
        yield f"case {case} {label}"
        yield from record(d)


if __name__ == "__main__":
    sys.stdout.writelines(line + "\n" for line in corpus_lines())
