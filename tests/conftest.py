"""Shared hypothesis strategies and small helpers for the test suite."""

from __future__ import annotations

import copy
import random

from hypothesis import strategies as st

from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.words_necklaces import Word

# The word of tests/golden/parity_long.txt, content (30, 30, 30); the CI
# golden step runs the same letters.
PARITY_LONG_WORD = (
    "1 1 1 2 2 0 1 2 0 1 1 0 0 0 1 1 2 0 1 2 1 2 0 1 2 2 2 2 1 2 "
    "2 0 1 2 1 0 1 1 0 2 0 2 1 0 0 2 0 1 1 0 0 1 0 2 1 1 0 1 2 1 "
    "0 0 0 0 2 2 0 1 0 1 0 0 0 1 1 2 2 2 2 1 2 2 2 0 0 2 2 2 1 0"
)


@st.composite
def surjective_words(draw, max_alphabet: int = 5, max_length: int = 10) -> Word:
    """A random surjective word with bounded alphabet and length."""
    alphabet = draw(st.integers(min_value=1, max_value=max_alphabet))
    length = draw(st.integers(min_value=alphabet, max_value=max_length))
    extra = draw(
        st.lists(
            st.integers(min_value=0, max_value=alphabet - 1),
            min_size=length - alphabet,
            max_size=length - alphabet,
        )
    )
    letters = list(range(alphabet)) + extra
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    random.Random(seed).shuffle(letters)
    return Word(tuple(letters), alphabet)


def grid_torus(n: int) -> LocallyOrderedComplex:
    """The n x n grid torus, each square cut along one diagonal."""
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, ((i + 1) % n) * n + j
            c, d = ((i + 1) % n) * n + (j + 1) % n, i * n + (j + 1) % n
            tris += [tuple(sorted((a, b, c))), tuple(sorted((a, d, c)))]
    return LocallyOrderedComplex.from_maximal(n * n, tris)


@st.composite
def odd_alphabet_words(draw, max_length: int = 9) -> Word:
    """A random surjective word over an odd alphabet (1, 3 or 5 letters)."""
    alphabet = draw(st.sampled_from([1, 3, 5]))
    length = draw(st.integers(min_value=alphabet, max_value=max_length))
    extra = draw(
        st.lists(
            st.integers(min_value=0, max_value=alphabet - 1),
            min_size=length - alphabet,
            max_size=length - alphabet,
        )
    )
    letters = list(range(alphabet)) + extra
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    random.Random(seed).shuffle(letters)
    return Word(tuple(letters), alphabet)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _slots(node, depth=0):
    """(container, key, depth) for every entry below a JSON value."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key, depth))
        out.extend(_slots(child, depth + 1))
    return out


@st.composite
def mutated_json(draw, valid: dict):
    """A copy of valid JSON data changed in one to three places: an entry
    replaced by arbitrary JSON or by a nearby integer, deleted, or joined
    by a new one.  Half the edits land in the top two levels, where the
    schema's own keys are."""
    data = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(data)
        if draw(st.booleans()):
            slots = [slot for slot in slots if slot[2] < 2] or slots
        if not slots:
            break
        node, key, _ = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["replace", "nudge", "delete", "insert"]))
        if edit == "replace":
            node[key] = draw(json_values)
        elif edit == "nudge":
            value = node[key]
            number = value if isinstance(value, int) else draw(st.integers(-2, 20))
            node[key] = number + draw(st.sampled_from([-1, 1, 10**30]))
        elif edit == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=3))] = draw(json_values)
        else:
            node.insert(key, draw(json_values))
    return data
