"""Seeded corruptions of three valid bundles, and a text record of what
`validate_bundle` and `extract_decoration` make of each.

The sources are the packaged Hopf and trivial bundles and the product
bundle over the tetrahedron boundary with fibers of length 4.  Each case
drops a maximal simplex of the total, sends one total vertex to another
base vertex, swaps two entries of one fiber cycle, or adds a stray simplex
on random total vertices.  Each source is also extracted as it is, under
its default sections and under seeded random section choices, some with
one simplex given a section over another.
``tests/golden/corrupted_bundles.txt`` holds the record; after an intended
change of behaviour, regenerate it with

    PYTHONPATH=src python3 tests/corrupted_bundles.py > tests/golden/corrupted_bundles.txt
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import necklace_chern
from necklace_chern.bundles import (
    BundleMap,
    SectionChoice,
    elementary_view,
    extract_decoration,
    product_bundle,
    validate_bundle,
)
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.errors import SectionNotFoundError
from necklace_chern.serialize import load_bundle

DATA = Path(necklace_chern.__file__).parent / "data"
RECORD = Path(__file__).parent / "golden" / "corrupted_bundles.txt"
CASES_PER_KIND = 34  # 3 sources x 4 kinds x 34 = 408 cases
CHOICES = 12  # per source, every third with one misplaced section


def sources() -> List[Tuple[str, BundleMap]]:
    tetra = LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )
    return [
        ("hopf", load_bundle(DATA / "hopf_bundle.json")),
        ("trivial", load_bundle(DATA / "trivial_bundle.json")),
        ("product", product_bundle(tetra, 4)),
    ]


def _drop(rng: random.Random, b: BundleMap) -> Tuple[str, BundleMap]:
    maximal = list(b.total.maximal_simplices())
    dropped = maximal.pop(rng.randrange(len(maximal)))
    total = LocallyOrderedComplex.from_maximal(b.total.vertex_count, maximal)
    return f"drop {dropped}", BundleMap(total, b.base, b.vertex_map, b.fiber_orientation)


def _remap(rng: random.Random, b: BundleMap) -> Tuple[str, BundleMap]:
    t = rng.randrange(b.total.vertex_count)
    v = rng.randrange(b.base.vertex_count - 1)
    v += v >= b.vertex_map[t]
    vertex_map = b.vertex_map[:t] + (v,) + b.vertex_map[t + 1 :]
    bad = BundleMap(b.total, b.base, vertex_map, b.fiber_orientation)
    return f"send {t} to base vertex {v}", bad


def _swap(rng: random.Random, b: BundleMap) -> Tuple[str, BundleMap]:
    v = rng.randrange(b.base.vertex_count)
    cycle = list(b.fiber_orientation[v])
    i = rng.randrange(len(cycle))
    j = rng.randrange(len(cycle) - 1)
    j += j >= i
    cycle[i], cycle[j] = cycle[j], cycle[i]
    orientation = list(b.fiber_orientation)
    orientation[v] = tuple(cycle)
    return (
        f"swap entries {min(i, j)} and {max(i, j)} over {v}",
        BundleMap(b.total, b.base, b.vertex_map, tuple(orientation)),
    )


def _add(rng: random.Random, b: BundleMap) -> Tuple[str, BundleMap]:
    n = b.total.vertex_count
    while True:
        stray = tuple(sorted(rng.sample(range(n), rng.randrange(2, 5))))
        if not b.total.has_simplex(stray):
            break
    maximal = b.total.maximal_simplices() + (stray,)
    total = LocallyOrderedComplex.from_maximal(n, maximal)
    return f"add {stray}", BundleMap(total, b.base, b.vertex_map, b.fiber_orientation)


KINDS = (_drop, _remap, _swap, _add)


def _choices(
    rng: random.Random, b: BundleMap
) -> Iterator[Tuple[str, SectionChoice]]:
    simplices = b.base.simplices
    pools = [elementary_view(b, U).zero_sections for U in simplices]
    for k in range(CHOICES):
        sections = [rng.choice(pool) for pool in pools]
        label = "random sections"
        if k % 3 == 2:
            i = rng.randrange(len(simplices))
            alike = [j for j, V in enumerate(simplices) if len(V) == len(simplices[i])]
            j = rng.choice([j for j in alike if j != i])
            sections[i] = rng.choice(pools[j])
            label += f", {simplices[i]} given one over {simplices[j]}"
        yield label, SectionChoice(tuple(sections))


Case = Tuple[str, BundleMap, Optional[SectionChoice]]


def cases(seed: int = 0) -> Iterator[Case]:
    """(label, bundle, section choice or None) for every case, in a fixed
    order."""
    rng = random.Random(seed)
    for name, b in sources():
        yield f"{name}: default sections", b, None
        for label, choice in _choices(rng, b):
            yield f"{name}: {label}", b, choice
        for corrupt in KINDS:
            for _ in range(CASES_PER_KIND):
                label, bad = corrupt(rng, b)
                yield f"{name}: {label}", bad, None


def record(b: BundleMap, choice: Optional[SectionChoice] = None) -> List[str]:
    """The validation report, then the extracted words and face shifts
    by simplex id when the report is empty."""
    report = validate_bundle(b)
    if not report.ok:
        return [f"  {issue}" for issue in report.issues]
    try:
        d = extract_decoration(b, choice)
    except SectionNotFoundError as e:
        return [f"  SectionNotFoundError: {e}"]
    return ["  valid"] + [
        f"  {i} {''.join(map(str, w.letters))} {list(s)}"
        for i, (w, s) in enumerate(zip(d.words, d.shifts))
    ]


def corpus_lines(seed: int = 0) -> Iterator[str]:
    for case, (label, b, choice) in enumerate(cases(seed)):
        yield f"case {case} {label}"
        yield from record(b, choice)


if __name__ == "__main__":
    sys.stdout.writelines(line + "\n" for line in corpus_lines())
