"""Seeded input generators, their self-checks, and an exact parity oracle.

Every generator draws from a `random.Random` owned by its workload and
never hands out an input it has handed out before, so no job sees an input
an earlier job in the same process has seen.  Surfaces are checked with
code independent of the library: closed (each edge in exactly two
triangles), orientable (a coherent signing exists) and of the expected
triangle count.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
import random

from necklace_chern import bundles, complexes, serialize
from necklace_chern.words_necklaces import Word


class InputError(Exception):
    """A generator produced something other than what it promised."""


# =========================================================================
# Surfaces and bundles
# =========================================================================


def grid_torus_triangles(n):
    """The N x N grid torus, each square cut along one diagonal."""
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            tris += [(a, b, c), (a, d, c)]
    return tris


def torus7_triangles():
    """The 7-vertex torus: 14 triangles, every vertex pair an edge."""
    return [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
        (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
    ]


def check_surface(triangles, expected_count):
    """Raise `InputError` unless the triangles form a closed, connected,
    orientable surface with the expected number of triangles."""
    tris = sorted({tuple(sorted(t)) for t in triangles})
    if len(tris) != expected_count:
        raise InputError(f"expected {expected_count} triangles, got {len(tris)}")
    by_edge = {}
    for ti, t in enumerate(tris):
        for j in range(3):
            by_edge.setdefault(t[:j] + t[j + 1 :], []).append((ti, j))
    if any(len(hits) != 2 for hits in by_edge.values()):
        raise InputError("surface is not closed")
    # face j of an increasing triangle enters its boundary with sign (-1)^j;
    # across a shared edge the two contributions must cancel
    sign = {0: 1}
    queue = [0]
    while queue:
        ti = queue.pop()
        for j in range(3):
            for tk, jk in by_edge[tris[ti][:j] + tris[ti][j + 1 :]]:
                if tk == ti:
                    continue
                forced = -sign[ti] * (-1) ** (j + jk)
                if tk not in sign:
                    sign[tk] = forced
                    queue.append(tk)
                elif sign[tk] != forced:
                    raise InputError("surface is not orientable")
    if len(sign) != len(tris):
        raise InputError("surface is not connected")


class RelabeledSurfaces:
    """Fresh vertex relabelings of one surface, as library complexes."""

    def __init__(self, rng, vertex_count, triangles):
        self.rng = rng
        self.vertex_count = vertex_count
        self.triangles = triangles
        self.seen = set()
        check_surface(triangles, len(triangles))

    def next(self):
        perm = list(range(self.vertex_count))
        for _ in range(1000):
            self.rng.shuffle(perm)
            tris = tuple(sorted(tuple(sorted(perm[v] for v in t)) for t in self.triangles))
            if tris not in self.seen:
                break
        else:
            raise InputError("no unseen relabeling left")
        self.seen.add(tris)
        check_surface(tris, len(self.triangles))
        return complexes.LocallyOrderedComplex.from_maximal(self.vertex_count, tris)


def product_over(base, fiber):
    """The product bundle over ``base``, checked to be a closed 3-manifold
    over a closed surface: every triangle of the total space lies in
    exactly two tetrahedra."""
    b = bundles.product_bundle(base, fiber)
    faces = Counter()
    tets = [s for s in b.total.simplices if len(s) == 4]
    for t in tets:
        for j in range(4):
            faces[t[:j] + t[j + 1 :]] += 1
    if len(faces) != sum(1 for s in b.total.simplices if len(s) == 3) or set(
        faces.values()
    ) != {2}:
        raise InputError("total space is not a closed 3-manifold")
    if b.total.vertex_count != fiber * base.vertex_count:
        raise InputError("total space has the wrong vertex count")
    return b


# =========================================================================
# Words
# =========================================================================


class RandomWords:
    """Fresh words of a given letter content, in seeded random order."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def next(self, content):
        alphabet = len(content)
        letters = [j for j in range(alphabet) for _ in range(content[j])]
        for _ in range(1000):
            self.rng.shuffle(letters)
            key = min(
                tuple(letters[i:] + letters[:i]) for i in range(len(letters))
            )
            if key not in self.seen:
                break
        else:
            raise InputError("no unseen word left")
        self.seen.add(key)
        w = Word(tuple(letters), alphabet)
        if list(w.multiplicities()) != list(content):
            raise InputError("word has the wrong letter content")
        return w


def content_schedule(alphabet, lo, hi):
    """Every letter content with multiplicities in [lo, hi], in one fixed
    order that does not depend on the seed, so each run meets the same mix
    of word sizes and only the letter orders change with the seed."""
    contents = list(product(range(lo, hi + 1), repeat=alphabet))
    random.Random(alphabet * 1000 + lo * 10 + hi).shuffle(contents)
    return contents


def okada_parity(letters, alphabet):
    """Rational parity of a word by the Okada Pfaffian, from integer pair
    counts: an exact route that shares no code with the library.

    Entry (a, b) of the skew matrix is (#a before b - #b before a) divided
    by the multiplicities of a and b; odd alphabets get a border of ones.
    """
    mult = [0] * alphabet
    before = [[0] * alphabet for _ in range(alphabet)]
    for b in letters:
        for a in range(alphabet):
            before[a][b] += mult[a]
        mult[b] += 1
    size = alphabet + alphabet % 2
    off = alphabet % 2
    m = [[Fraction(0)] * size for _ in range(size)]
    for a in range(alphabet):
        if off:
            m[0][a + 1], m[a + 1][0] = Fraction(1), Fraction(-1)
        for b in range(alphabet):
            if a != b:
                m[a + off][b + off] = Fraction(
                    before[a][b] - before[b][a], mult[a] * mult[b]
                )
    return _pfaffian(m, tuple(range(size)))


def _pfaffian(m, rows):
    if not rows:
        return Fraction(1)
    first, rest = rows[0], rows[1:]
    total = Fraction(0)
    for pos, r in enumerate(rest):
        if m[first][r]:
            sign = 1 if pos % 2 == 0 else -1
            total += sign * m[first][r] * _pfaffian(m, rest[:pos] + rest[pos + 1 :])
    return total


# =========================================================================
# The packaged corpus on disk
# =========================================================================


def write_corpus(directory):
    """Write the packaged Hopf and trivial bundles as JSON files and check
    that each reads back over a closed orientable 4-triangle base."""
    paths = {}
    for name, bundle in (
        ("hopf", serialize.hopf_bundle()),
        ("trivial", serialize.trivial_bundle()),
    ):
        path = Path(directory) / f"{name}_bundle.json"
        serialize.save_bundle(bundle, path)
        base = serialize.load_bundle(path).base
        check_surface([s for s in base.simplices if len(s) == 3], 4)
        paths[name] = path
    return paths
