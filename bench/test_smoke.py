"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import inputs  # noqa: E402
from necklace_chern.words_necklaces import rational_parity  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# One deliberately wrong expectation per workload.
WRONG = {
    "grid-bundle": {"c1": 1},
    "word-parity": {"offset": Fraction(1)},
    "range-search": {"window": {0}},
    "cli-corpus": {"c1": {"hopf": -1}},
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted(name, trace, kind):
    report, result = run.run_workload(name, 1, 0.01, trace, sizes=run.TINY)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert report["failed_frac"] == 0


@pytest.mark.parametrize("name", sorted(WRONG))
def test_wrong_expected_value_counts_as_failed(name):
    report, result = run.run_workload(name, 1, 0.01, False, sizes=run.TINY, expected=WRONG[name])
    assert report["failed_frac"] > 0
    assert result["failed"] >= 1 and not result["correct"]


def test_okada_oracle_matches_subword_enumeration():
    rng = random.Random(0)
    for content in [(1, 1, 1), (2, 3, 2), (4, 1, 3), (2, 2), (1, 3), (2, 1, 2, 1, 2), (1, 2, 1, 2)]:
        w = inputs.RandomWords(rng).next(content)
        assert inputs.okada_parity(w.letters, w.alphabet_size) == rational_parity(w)


def test_surface_check():
    inputs.check_surface(inputs.torus7_triangles(), 14)
    inputs.check_surface(inputs.grid_torus_triangles(3), 18)
    with pytest.raises(inputs.InputError, match="expected"):
        inputs.check_surface(inputs.torus7_triangles(), 12)
    with pytest.raises(inputs.InputError, match="closed"):
        inputs.check_surface(inputs.torus7_triangles()[1:], 13)
    rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
           (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    with pytest.raises(inputs.InputError, match="orientable"):
        inputs.check_surface(rp2, 10)
