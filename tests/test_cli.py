"""End-to-end tests of the command-line interface: output formats,
exit codes, and determinism."""

import itertools
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import necklace_chern
from necklace_chern.bundles import extract_decoration, product_bundle
from necklace_chern.chern import fundamental_cycle
from necklace_chern.cli import main
from necklace_chern.complexes import LocallyOrderedComplex
from necklace_chern.serialize import (
    decoration_to_data,
    load_decoration,
    packaged_data,
    save_bundle,
    save_complex,
    save_json,
    trivial_bundle,
)

from conftest import PARITY_LONG_WORD, grid_torus, json_values, mutated_json

DATA = Path(necklace_chern.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def tetra_boundary():
    return LocallyOrderedComplex.from_maximal(
        4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def hopf_path(tmp_path):
    path = tmp_path / "hopf.json"
    save_json(packaged_data("hopf_bundle.json"), path)
    return path


@pytest.fixture
def base_path(tmp_path):
    path = tmp_path / "base.json"
    save_complex(tetra_boundary(), path)
    return path


class TestParity:
    def test_standard_word(self, capsys):
        code, out = run(capsys, "parity", "0", "1", "2", "--no-timing")
        assert code == 0
        assert out.splitlines() == [
            "brute force P = 1",
            "minor sum P = 1",
            "P = 1",
        ]

    def test_even_alphabet_note(self, capsys):
        code, out = run(capsys, "parity", "0", "1", "0", "1", "--no-timing")
        assert code == 0
        assert out.splitlines()[-1] == (
            "P = 1/2 (not rotation-invariant: even alphabet)"
        )

    def test_single_letter(self, capsys):
        code, out = run(capsys, "parity", "0", "0", "--no-timing")
        assert code == 0
        assert out.splitlines()[-1] == "P = 1"

    def test_malformed_word(self, capsys):
        code, out = run(capsys, "parity", "0", "2", "--no-timing")
        assert code == 2
        assert out.startswith("input error:")

    def test_minor_sum_budget_exits_three(self):
        # 19 letters, one of them twice: 2 x (2**19 - 1) + 1 updates of minor
        # expansion exceed the budget; the two subwords fit it
        letters = [str(i) for i in range(19)] + ["0"]
        proc = subprocess.run(
            [sys.executable, "-m", "necklace_chern.cli", "parity", *letters],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 3
        assert (
            "20x19 matrix: 1048575 minor-expansion updates "
            "exceed the budget 1000000"
        ) in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_one_subword_of_seventeen_letters(self, capsys):
        # a square matrix: 2**17 - 1 expansion updates
        code, out = run(capsys, "parity", *map(str, range(17)), "--no-timing")
        assert code == 0
        assert out.splitlines()[-1] == "P = 1"

    def test_many_letters_within_the_expansion_budget(self, capsys):
        # C(33, 11) ~ 1.9e8 maximal minors, but 33 x 2**11 expansion updates
        letters = [str(i % 11) for i in range(33)]
        code, out = run(capsys, "parity", *letters, "--no-timing")
        assert code == 0
        assert out.splitlines() == [
            "brute force P = 1/243",
            "minor sum P = 1/243",
            "P = 1/243",
        ]

    def test_pfaffian_route_disagreement_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "necklace_chern.words_necklaces.necklace_parity", lambda n: Fraction(-1)
        )
        code, out = run(capsys, "parity", "0", "1", "2", "--no-timing")
        assert code == 1
        assert "FAIL parity computations disagree" in out.splitlines()

    def test_timing_line_present_by_default(self, capsys):
        code, out = run(capsys, "parity", "0", "1", "2")
        assert code == 0
        assert out.splitlines()[-1].startswith("time:")


class TestVerify:
    def test_okada(self, capsys):
        code, out = run(
            capsys,
            "verify",
            "okada",
            "--rows",
            "5",
            "--cols",
            "4",
            "--samples",
            "60",
            "--no-timing",
        )
        assert code == 0
        assert out.startswith("PASS okada Pfaffian identity: 60 samples")
        assert "odd-column" in out and "even-column" in out

    def test_identities(self, capsys):
        code, out = run(
            capsys, "verify", "identities", "--max-k", "4", "--no-timing"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS duality reverses composition")
        assert lines[1].startswith("PASS cyclic factorization")

    def test_forms(self, capsys):
        code, out = run(
            capsys, "verify", "forms", "--n", "2", "--h", "1", "--no-timing"
        )
        assert code == 0
        assert out.count("PASS") == 3

    def test_forms_verify_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forms-verify", "--n", "2", "--h", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'forms-verify'" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        args = (
            "verify",
            "okada",
            "--rows",
            "4",
            "--cols",
            "3",
            "--samples",
            "40",
            "--no-timing",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "identities", "--max-k", "3", "--threads", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--rows", "99"],
            ["okada", "--max-k", "0"],
            ["forms", "--samples", "10"],
            ["okada", "--n", "2"],
            ["identities", "--h", "2"],
        ],
    )
    def test_flag_of_another_suite_rejected(self, capsys, argv):
        # each suite takes only its own flags
        flag, value = argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, "--no-timing"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("h", ["0", "4", "5"])
    def test_forms_h_outside_its_limit_is_an_input_error(self, capsys, h):
        code, out = run(capsys, "verify", "forms", "--n", "1", "--h", h, "--no-timing")
        assert code == 2
        assert out == f"input error: --h must be between 1 and 3, got {h}\n"

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["okada"], "verify_okada.txt"),
            (["identities"], "verify_identities.txt"),
            (["forms"], "verify_forms.txt"),
            (["forms", "--n", "5", "--h", "3"], "verify_forms_n5_h3.txt"),
        ],
    )
    def test_report_matches_golden(self, capsys, argv, golden):
        code, out = run(capsys, "verify", *argv, "--no-timing")
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class TestExtractAndChern:
    def test_hopf_pipeline(self, capsys, tmp_path, hopf_path):
        out_path = tmp_path / "dec.json"
        code, out = run(
            capsys,
            "extract",
            "--bundle",
            str(hopf_path),
            "--out",
            str(out_path),
            "--no-timing",
        )
        assert code == 0
        assert "bundle validation: PASS" in out
        assert "round-trip validation: PASS" in out
        assert out_path.exists()

        code, out = run(
            capsys,
            "chern",
            "--decoration",
            str(out_path),
            "--h",
            "1",
            "--no-timing",
        )
        assert code == 0
        last = out.splitlines()[-1]
        assert last in ("c1 = 1", "c1 = -1")

    def test_trivial_bundle_chern_zero(self, capsys, tmp_path):
        bundle_path = tmp_path / "trivial.json"
        save_bundle(product_bundle(tetra_boundary(), 3), bundle_path)
        out_path = tmp_path / "dec.json"
        code, _ = run(
            capsys,
            "extract",
            "--bundle",
            str(bundle_path),
            "--out",
            str(out_path),
            "--no-timing",
        )
        assert code == 0
        code, out = run(
            capsys, "chern", "--decoration", str(out_path), "--no-timing"
        )
        assert code == 0
        assert out.splitlines()[-1] == "c1 = 0"

    def test_corrupt_bundle_fails_with_witness(self, capsys, tmp_path):
        data = packaged_data("hopf_bundle.json")
        data["vertex_map"][5] = 0
        path = tmp_path / "corrupt.json"
        save_json(data, path)
        code, out = run(
            capsys,
            "extract",
            "--bundle",
            str(path),
            "--out",
            str(tmp_path / "never.json"),
            "--no-timing",
        )
        assert code == 1
        assert "bundle validation: FAIL" in out
        assert "[" in out  # witness issue codes
        assert not (tmp_path / "never.json").exists()

    def test_long_fibers(self, capsys, tmp_path):
        # 120**3 proper subwords per triangle word, beyond the budget
        bundle_path = tmp_path / "long.json"
        save_bundle(product_bundle(tetra_boundary(), 120), bundle_path)
        dec_path = tmp_path / "dec.json"
        code, _ = run(
            capsys,
            "extract",
            "--bundle",
            str(bundle_path),
            "--out",
            str(dec_path),
            "--no-timing",
        )
        assert code == 0
        code, out = run(
            capsys, "chern", "--decoration", str(dec_path), "--no-timing"
        )
        assert code == 0
        assert out.splitlines()[-1] == "c1 = 0"

    def test_missing_bundle_file(self, capsys, tmp_path):
        code, out = run(
            capsys,
            "extract",
            "--bundle",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "out.json"),
            "--no-timing",
        )
        assert code == 2
        assert out.startswith("input error:")

    def test_explicit_cycle_file(self, capsys, tmp_path):
        bundle_path = tmp_path / "trivial.json"
        save_bundle(product_bundle(tetra_boundary(), 3), bundle_path)
        dec_path = tmp_path / "dec.json"
        run(
            capsys,
            "extract",
            "--bundle",
            str(bundle_path),
            "--out",
            str(dec_path),
            "--no-timing",
        )
        fc = fundamental_cycle(tetra_boundary())
        cycle_path = tmp_path / "cycle.json"
        save_json({"v": 1, "coefficients": list(fc.coefficients)}, cycle_path)
        code, out = run(
            capsys,
            "chern",
            "--decoration",
            str(dec_path),
            "--cycle",
            str(cycle_path),
            "--no-timing",
        )
        assert code == 0
        assert out.splitlines()[-1] == "c1 = 0"

    @pytest.mark.parametrize(
        "extra",
        [
            {"v": True},
            {"v": 1.0},
            {"v": "1"},
            {"base": None},
            {"coefficients": [-1, True, -1, True]},
            {"coefficients": [-1.0, 1, -1, 1]},
            {"coefficients": None},
        ],
        ids=[
            "bool-version",
            "float-version",
            "string-version",
            "unknown-key",
            "bool-coefficients",
            "float-coefficients",
            "no-coefficient-list",
        ],
    )
    def test_malformed_cycle_file_is_input_error(self, tmp_path, extra):
        dec_path = tmp_path / "dec.json"
        save_json(decoration_to_data(extract_decoration(trivial_bundle())), dec_path)
        coefficients = list(fundamental_cycle(tetra_boundary()).coefficients)
        cycle_path = tmp_path / "cycle.json"
        save_json({"v": 1, "coefficients": coefficients, **extra}, cycle_path)
        proc = subprocess.run(
            [sys.executable, "-m", "necklace_chern.cli", "chern",
             "--decoration", str(dec_path), "--cycle", str(cycle_path),
             "--no-timing"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout.splitlines()[-1].startswith("input error: cycle file")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("name, c1", [("hopf", 1), ("trivial", 0)])
    def test_cycle_file_must_be_a_cycle(self, capsys, tmp_path, name, c1):
        dec = GOLDEN / f"{name}_decoration.json"
        fc = fundamental_cycle(load_decoration(dec).base).coefficients
        cycle = tmp_path / "cycle.json"
        passed = []
        for signs in itertools.product((1, -1), repeat=len(fc)):
            save_json({"v": 1, "coefficients": list(signs)}, cycle)
            code, out = run(
                capsys, "chern", "--decoration", str(dec), "--cycle", str(cycle),
                "--no-timing",
            )
            if code == 0:
                passed.append(signs)
                sign = 1 if signs == fc else -1
                assert out.splitlines()[-1] == f"c1 = {sign * c1}"
            else:
                assert code == 2
                assert re.fullmatch(
                    r"input error: cycle file coefficients are not a cycle: "
                    r"their boundary is -?2 on edge \(\d, \d\)",
                    out.splitlines()[-1],
                )
        assert sorted(passed) == sorted([fc, tuple(-c for c in fc)])

    def test_higher_power_prints_cochain_only(self, capsys, tmp_path):
        bundle_path = tmp_path / "trivial.json"
        save_bundle(product_bundle(tetra_boundary(), 3), bundle_path)
        dec_path = tmp_path / "dec.json"
        run(
            capsys,
            "extract",
            "--bundle",
            str(bundle_path),
            "--out",
            str(dec_path),
            "--no-timing",
        )
        code, out = run(
            capsys,
            "chern",
            "--decoration",
            str(dec_path),
            "--h",
            "2",
            "--no-timing",
        )
        assert code == 0
        assert "c1 =" not in out

    def test_unknown_shift_key_is_input_error(self, tmp_path):
        data = decoration_to_data(extract_decoration(trivial_bundle()))
        data["shifts"]["99/0"] = 0
        path = tmp_path / "dec.json"
        save_json(data, path)
        proc = subprocess.run(
            [sys.executable, "-m", "necklace_chern.cli", "chern",
             "--decoration", str(path), "--no-timing"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith("input error: shift key '99/0'")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["01", " 2"])
    def test_noncanonical_fiber_key_is_input_error(self, tmp_path, key):
        data = packaged_data("trivial_bundle.json")
        data["fiber_orientation"][key] = data["fiber_orientation"]["0"]
        path = tmp_path / "bundle.json"
        save_json(data, path)
        proc = subprocess.run(
            [sys.executable, "-m", "necklace_chern.cli", "extract",
             "--bundle", str(path), "--out", str(tmp_path / "dec.json"),
             "--no-timing"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith(
            f"input error: fiber_orientation key {key!r}"
        )
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "dec.json").exists()


class TestRange:
    def test_tetra_boundary(self, capsys, base_path):
        code, out = run(
            capsys,
            "range",
            "--base",
            str(base_path),
            "--max-len",
            "3",
            "--no-timing",
        )
        assert code == 0
        assert out.strip() == "{-2,-1,0,1,2}"

    def test_budget_env_var(self, capsys, base_path, monkeypatch):
        monkeypatch.setenv("NECKLACE_MAX_CANDIDATES", "1")
        code, out = run(
            capsys,
            "range",
            "--base",
            str(base_path),
            "--max-len",
            "3",
            "--no-timing",
        )
        assert code == 3
        assert out.startswith("resource bound exceeded:")

    def test_budget_env_var_at_long_words(self, capsys, tmp_path, monkeypatch):
        # the seven-vertex torus has tens of thousands of fiber-length
        # vectors at this length; the bound must hit on the first
        tris = []
        for i in range(7):
            tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
            tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
        path = tmp_path / "torus.json"
        save_complex(LocallyOrderedComplex.from_maximal(7, tris), path)
        monkeypatch.setenv("NECKLACE_MAX_CANDIDATES", "10")
        code, out = run(
            capsys,
            "range",
            "--base",
            str(path),
            "--max-len",
            "14",
            "--no-timing",
        )
        assert code == 3
        assert out.startswith("resource bound exceeded:")

    def test_budget_env_var_on_a_deep_base(self, capsys, tmp_path, monkeypatch):
        # more triangles than the recursion limit: exit 3, not a traceback
        path = tmp_path / "grid.json"
        save_complex(grid_torus(math.isqrt(sys.getrecursionlimit()) + 1), path)
        monkeypatch.setenv("NECKLACE_MAX_CANDIDATES", "10000")
        code, out = run(
            capsys, "range", "--base", str(path), "--max-len", "3", "--no-timing"
        )
        assert code == 3
        assert out.startswith("resource bound exceeded:")

    def test_open_surface_is_input_error(self, capsys, tmp_path):
        disk = LocallyOrderedComplex.from_maximal(3, [(0, 1, 2)])
        path = tmp_path / "disk.json"
        save_complex(disk, path)
        code, out = run(
            capsys,
            "range",
            "--base",
            str(path),
            "--max-len",
            "3",
            "--no-timing",
        )
        assert code == 2
        assert out.startswith("input error:")


class TestGoldenCorpus:
    """--no-timing reports on the packaged corpus, byte for byte as the
    files under tests/golden record them."""

    @pytest.mark.parametrize("name", ["hopf", "trivial"])
    def test_extract_then_chern(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        dec = f"{name}_decoration.json"
        bundle = DATA / f"{name}_bundle.json"
        code, out = run(
            capsys, "extract", "--bundle", str(bundle), "--out", dec, "--no-timing"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}_extract.txt").read_bytes()
        assert (tmp_path / dec).read_bytes() == (GOLDEN / dec).read_bytes()
        for h in ("1", "0"):
            code, out = run(
                capsys, "chern", "--decoration", dec, "--h", h, "--no-timing"
            )
            assert code == 0
            assert out.encode() == (GOLDEN / f"{name}_chern_h{h}.txt").read_bytes()

    def test_extract_on_a_corrupted_bundle(self, capsys, tmp_path, monkeypatch):
        # the Hopf bundle with the stray simplex (3, 6, 7, 11) added
        monkeypatch.chdir(tmp_path)
        bundle = GOLDEN / "hopf_bundle_stray_simplex.json"
        code, out = run(
            capsys, "extract", "--bundle", str(bundle), "--out", "dec.json", "--no-timing"
        )
        assert code == 1
        assert out.encode() == (GOLDEN / "hopf_stray_simplex_extract.txt").read_bytes()
        assert not (tmp_path / "dec.json").exists()

    def test_chern_on_a_corrupted_decoration(self, capsys):
        # case CLI_CASE of tests/corrupted_decorations.py: one edge shift
        # changed, so two face pairs fail
        dec = GOLDEN / "corrupted_decoration.json"
        code, out = run(capsys, "chern", "--decoration", str(dec), "--no-timing")
        assert code == 1
        assert out.encode() == (GOLDEN / "corrupted_decoration_chern.txt").read_bytes()

    def test_extract_to_a_missing_directory(self, capsys, tmp_path):
        # an input error, exit 2 with one line, after the words are printed
        out_path = tmp_path / "missing" / "x.json"
        code, out = run(
            capsys, "extract", "--bundle", str(DATA / "hopf_bundle.json"),
            "--out", str(out_path), "--no-timing",
        )
        assert code == 2
        golden = (GOLDEN / "hopf_extract_unwritable.txt").read_text(encoding="utf-8")
        assert out.replace(str(tmp_path), "$PWD") == golden

    def test_extract_to_a_directory(self, capsys, tmp_path):
        code, out = run(
            capsys, "extract", "--bundle", str(DATA / "hopf_bundle.json"),
            "--out", str(tmp_path), "--no-timing",
        )
        assert code == 2
        assert out.splitlines()[-1].startswith(
            f"input error: cannot write decoration file {tmp_path}: "
        )

    def test_parity_long_word(self, capsys):
        code, out = run(capsys, "parity", *PARITY_LONG_WORD.split(), "--no-timing")
        assert code == 0
        assert out.encode() == (GOLDEN / "parity_long.txt").read_bytes()

    def test_range(self, capsys):
        base = DATA / "boundary_tetrahedron.json"
        code, out = run(
            capsys, "range", "--base", str(base), "--max-len", "4", "--no-timing"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "tetrahedron_range_4.txt").read_bytes()

    def test_range_on_the_seven_vertex_torus(self, capsys):
        base = GOLDEN / "torus7_base.json"
        code, out = run(
            capsys, "range", "--base", str(base), "--max-len", "5", "--no-timing"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "torus7_range_5.txt").read_bytes()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "necklace_chern.cli", "parity", "0", "1", "2",
         "--no-timing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "P = 1"


# =========================================================================
# Malformed files: a command exits 0, 1 or 2 and lets no exception out
# =========================================================================

# each example rewrites the same files under tmp_path
_FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_TETRA_CYCLE = {"v": 1, "coefficients": [-1, 1, -1, 1]}


def _well_formed_cycle(data):
    return (
        isinstance(data, dict)
        and set(data) == {"v", "coefficients"}
        and type(data["v"]) is int
        and data["v"] == 1
        and isinstance(data["coefficients"], list)
        and len(data["coefficients"]) == 4
        and all(type(c) is int and c in (-1, 1) for c in data["coefficients"])
    )


@_FUZZ
@given(
    (mutated_json(_TETRA_CYCLE) | json_values)
    .filter(lambda data: not _well_formed_cycle(data))
    .map(lambda data: json.dumps(data).encode())
    | st.binary(max_size=40)
)
def test_malformed_cycle_file_exits_2(capsys, tmp_path, content):
    dec = GOLDEN / "hopf_decoration.json"
    cycle = tmp_path / "cycle.json"
    cycle.write_bytes(content)
    capsys.readouterr()
    code = main(["chern", "--decoration", str(dec), "--cycle", str(cycle), "--no-timing"])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1].startswith("input error:")


@_FUZZ
@given(st.sampled_from(["hopf", "trivial"]).flatmap(
    lambda name: mutated_json(packaged_data(f"{name}_bundle.json"))
))
def test_extract_on_a_malformed_bundle_raises_nothing(tmp_path, data):
    bundle = tmp_path / "bundle.json"
    save_json(data, bundle)
    out = str(tmp_path / "dec.json")
    assert main(["extract", "--bundle", str(bundle), "--out", out, "--no-timing"]) in (0, 1, 2)


@_FUZZ
@given(st.sampled_from(["hopf", "trivial"]).flatmap(
    lambda name: mutated_json(json.loads((GOLDEN / f"{name}_decoration.json").read_text()))
))
def test_chern_on_a_malformed_decoration_raises_nothing(tmp_path, data):
    dec = tmp_path / "dec.json"
    save_json(data, dec)
    assert main(["chern", "--decoration", str(dec), "--no-timing"]) in (0, 1, 2)
