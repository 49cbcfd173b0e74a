"""Each command, run in a fresh interpreter, loads only the package modules
it uses.

In-process tests cannot see this: by the time they run, earlier tests have
imported every module, so a missing import or an import-order fault would
pass.  Here every case starts a new interpreter without bytecode caching,
runs one command through ``necklace_chern.cli.main``, and reports the
``necklace_chern`` modules left in ``sys.modules``, and ``dataclasses`` or
``inspect`` if either was loaded: no command needs them, and importing
them costs a cold process more than most commands compute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import necklace_chern
from conftest import PARITY_LONG_WORD

DATA = Path(necklace_chern.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

_PROBE = """\
import sys
import necklace_chern.cli
code = necklace_chern.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
watched = ("necklace_chern", "dataclasses", "inspect")
print(*sorted(m for m in sys.modules if m.split(".")[0] in watched),
      file=sys.stderr)
sys.exit(code)
"""

CLI = {"necklace_chern", "necklace_chern.cli", "necklace_chern.errors"}
LINALG = {"necklace_chern._frozen", "necklace_chern.exact_linalg"}
WORDS = LINALG | {"necklace_chern.words_necklaces"}
DECORATIONS = WORDS | {
    "necklace_chern.complexes",
    "necklace_chern.cyclic_category",
    "necklace_chern.decorations",
    "necklace_chern.serialize",
}
CHERN = DECORATIONS | {"necklace_chern.chern"}
BUNDLES = DECORATIONS | {"necklace_chern.bundles"}

# (argv, package modules beyond CLI, golden stdout file or None)
CASES = {
    "import-only": ([], set(), None),
    "parity": (["parity", "0", "1", "2", "0"], WORDS, None),
    "parity-long": (["parity", *PARITY_LONG_WORD.split()], WORDS, "parity_long.txt"),
    "extract": (
        ["extract", "--bundle", str(DATA / "hopf_bundle.json"),
         "--out", "hopf_decoration.json"],
        BUNDLES,
        "hopf_extract.txt",
    ),
    "chern": (
        ["chern", "--decoration", str(GOLDEN / "hopf_decoration.json")],
        CHERN,
        "hopf_chern_h1.txt",
    ),
    "range": (
        ["range", "--base", str(DATA / "boundary_tetrahedron.json"), "--max-len", "4"],
        CHERN,
        "tetrahedron_range_4.txt",
    ),
    "verify-okada": (["verify", "okada", "--samples", "20"], LINALG, None),
    "verify-identities": (
        ["verify", "identities", "--max-k", "3"],
        WORDS | {"necklace_chern.cyclic_category"},
        None,
    ),
    "verify-forms": (
        ["verify", "forms", "--n", "2", "--h", "1"],
        WORDS | {"necklace_chern.cyclic_forms"},
        None,
    ),
}


def cold_run(argv, cwd):
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(Path(necklace_chern.__file__).parent.parent),
    )
    return subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_process_loads_only_what_the_command_uses(tmp_path, case):
    argv, extra, golden = CASES[case]
    if argv:
        argv = argv + ["--no-timing"]
    proc = cold_run(argv, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = set(proc.stderr.split())
    assert not loaded & {"dataclasses", "inspect"}
    assert loaded == CLI | extra
    if golden is not None:
        assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")

