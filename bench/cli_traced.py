"""Run the necklace-chern command line with every library call traced.

Usage: python3 bench/cli_traced.py SPANS_JSON ARGUMENT...

The arguments go to ``necklace_chern.cli.main`` unchanged; the spans of
the whole command are written to SPANS_JSON when it ends.  The traced
cli-corpus run starts this in place of ``python -m necklace_chern.cli``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    from necklace_chern import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
