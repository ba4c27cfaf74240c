"""Set-up as a fresh interpreter pays it: import the CLI, validate the inputs.

Usage: ``python3 perfbench/setup_probe.py <checkout> <document>...``.
Prints one JSON object mapping each document to its validation errors.
``run.py`` times this process from spawn to exit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(root: str, *documents: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    from symptower.cli import validate_spec

    errors = {doc: list(validate_spec(doc).errors) for doc in documents}
    print(json.dumps(errors))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
