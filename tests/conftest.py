"""Let the CLI subprocesses started by the tests import the package under test.

pytest puts `src` on its own sys.path (see pyproject.toml); child interpreters
get it through PYTHONPATH.
"""

import os
from pathlib import Path

import turantools

_SRC = str(Path(turantools.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
