"""Compare the results of two benchmark runs written with run.py --out.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's value in both runs and the change as a share of the
base, marking end-to-end metrics that worsened beyond their bound in
BENCHMARK.json.  Refuses (exit 2) to compare runs of different workloads or
runs whose scanner backend differs, since a numba run and a pure-Python run
time different code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} {base[key]!r} vs {new[key]!r}", file=sys.stderr)
            return 2
    if base["env"]["scanner_backend"] != new["env"]["scanner_backend"]:
        print("refusing to compare: scanner backend "
              f"{base['env']['scanner_backend']} vs {new['env']['scanner_backend']}",
              file=sys.stderr)
        return 2
    for key in ("python", "nproc", "git_commit"):
        print(f"{key}: {base['env'][key]} -> {new['env'][key]}")
    for name, b in base["metrics"].items():
        nv, bv = new["metrics"][name]["value"], b["value"]
        change = (nv - bv) / bv if bv else 0.0
        flag = ""
        spec = BOUNDS.get(name)
        if spec:
            worse = change if spec["better"] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > spec["bound"] else ""
        print(f"{name:28s} {bv:12.6g} -> {nv:12.6g} {b['unit']:6s} {change:+.1%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
