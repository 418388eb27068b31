"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks the
output contract: every metric named in BENCHMARK.json is printed with its
unit, layers a workload does not use read zero, and no instance fails.  Then
it plants a wrong expected value and checks that the run fails.  Takes about
half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# layers each workload leaves alone
UNUSED = {
    "extremal": ("game.",),
    "game": ("oracle.",),
    "partitions": ("oracle.", "game."),
}


def bench(*args: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--tiny", *args],
        capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last), proc.stdout


def check_run(workload: str, trace: int) -> None:
    code, out, text = bench("--workload", workload, "--seed", "7", "--trace", str(trace))
    assert code == 0, text
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
        assert f"{m['name']} " in text and f" {m['unit']} " in text
        if trace and m["name"].startswith(UNUSED[workload]):
            assert got["value"] == 0, (workload, m["name"], got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    assert "failed_frac" in text


def check_planted_failure() -> None:
    code, out, text = bench("--workload", "extremal", "--seed", "7", "--trace", "0",
                            "--plant-wrong")
    assert code == 1, text
    assert not out["correct"] and out["failed"] >= 1, out
    assert "FAILED" in text


def main() -> None:
    for workload in UNUSED:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}")
    check_planted_failure()
    print("ok planted wrong value fails the run")


if __name__ == "__main__":
    main()
