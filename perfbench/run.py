"""The turantools benchmark: one workload, repeated passes for a fixed time.

    python3 perfbench/run.py --workload extremal|game|partitions --seed N \
        --seconds S --trace 0|1 [--out FILE]

Run it from the root of a checkout.  Every pass starts a fresh interpreter
(pass_.py), so the lru caches of turantools start cold, as they do for every
command-line query.  The seed fixes the instance order of each pass.

With --trace 0 the last stdout line reports the end-to-end metrics: the
median of wall_s (one pass over the instance table), setup_s (spawning the
interpreter until `import turantools` returns) and peak_rss_mb.  Times are
scaled to a reference speed that a SpeedProbe measures in each pass; the
report lines also give them unscaled.  With
--trace 1 passes alternate untraced and traced, and the line reports the
per-layer metrics of the traced passes plus the tracing overhead.  Every
answer is checked; a failed instance makes the command exit 1.  --out also
writes the environment stamp, every pass and every span as JSON, for
compare.py.  --tiny and --plant-wrong exist for selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extremal", "game", "partitions")
HARD_LIMIT_S = 170  # a run must end within 180 s
# A SpeedProbe sample's time at the typical speed of the 2-core reference
# host.  Every reported time is scaled by REFERENCE_PROBE_S over the probe's
# mean in that pass, i.e. to that host at its typical speed.
REFERENCE_PROBE_S = 0.00047

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
ORACLE_KINDS = ("ex", "exa", "set", "prime", "nonbip")
PER_LAYER = {
    "import.s": "s",
    "families.placements.s": "s",
    "families.placements.count": "count",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.self_s": "s",
    "oracle.explored": "count",
    "oracle.graphs_per_s": "1/s",
    **{f"oracle.{k}.s": "s" for k in ORACLE_KINDS},
    "counting.count_copies.calls": "count",
    "counting.count_copies.us": "us",
    "game.solve.s": "s",
    "game.states": "count",
    "game.states_per_s": "1/s",
    "game.sym.s": "s",
    "game.nosym.s": "s",
    "game.replay.s": "s",
    "game.replay.queries": "count",
    "partitions.mup.calls": "count",
    "partitions.mup.s": "s",
    "partitions.series.s": "s",
    "partitions.is_unique.s": "s",
    "constructions.build.calls": "count",
    "constructions.build.s": "s",
    "zeta.s": "s",
    "trace.overhead_frac": "frac",
}
DERIVED = {"oracle.self_s", "oracle.graphs_per_s", "game.states_per_s",
           "trace.overhead_frac"}


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, tiny: bool, plant: bool,
             timeout: float) -> dict:
    """One pass in a fresh interpreter; adds setup_s as seen from here."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "pass_.py"), workload, str(seed),
           str(int(traced)), str(int(tiny)), str(int(plant))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["traced"] = traced
    return result


def speed(p: dict) -> float:
    """Factor that scales this pass's times to the reference speed."""
    return REFERENCE_PROBE_S / p["probe_mean_s"]


def wall(p: dict) -> float:
    """The pass's time over its instance table, without the probe, scaled."""
    return (p["wall_s"] - p["probe_busy_s"]) * speed(p)


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    spans = p["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    # spans hold their share of probe time; remove it on average, and scale
    k = speed(p) * (1 - p["probe_busy_s"] / p["wall_s"])

    def dur(items) -> float:
        return k * sum(s["end"] - s["start"] for s in items)

    oracle = [s for s in spans if s["name"].startswith("oracle.")]
    oracle_s = dur(oracle)
    explored = sum(s["explored"] for s in oracle)
    # what the oracle also does inside, timed apart by the benchmark
    oracle_cases = {s["case"] for s in oracle}
    helpers_s = dur(s for s in spans if s["case"] in oracle_cases and s["name"] in
                    ("families.placements", "counting.count_copies"))
    counts = by["counting.count_copies"]
    solves = by["game.solve"]
    solve_s = dur(solves)
    states = sum(s["states"] for s in solves)
    return {
        "import.s": p["import_s"] * speed(p),
        "families.placements.s": dur(by["families.placements"]),
        "families.placements.count": sum(s["count"] for s in by["families.placements"]),
        "oracle.calls": len(oracle),
        "oracle.s": oracle_s,
        "oracle.self_s": oracle_s - helpers_s if oracle else 0.0,
        "oracle.explored": explored,
        "oracle.graphs_per_s": explored / oracle_s if oracle else 0.0,
        **{f"oracle.{k}.s": dur(by[f"oracle.{k}"]) for k in ORACLE_KINDS},
        "counting.count_copies.calls": len(counts),
        "counting.count_copies.us": 1e6 * dur(counts) / len(counts) if counts else 0.0,
        "game.solve.s": solve_s,
        "game.states": states,
        "game.states_per_s": states / solve_s if solves else 0.0,
        "game.sym.s": dur(s for s in solves if s["sym"]),
        "game.nosym.s": dur(s for s in solves if not s["sym"]),
        "game.replay.s": dur(by["game.replay"]),
        "game.replay.queries": sum(s["queries"] for s in by["game.replay"]),
        "partitions.mup.calls": len(by["partitions.mup"]),
        "partitions.mup.s": dur(by["partitions.mup"]),
        "partitions.series.s": dur(by["partitions.series"]),
        "partitions.is_unique.s": dur(by["partitions.is_unique"]),
        "constructions.build.calls": len(by["constructions.build"]),
        "constructions.build.s": dur(by["constructions.build"]),
        "zeta.s": dur(by["zeta"]),
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": sys.version.split()[0],
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write env, passes and spans here")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--plant-wrong", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "turantools" / "__init__.py").is_file():
        print(f"no turantools sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    env = environment()
    rng = random.Random(args.seed)
    need = 2 if args.trace else 1  # a traced run needs one pass of each kind
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t = time.perf_counter()
        try:
            passes.append(run_pass(
                args.workload, rng.randrange(2**32), traced, args.tiny,
                args.plant_wrong, timeout=HARD_LIMIT_S - (t - start),
            ))
        except (PassError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark pass failed: {exc}", file=sys.stderr)
            return 2
        now = time.perf_counter()
        # stop when another pass like the last would overrun the time
        next_end = now - start + (now - t)
        if next_end > HARD_LIMIT_S or (len(passes) >= need and next_end > args.seconds):
            break
    if len(passes) < need:
        print("no time left for a traced pass", file=sys.stderr)
        return 2
    env["scanner_backend"] = passes[0]["scanner_backend"]
    if any(p["scanner_backend"] != env["scanner_backend"] for p in passes):
        print("scanner backend changed between passes", file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        layers = [layer_metrics(p) for p in traced]
        samples = {name: [m[name] for m in layers] for name in layers[0]}
        overhead = summary([wall(p) for p in traced])[0] / summary(
            [wall(p) for p in plain])[0] - 1
        samples["trace.overhead_frac"] = [overhead]
        units = PER_LAYER
    else:
        samples = {
            "wall_s": [wall(p) for p in plain],
            "setup_s": [p["setup_s"] * speed(p) for p in plain],
            "peak_rss_mb": [p["rss_mb"] for p in plain],
        }
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes in {time.perf_counter() - start:.1f} s")
    metrics = {}
    for name, unit in units.items():
        med, q1, q3 = summary(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        tag = " (derived)" if name in DERIVED else ""
        print(f"  {name:28s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(samples[name])}{tag}")
    raw = [summary([p[k] for p in passes])[0] for k in ("wall_s", "setup_s")]
    print(f"  unscaled medians: wall_s {raw[0]:.6g} s, setup_s {raw[1]:.6g} s; "
          f"speed factor {summary([speed(p) for p in passes])[0]:.4g}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ({failed}/{attempted} instances)")
    for p in passes:
        for line in p["failures"]:
            print(f"  FAILED {line}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
            "passes": passes,
        }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
