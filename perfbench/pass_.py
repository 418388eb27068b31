"""One benchmark pass in a fresh interpreter, so turantools' lru caches start cold.

    python3 pass_.py WORKLOAD PASS_SEED TRACE TINY PLANT

run.py starts this with the checkout's `src` on PYTHONPATH.  It prints
`ready` as soon as `import turantools` returns, then one JSON line with the
pass's result.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> None:
    workload, seed, trace, tiny, plant = argv
    t0 = time.perf_counter()
    import turantools  # noqa: F401  (this import is what set-up time measures)

    import_s = time.perf_counter() - t0
    print("ready", flush=True)

    import workloads

    result = workloads.run_pass(
        workload, int(seed), trace == "1", tiny == "1", plant == "1"
    )
    result["import_s"] = import_s
    # ru_maxrss is in KiB on Linux
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # _scan imports numba when it can, and then scans with the compiled kernel
    result["scanner_backend"] = "numba" if "numba" in sys.modules else "python"
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
