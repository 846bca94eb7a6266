"""The repository benchmark's command line.

    python3 perfbench/run.py --workload cmp16_sweep --seed 1 --seconds 30 --trace 0

makes reps of the workload for about ``--seconds`` and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer breakdown of
one traced rep (also written as a Chrome trace under ``perfbench/out/``).
The line before it records the commit, CPU count, Python version,
calibration loop and sample counts.

``--record-digests`` re-records ``perfbench/digests.json``, the result
digests the default seed must reproduce.  See ``perfbench/README.md``.
"""

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", help="cmp16_sweep, cmp64_shards2 or "
                        "service_store")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print(f"error: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    os.chdir(ROOT)  # daemon socket paths are relative to the root
    # A terminated run still stops its daemon and shard workers and
    # deletes its scratch directory (the ``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    from perfbench import driver, workloads

    if args.record_digests:
        return driver.record_digests()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return driver.run(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
