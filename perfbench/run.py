"""voltacell benchmark entry point.

    python3 perfbench/run.py --workload desk_discharge --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The lines
before it repeat every metric with its unit and sample count, and the
correctness verdict of every run.  A fuller record (environment, per-run
outcomes) goes to .perfbench/results/, and traced runs also leave their spans
there.  --smoke runs every workload for one loaded step, traced and untraced,
and checks that each metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# BLAS/OpenMP pools must be sized before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _smoke() -> int:
    from perfbench.bench import measure
    from perfbench.workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise AssertionError("BENCHMARK.json and workloads.py list different "
                             "workloads")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record = measure(ROOT, name, seed=0, seconds=0.0, trace=bool(trace),
                             steps=1)
            emitted = record["result"]["metrics"]
            for metric in spec[key]:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    raise AssertionError(
                        f"{name} trace={trace}: metric {metric['name']} "
                        f"[{metric['unit']}] not emitted as named, got {got}")
            if not record["result"]["correct"]:
                raise AssertionError(f"{name} trace={trace}: incorrect run\n"
                                     + "\n".join(record["lines"]))
            print(f"smoke {name} trace={trace}: {len(emitted)} metrics ok, "
                  f"{record['result']['failed']} of "
                  f"{record['result']['attempted']} runs failed", flush=True)
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "voltacell", "driver.py")):
        print(f"error: no voltacell sources under {ROOT}/src; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import logging
    logging.getLogger("voltacell").setLevel(logging.WARNING)

    if args.smoke:
        return _smoke()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    from perfbench.bench import measure
    record = measure(ROOT, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    for line in record["lines"]:
        print(line)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
