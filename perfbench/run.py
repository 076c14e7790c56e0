"""The repository benchmark: one command, two workloads.

Run from the checkout root::

    python3 perfbench/run.py --workload oocore-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` from
untraced runs; ``--trace 1`` prints every per-layer metric from a run
whose child processes record spans (``tracer.py``).  Workloads:
``oocore-sweep`` and ``service-mixed`` (RATIONALE.json says why these
two, and why ``table1`` and ``fig5`` are not run).  The last line of standard
output is the result object; the line before it is the full record
(machine facts, samples, failure causes).
"""

from __future__ import annotations

import argparse
import json
import sys

import common

def _workloads():
    import oocore
    import service

    return {
        "oocore-sweep": oocore.OocoreSweep,
        "service-mixed": service.ServiceMixed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.check_checkout()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads)}", file=sys.stderr)
        return 2
    work = common.Workdir(args.workload)
    workload = workloads[args.workload](args.seed, work, traced=bool(args.trace))
    steal_s = common.host_steal_s()
    try:
        workload.setup()
        result = workload.trace(args.seconds) if args.trace else workload.measure(args.seconds)
    finally:
        workload.close()
        work.close()
    result.finish_errors()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": common.machine_facts(),
        # The host's own load, for reading the times: CPU it took away.
        "host_steal_s": common.host_steal_s() - steal_s,
        "causes": dict(result.causes),
        "values": result.values,
        "detail": result.detail,
    }
    print("record " + json.dumps(record, sort_keys=True))
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result.output(spec[key], layered=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
