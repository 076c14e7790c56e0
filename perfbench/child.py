"""Child-process entry points of the benchmark.

Run with ``PYTHONPATH=src`` from the checkout root::

    python perfbench/child.py [--trace-dir DIR] cli serve --port 0
    python perfbench/child.py populate --names physics1,facebook [--csr NAME=PATH]
    python perfbench/child.py [--trace-dir DIR] oocore --container P --sources F \\
        --walks 1,5,10,20,40 --budget 1048576 --workers 2 --out distances.npy
    python perfbench/child.py reference-sweep
    python perfbench/child.py reference-requests --seconds 42

``--trace-dir`` installs the span recorder (``tracer.py``) before the
program runs; without it the child is the plain program.
"""

from __future__ import annotations

import argparse
import sys


def _populate(args) -> int:
    """Fill ``REPRO_CACHE_DIR`` with the named stand-ins, then write containers."""
    from repro.datasets import load_cached
    from repro.graph.storage import save_csr

    for name in filter(None, args.names.split(",")):
        load_cached(name)
    for item in args.csr:
        name, path = item.split("=", 1)
        save_csr(load_cached(name), path)
    return 0


def _oocore(args) -> int:
    """One out-of-core sweep: open the container, measure, save distances."""
    import numpy as np

    from repro.core.mixing import measure_mixing
    from repro.core.runtime import ExecutionPolicy
    from repro.graph.storage import open_csr

    graph = open_csr(args.container)
    sources = np.load(args.sources)
    walks = [int(w) for w in args.walks.split(",")]
    policy = ExecutionPolicy(
        backend="streaming", memory_budget=args.budget, workers=args.workers
    )
    result = measure_mixing(graph, walks, sources=sources, policy=policy)
    np.save(args.out, result.distances)
    return 0


# The reference computations: fixed work the program has no part in,
# timed beside the program so that its CPU time can be read against the
# machine's speed at that moment.  Each has the libraries and the shape of
# one workload's operation.

#: ``reference-sweep``, beside oocore-sweep: a 10k-node graph with 260k
#: edges, 48 sources in two shards, walks to 40.
SWEEP_SHAPE = dict(nodes=10_000, arcs=520_000, columns=24, steps=40, shards=2)

#: ``reference-requests``, beside service-mixed: small JSON requests, each
#: a few sparse vector steps on a 4k-node graph answered with a JSON reply,
#: in bursts through the whole load phase.
REQUESTS_SHAPE = dict(nodes=4_000, arcs=80_000, steps=10, burst=100, every_s=2.0)


def _random_matrix(rng, nodes, arcs):
    import scipy.sparse as sp

    return sp.csr_matrix(
        (rng.random(arcs), (rng.integers(0, nodes, arcs), rng.integers(0, nodes, arcs))),
        shape=(nodes, nodes),
    )


def _sweep_shard(shard: int) -> None:
    import numpy as np

    shape = SWEEP_SHAPE
    rng = np.random.default_rng(shard)
    matrix = _random_matrix(rng, shape["nodes"], shape["arcs"])
    block = rng.random((shape["nodes"], shape["columns"]))
    for _ in range(shape["steps"]):
        block = matrix.T @ block
        block /= block.sum(axis=0)


def _reference_sweep(args) -> int:
    """Forked shards, as the operation's pool has; its CPU is read by wait4."""
    import os

    pids = []
    for shard in range(SWEEP_SHAPE["shards"]):
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _sweep_shard(shard)
                code = 0
            finally:
                os._exit(code)
        pids.append(pid)
    return max(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids)


def _reference_requests(args) -> int:
    """Bursts of requests every ``every_s`` for ``--seconds``, alongside the
    load; prints the CPU seconds per request, start-up excluded."""
    import hashlib
    import json
    import time

    import numpy as np

    shape = REQUESTS_SHAPE
    n = shape["nodes"]
    matrix = _random_matrix(np.random.default_rng(0), n, shape["arcs"]).T.tocsr()
    bursts = max(1, round(args.seconds / shape["every_s"]))
    start = time.monotonic()
    cpu = 0.0
    for burst in range(bursts):
        before = time.process_time()
        for i in range(burst * shape["burst"], (burst + 1) * shape["burst"]):
            text = json.dumps({"type": "mixing_time", "dataset": "reference",
                               "sources": [i * 7919 % n], "walk_lengths": [1, 5, 10]})
            query = json.loads(text)
            key = hashlib.sha256(text.encode()).hexdigest()
            x = np.zeros(n)
            x[query["sources"][0]] = 1.0
            for _ in range(shape["steps"]):
                x = matrix @ x
            json.dumps({"key": key, "distances": x[:32].tolist()})
        cpu += time.process_time() - before
        time.sleep(max(0.0, start + (burst + 1) * shape["every_s"] - time.monotonic()))
    print(cpu / (bursts * shape["burst"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("--trace-dir", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    pop = sub.add_parser("populate")
    pop.add_argument("--names", default="")
    pop.add_argument("--csr", action="append", default=[])
    oo = sub.add_parser("oocore")
    oo.add_argument("--container", required=True)
    oo.add_argument("--sources", required=True)
    oo.add_argument("--walks", required=True)
    oo.add_argument("--budget", type=int, required=True)
    oo.add_argument("--workers", type=int, required=True)
    oo.add_argument("--out", required=True)
    sub.add_parser("reference-sweep")
    req = sub.add_parser("reference-requests")
    req.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.trace_dir is not None:
        import tracer

        tracer.install(args.trace_dir)
    if args.mode == "populate":
        return _populate(args)
    if args.mode == "oocore":
        return _oocore(args)
    if args.mode == "reference-sweep":
        return _reference_sweep(args)
    if args.mode == "reference-requests":
        return _reference_requests(args)
    from repro.cli import main as cli_main

    return cli_main(args.argv)


if __name__ == "__main__":
    sys.exit(main())
