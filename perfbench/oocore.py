"""``oocore-sweep``: the streaming backend over an on-disk CSR container.

Set-up writes the container into a private dataset cache; each
operation is one fresh child process that opens it and sweeps seeded
sources with two pool workers.  An operation's wall time runs from spawn
to exit; its peak RSS and CPU time cover the pool workers it reaped.
Each operation is followed by one run of the fixed reference computation
``child.py reference-sweep``, and ``op_cpu_ref`` is the median over the run
of the operation's CPU time over the reference's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import common
import fold
from result import Result

#: Walk lengths of Figure 3 — the sweep each operation runs.
FIG3_WALKS = (1, 5, 10, 20, 40)
DATASET = "livejournal_a"
SOURCES = 48
BUDGET = 1 << 20
WORKERS = 2


class OocoreSweep:
    name = "oocore-sweep"
    #: Timed set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int, work: common.Workdir, traced: bool) -> None:
        self.seed = seed
        self.work = work
        if traced:
            self.setup_repeats = 1
        self.setup_times = []
        self.cache = None
        self.home = work.fresh("home")

    def setup(self):
        """Populate a fresh private cache and write the container; repeated."""
        for _ in range(self.setup_repeats):
            cache = self.work.fresh("cache")
            argv = common.python_child(
                "populate", "--names", DATASET, "--csr", f"{DATASET}={cache / 'graph.csr'}"
            )
            child = common.run_child(
                argv, common.child_env(cache, self.home), self.work.fresh("setup")
            )
            if child.returncode != 0:
                raise RuntimeError(f"{self.name} set-up failed:\n{child.stderr}")
            self.setup_times.append(child.wall_s)
            self.cache = cache
        self._oracle()

    def _oracle(self):
        """Untimed: seeded sources and the in-memory serial numpy oracle."""
        from repro.core.mixing import measure_mixing
        from repro.graph import load_npz

        graph = load_npz(self.cache / f"{DATASET}-default.npz")
        rng = np.random.default_rng(self.seed)
        sources = np.sort(rng.choice(graph.num_nodes, SOURCES, replace=False))
        self.sources_path = self.work.path / "sources.npy"
        np.save(self.sources_path, sources)
        self.oracle = measure_mixing(graph, FIG3_WALKS, sources=sources).distances

    def close(self):
        """Nothing outlives an operation's child process."""

    def _command(self, run_dir, trace_dir=None):
        head = () if trace_dir is None else ("--trace-dir", trace_dir)
        return common.python_child(
            *head, "oocore",
            "--container", self.cache / "graph.csr",
            "--sources", self.sources_path,
            "--walks", ",".join(map(str, FIG3_WALKS)),
            "--budget", BUDGET,
            "--workers", WORKERS,
            "--out", run_dir / "distances.npy",
        )

    def _check(self, run_dir) -> bool:
        got = np.load(run_dir / "distances.npy")
        # Bit-identical, not close: the streaming backend and the pool
        # promise the numpy oracle's exact bits.
        return got.shape == self.oracle.shape and bool(
            np.array_equal(got.view(np.uint64), self.oracle.view(np.uint64))
        )

    def invoke(self, trace_dir=None):
        """One operation: returns ``(child, verdict)``, verdict ``ok``, ``exit`` or ``wrong``."""
        run_dir = self.work.fresh("run")
        before = sorted(p.name for p in self.cache.iterdir())
        child = common.run_child(
            self._command(run_dir, trace_dir), common.child_env(self.cache, self.home), run_dir
        )
        after = sorted(p.name for p in self.cache.iterdir())
        if after != before:
            # The run generated a dataset set-up should have provided.
            raise RuntimeError(f"{self.name} run wrote to the dataset cache: {after}")
        if child.returncode != 0:
            return child, "exit"
        return child, "ok" if self._check(run_dir) else "wrong"

    def measure(self, seconds: float, min_reps: int = 2) -> Result:
        """Invoke, each time followed by the reference computation, until
        ``seconds`` are spent (to the nearest half pair)."""
        result = Result(self.name)
        children = []
        references = []
        spent = []
        while len(spent) < min_reps or sum(spent) + statistics.mean(spent) / 2 < seconds:
            start = time.perf_counter()
            child, verdict = self.invoke()
            result.count(verdict)
            children.append(child)
            references.append(common.reference_sweep_cpu_s(self.work.fresh("reference")))
            spent.append(time.perf_counter() - start)
        walls = [c.wall_s for c in children]
        good = sum(1 for ok in result.outcomes if ok)
        result.metric("setup_s", statistics.median(self.setup_times))
        result.metric("op_cpu_ref", statistics.median(
            c.cpu_s / ref for c, ref in zip(children, references)
        ))
        result.metric("peak_rss_mb", max(c.peak_rss_mb for c in children))
        result.metric("wall_s", statistics.median(walls))
        result.metric("op_cpu_ms", 1000.0 * statistics.median(c.cpu_s for c in children))
        result.metric("goodput_rps", good / sum(walls))
        result.detail["samples"] = len(walls)
        result.detail["walls_s"] = walls
        result.detail["cpu_s"] = [c.cpu_s for c in children]
        result.detail["reference_cpu_s"] = references
        result.detail["setup_times_s"] = self.setup_times
        return result

    def trace(self, seconds) -> Result:
        """One untraced and one traced invocation; per-layer numbers from the latter."""
        result = Result(self.name)
        plain, verdict = self.invoke()
        result.count(verdict)
        trace_dir = self.work.fresh("trace")
        traced, verdict = self.invoke(trace_dir)
        result.count(verdict)
        folded = fold.Folded(fold.load_traces(trace_dir))
        result.layers(folded)
        result.attribution(traced.wall_s, folded.main_self_s)
        result.metric("trace.overhead_s", traced.wall_s - plain.wall_s)
        return result
