"""Fold recorded spans into per-layer self time.

A span's self time is its duration minus the time its direct children
cover.  Spans of one thread nest strictly (they are recorded on a call
stack), so the children of a span never overlap each other and the
subtraction is exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


def load_traces(trace_dir):
    """Every process file written by ``tracer.dump`` under ``trace_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("spans-*.json"))]


def thread_self_times(spans):
    """``[(name, duration, self_time, parent, rid, amount), ...]`` for one thread.

    ``spans`` rows are ``[name, start, end, parent_index, rid, amount]``;
    spans still open when the process ended (``end`` is ``None``) are
    dropped, and their children are kept.
    """
    covered = defaultdict(float)
    for name, start, end, parent, rid, amount in spans:
        if end is not None and parent >= 0:
            covered[parent] += end - start
    out = []
    for i, (name, start, end, parent, rid, amount) in enumerate(spans):
        if end is None:
            continue
        duration = end - start
        out.append((name, duration, duration - covered[i], parent, rid, amount))
    return out


class Folded:
    """Per-layer totals over every process and thread of one traced run."""

    def __init__(self, processes):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.amount = defaultdict(float)
        self.counters = defaultdict(float)
        #: Self time per layer in the main process only (pool workers run
        #: beside it, so their time is not part of its wall).
        self.main_self_s = defaultdict(float)
        #: Self time per layer in spans serving a tagged request.
        self.request_self_s = defaultdict(float)
        #: ``rid -> seconds`` of the server-side ``service.request`` span.
        self.request_s = defaultdict(float)
        for proc in processes:
            for name, value in proc["counters"].items():
                self.counters[name] += value
            for spans in proc["threads"].values():
                for name, duration, own, parent, rid, amount in thread_self_times(spans):
                    self.calls[name] += 1
                    self.self_s[name] += own
                    if amount is not None:
                        self.amount[name] += amount
                    if proc["main"]:
                        self.main_self_s[name] += own
                    if rid is not None:
                        self.request_self_s[name] += own
                    if name == "service.request" and rid is not None:
                        self.request_s[rid] += duration
