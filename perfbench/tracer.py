"""Span recording from outside the program.

``install(trace_dir)`` wraps the public entry points of each layer of
``repro`` in place (module functions and class methods), so every call
records a span: name, start, end, parent span and request id.  Spans stay
in memory per thread and are written to ``trace_dir/spans-<pid>.json``
when the process exits; forked pool workers write their own file.

Nothing in ``repro`` is edited: the wrappers are installed by the
benchmark's child bootstrap (``perfbench/child.py``) before the program
runs, and an untraced run never imports this module.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter

#: Per-thread span lists: ``n -> [[name, start, end, parent, rid, amount], ...]``,
#: keyed by a serial number (thread idents are reused once a thread ends).
_THREADS = {}
_SERIAL = itertools.count()
_COUNTERS = {}
_LOCK = threading.Lock()
_LOCAL = threading.local()
_STATE = {"dir": None, "pid": None}


def _thread_state():
    state = getattr(_LOCAL, "state", None)
    if state is None or state[0] != os.getpid():
        spans = []
        with _LOCK:
            _THREADS[next(_SERIAL)] = spans
        state = _LOCAL.state = (os.getpid(), spans, [], {"rid": None})
    return state


def count(name, amount=1):
    """Add ``amount`` to the process-wide counter ``name``."""
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + amount


def set_request_id(rid):
    _thread_state()[3]["rid"] = rid


def span(name, fn, amount=None):
    """Wrap ``fn`` so each call records a span named ``name``.

    ``amount(args, kwargs)`` optionally attaches a work count (rows
    stepped, bytes) to the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _, spans, stack, ctx = _thread_state()
        rec = [name, _clock(), None, stack[-1] if stack else -1, ctx["rid"],
               amount(args, kwargs) if amount is not None else None]
        stack.append(len(spans))
        spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _clock()
            stack.pop()

    return wrapper


def counted(name, fn, amount_name=None, amount=None):
    """Wrap ``fn`` so each call only bumps counters (no span): ``name``
    by one, and ``amount_name`` by ``amount(args, kwargs)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count(name)
        if amount is not None:
            count(amount_name, amount(args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def replace_function(module, attr, wrap):
    """Swap ``module.attr`` for ``wrap(original)`` in every ``repro`` module.

    ``from x import f`` binds ``f`` into the importer's namespace, so the
    wrapper must replace every alias of the original object, not just
    the defining module's attribute.
    """
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return wrapped


def replace_method(cls, attr, wrap):
    setattr(cls, attr, wrap(vars(cls)[attr]))


def _rows_of(position):
    """Work count for a step span: rows of the block at ``args[position]``."""

    def amount(args, kwargs):
        return int(args[position].shape[0])

    return amount


def _stripe_bytes(args, kwargs):
    # (x, out, col_offset, local_indptr, rows, vals, ...): the CSC stripe
    # operands the kernel multiplies — computed from the arrays, not I/O.
    return int(args[3].nbytes + args[4].nbytes + args[5].nbytes)


def _wrap_prepared_step(prepare):
    @functools.wraps(prepare)
    def wrapper(self, *args, **kwargs):
        step = prepare(self, *args, **kwargs)
        return span("core.backends.step", step, amount=_rows_of(0))

    return wrapper


def _wrap_do_post(do_post):
    """Tag the handler thread with the caller's request id for the request."""
    traced = span("service.request", do_post)

    @functools.wraps(do_post)
    def wrapper(self):
        set_request_id(self.headers.get("X-Request-Id"))
        try:
            return traced(self)
        finally:
            set_request_id(None)

    return wrapper


def _wrap_warm(warm):
    """Span the warm solve; count solves that were seeded but ended cold."""
    traced = span("core.incremental.warm", warm)

    @functools.wraps(warm)
    def wrapper(graph, state=None, *args, **kwargs):
        result = traced(graph, state, *args, **kwargs)
        if state is not None and not result.warm_started:
            count("core.incremental.cold_fallbacks")
        return result

    return wrapper


def _install_wrappers():
    import repro.cli  # noqa: F401 - loads the package graph the wrappers patch
    from repro.core import backends, distances, incremental, mixing, operators, parallel
    from repro.core import runtime, spectral, walks
    from repro.datasets import cache, temporal
    from repro.graph import storage
    from repro.service import client, engine, http, registry
    from repro.service import cache as result_cache
    from repro.sybil import sybillimit

    replace_function(cache, "load_cached", lambda f: span("datasets.load", f))
    replace_function(temporal, "load_temporal_cached", lambda f: span("datasets.load", f))
    replace_function(storage, "open_csr", lambda f: span("graph.storage.open", f))
    replace_function(spectral, "slem", lambda f: span("core.spectral.slem", f))
    replace_function(mixing, "measure_mixing", lambda f: span("core.mixing.measure", f))
    replace_function(
        distances, "total_variation_to_reference", lambda f: span("core.mixing.tvd", f)
    )
    replace_method(walks.TransitionOperator, "__init__",
                   lambda f: span("core.operators.build", f))
    for name in ("variation_curves", "hitting_times"):
        replace_method(operators.MarkovOperator, name,
                       lambda f: span("core.operators.sweep", f))
    replace_method(operators.MarkovOperator, "_apply_block",
                   lambda f: span("core.backends.step", f, amount=_rows_of(1)))
    replace_method(backends.SpmmBackend, "prepare", _wrap_prepared_step)
    replace_function(
        backends, "_apply_csc_stripe",
        lambda f: counted("core.backends.streaming.stripes", f,
                          "core.backends.streaming.bytes_computed", _stripe_bytes),
    )
    replace_function(parallel, "publish_operator", lambda f: span("core.parallel.publish", f))
    replace_function(runtime, "run_sharded", lambda f: span("core.parallel.sweep", f))
    replace_function(runtime, "_worker_shard", lambda f: span("core.parallel.shard", f))
    replace_function(incremental, "warm_spectral_extremes", _wrap_warm)
    replace_function(incremental, "_cold_state", lambda f: span("core.incremental.cold", f))
    replace_method(sybillimit.SybilLimit, "admission_sweep",
                   lambda f: span("sybil.admission", f))
    for name in ("submit", "append_delta"):
        replace_method(engine.QueryEngine, name, lambda f: span("service.engine", f))
    replace_method(registry.OperatorRegistry, "acquire",
                   lambda f: span("service.registry.acquire", f))
    replace_method(registry.OperatorRegistry, "_build",
                   lambda f: span("service.registry.build", f))
    for name in ("get", "put"):
        replace_method(result_cache.ResultCache, name, lambda f: span("service.cache", f))
    replace_function(client, "answer_payload", lambda f: span("service.codec", f))
    replace_method(http._Handler, "do_POST", _wrap_do_post)


def dump():
    """Write this process's spans and counters (idempotent per process)."""
    if _STATE["dir"] is None or _STATE["pid"] == os.getpid():
        return
    _STATE["pid"] = os.getpid()
    with _LOCK:
        threads = {str(tid): spans for tid, spans in _THREADS.items()}
        counters = dict(_COUNTERS)
    payload = {"pid": os.getpid(), "main": _STATE["main_pid"] == os.getpid(),
               "threads": threads, "counters": counters}
    path = os.path.join(_STATE["dir"], f"spans-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)


class _ForkHook:
    """Finaliser hook for pool workers (``multiprocessing`` clears the
    inherited finaliser registry in each child, then runs after-fork
    callbacks — this re-registers the dump there)."""

    def __call__(self, _obj=None):
        from multiprocessing import util

        util.Finalize(None, dump, exitpriority=100)


_FORK_HOOK = _ForkHook()


def _after_fork_in_child():
    with _LOCK:
        _THREADS.clear()
        _COUNTERS.clear()
    _LOCAL.__dict__.clear()


def install(trace_dir):
    """Wrap the layers and arrange for the spans to be written at exit."""
    from multiprocessing import util

    _STATE["dir"] = str(trace_dir)
    _STATE["main_pid"] = os.getpid()
    _install_wrappers()
    atexit.register(dump)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    util.register_after_fork(_FORK_HOOK, _FORK_HOOK)
