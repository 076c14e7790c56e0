"""Shared-memory process-pool runtime for multi-source sweeps.

The paper's definition-based measurement (equation (2)) is embarrassingly
parallel across sources: every row of a
:meth:`~repro.core.operators.MarkovOperator.variation_curves` /
:meth:`~repro.core.operators.MarkovOperator.hitting_times` /
:meth:`~repro.core.operators.MarkovOperator.evolve_block` call evolves an
independent chain.  PR 1 turned the per-source python loop into chunked
SpMM blocks; this module fans those blocks out across *processes* so a
1000-source sweep uses every core instead of one.

Design
------
* **Publish once, attach zero-copy.**  The operator's CSR arrays
  (``indptr``/``indices``/``data``), the reference (stationary) vector
  and — for teleporting chains — the dangling mask are packed into a
  single :mod:`multiprocessing.shared_memory` segment by
  :func:`publish_operator`.  Workers attach ``numpy`` views straight onto
  the segment (no pickling of the matrix, no per-worker copy) and
  rebuild a lightweight operator around them.
* **Same kernel, same numbers.**  Worker operators either inherit the
  base ``X @ P`` kernel or invoke
  ``DirectedTransitionOperator._apply_block`` *itself* on duck-typed
  state, so the arithmetic executed in a worker is the exact code the
  serial path runs.  Rows are independent, scipy's CSR SpMM accumulates
  each output row in a fixed order, and shards are reassembled in source
  order — parallel output is therefore **bit-for-bit identical** to the
  serial block path (``tests/core/test_parallel.py`` pins this for every
  operator flavour, worker count and chunk boundary).
* **Deterministic reassembly.**  Rows are sharded into contiguous
  ranges and the parent concatenates shard results positionally.
  Scheduling order can vary; output order and values cannot.
* **One spec, one driver.**  Each sweep kind (variation curves, hitting
  times, block evolution, originator-biased curves, route tails, route
  hits) is declared once as a :class:`Sweep` by the module that owns it:
  a row count, a module-level ``kernel(state, lo, hi)``, the state the
  kernel reads, what workers attach to, and the checkpoint fingerprint.
  :func:`run_sweep` runs any of them; it alone decides between serial,
  threads and processes, checkpoints, publishes and hands the shards to
  the fault-tolerant executor (:func:`repro.core.runtime.run_sharded`).
* **Serial fallback.**  :func:`run_sweep` returns ``None`` — and the
  caller runs the proven serial path — when the sweep has no rows, when
  it neither fans out nor checkpoints, or when the operator carries a
  custom ``_apply_block`` this runtime does not know how to replicate.
  A sweep fans out when ``workers`` resolves to more than one worker
  and more than one row, and the execution mode is available:
  ``"processes"`` needs ``fork`` (the pool relies on copy-on-write
  module state) and shared memory; ``REPRO_PARALLEL=0`` vetoes both
  modes.  It checkpoints, even serially, when ``checkpoint_dir`` is set
  and the sweep has a fingerprint.

Callers reach this runtime through ``policy=ExecutionPolicy(workers=…,
execution=…, checkpoint_dir=…)`` on the
:class:`~repro.core.operators.MarkovOperator` block APIs, the trust and
Sybil sweeps (and the ``--workers`` CLI flag / ``ExperimentConfig``
policy above them).
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..obs import OBS
from .operators import MarkovOperator
from .runtime import DEFAULT_POLICY, ExecutionPolicy, run_sharded, sweep_fingerprint

__all__ = [
    "OperatorPayload",
    "SharedOperatorHandle",
    "Sweep",
    "cleanup_published_segments",
    "describe_operator",
    "install_signal_cleanup",
    "parallel_backend_available",
    "pin_published_operator",
    "publish_operator",
    "resolve_workers",
    "run_sweep",
    "unpin_published_operator",
]

#: Shards per worker: oversharding lets ``Pool.map`` rebalance uneven
#: per-source work (hitting times vary wildly across sources) while the
#: contiguous, order-preserving reassembly keeps results deterministic.
_OVERSHARD = 4

#: Byte alignment of each array inside the shared segment (cache line).
_ALIGN = 64

#: Environment kill-switch: ``REPRO_PARALLEL=0`` forces the serial path
#: everywhere without touching call sites (debugging, constrained CI).
_ENV_SWITCH = "REPRO_PARALLEL"


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete process count.

    ``None``, ``0`` and ``1`` mean *serial* (no pool); ``-1`` means one
    worker per available core (``os.cpu_count()``); any other positive
    integer is honoured verbatim.  Values below ``-1`` raise.
    """
    if workers is None:
        return 1
    count = int(workers)
    if count == -1:
        return max(1, os.cpu_count() or 1)
    if count < 0:
        raise ValueError(f"workers must be >= -1, got {workers}")
    return max(1, count)


def parallel_backend_available() -> bool:
    """True when the fork + shared-memory runtime can be used here."""
    if os.environ.get(_ENV_SWITCH, "") == "0":
        return False
    try:
        import multiprocessing
        import multiprocessing.shared_memory  # noqa: F401  (probe import)
    except ImportError:  # pragma: no cover - stdlib always has these
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def _fanout_available(policy: ExecutionPolicy) -> bool:
    """Whether this policy's execution mode can fan out at all.

    ``execution="threads"`` needs no fork and no shared memory — only
    the ``REPRO_PARALLEL=0`` kill-switch can veto it; ``"processes"``
    needs the full fork + shared-memory backend.
    """
    if policy.execution == "threads":
        return os.environ.get(_ENV_SWITCH, "") != "0"
    return parallel_backend_available()


# ----------------------------------------------------------------------
# Operator description (what gets published)
# ----------------------------------------------------------------------
def describe_operator(operator):
    """Classify an operator for worker-side reconstruction.

    Returns ``(kind, csr_matrix, extras)`` where ``kind`` is ``"csr"``
    (plain/lazy/weighted/pure-directed — the base ``X @ P`` kernel),
    ``"teleport"`` (damped/dangling directed chains) or ``"mmap"``
    (out-of-core operators over an on-disk ``.csr`` container, published
    by *path* rather than by copying arrays), or ``None`` when the
    operator's step cannot be replicated from its CSR arrays alone
    (unknown ``_apply_block`` override) — the caller then stays serial.
    """
    from scipy.sparse import issparse

    from .directed import DirectedTransitionOperator
    from .operators import MarkovOperator
    from .outofcore import StripedTransitionMatrix

    matrix = getattr(operator, "_matrix", None)
    if isinstance(matrix, StripedTransitionMatrix):
        # Out-of-core operator.  Publishable only when the backing graph
        # has an on-disk container workers can re-map (anonymous striped
        # matrices would force a full copy, defeating the point) and the
        # step is the base kernel (same rule as the CSR branch below).
        if (
            isinstance(operator, DirectedTransitionOperator)
            or type(operator)._apply_block is not MarkovOperator._apply_block
            or matrix.path is None
        ):
            return None
        return "mmap", matrix, {}
    if matrix is None or not issparse(matrix):
        return None
    matrix = matrix.tocsr()
    if isinstance(operator, DirectedTransitionOperator):
        if operator._teleporting:
            return (
                "teleport",
                matrix,
                {"damping": operator._damping, "dangling": operator._dangling},
            )
        return "csr", matrix, {}
    if type(operator)._apply_block is not MarkovOperator._apply_block:
        return None  # custom dynamics we cannot reproduce from CSR arrays
    return "csr", matrix, {}


# ----------------------------------------------------------------------
# Shared-memory publication (parent side)
# ----------------------------------------------------------------------
class _ArrayField(NamedTuple):
    name: str
    offset: int
    dtype: str
    shape: Tuple[int, ...]


class OperatorPayload(NamedTuple):
    """Picklable description of one published segment.

    Only this tiny tuple crosses the process boundary per task — the
    arrays themselves live in the named shared-memory segment.  Kind
    ``"arrays"`` is a plain set of named arrays (route-engine state);
    every other kind is an operator workers rebuild.
    """

    kind: str  # "csr" | "teleport" | "originator" | "mmap" | "arrays"
    shm_name: str
    fields: Tuple[_ArrayField, ...]
    num_states: int = 0
    damping: float = 1.0
    beta: float = 0.0
    #: ``"mmap"`` only: the on-disk ``.csr`` container workers re-map
    #: (instead of copying 2m int64s into the segment) and the laziness
    #: of the striped transition matrix rebuilt on top of it.
    path: Optional[str] = None
    alpha: float = 0.0


class SharedOperatorHandle:
    """Owner of one published shared-memory segment (parent side).

    The parent creates it, fans tasks referencing ``payload`` out to the
    pool, and must :meth:`close` it afterwards (``with`` works too) —
    workers only ever attach; lifecycle belongs to the parent.
    """

    def __init__(self, payload: OperatorPayload, shm) -> None:
        self.payload = payload
        self._shm = shm
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _unregister_segment(self._shm.name)
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass

    def __enter__(self) -> "SharedOperatorHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Segment lifecycle: leak-proofing against interrupts
# ----------------------------------------------------------------------
# POSIX shared memory is kernel-persistent: a segment whose owner dies
# between publish and close survives in /dev/shm until reboot.  The
# ``with publish_operator(...)`` discipline covers exceptions, but not
# SIGTERM/SIGINT landing mid-sweep, and a long-lived *service* holding
# warm segments for minutes makes that window wide.  Every published
# segment is therefore tracked here, keyed by name and stamped with the
# publishing PID, and (a) an atexit hook unlinks leftovers on normal
# interpreter shutdown, (b) :func:`install_signal_cleanup` extends that
# to fatal signals.  The PID stamp is the fork guard: pool workers
# inherit this table (and any installed handlers), but they must never
# unlink the parent's live segments — cleanup skips entries it does not
# own.  (Workers also exit via ``os._exit``, skipping atexit, which is
# correct for the same reason.)

_SEGMENTS_LOCK = threading.Lock()
#: name -> (SharedMemory, owner pid)
_LIVE_SEGMENTS: Dict[str, Tuple[object, int]] = {}
_ATEXIT_INSTALLED = False
#: signum -> previous handler, for the handlers we installed in this PID.
_SIGNAL_PREVIOUS: Dict[int, object] = {}
_SIGNAL_OWNER_PID: Optional[int] = None


def _register_segment(shm) -> None:
    global _ATEXIT_INSTALLED
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS[shm.name] = (shm, os.getpid())
        if not _ATEXIT_INSTALLED:
            atexit.register(cleanup_published_segments)
            _ATEXIT_INSTALLED = True


def _unregister_segment(name: str) -> None:
    with _SEGMENTS_LOCK:
        _LIVE_SEGMENTS.pop(name, None)


def cleanup_published_segments() -> int:
    """Close + unlink every live segment *published by this process*.

    Idempotent and safe to call from atexit or a signal handler; returns
    the number of segments reclaimed.  Segments registered by another
    PID (i.e. inherited across ``fork`` by a pool worker) are left
    alone — their owner's cleanup handles them.
    """
    pid = os.getpid()
    with _SEGMENTS_LOCK:
        mine = [
            name
            for name, (_shm, owner) in _LIVE_SEGMENTS.items()
            if owner == pid
        ]
        entries = [(name, _LIVE_SEGMENTS.pop(name)[0]) for name in mine]
    reclaimed = 0
    for _name, shm in entries:
        try:
            shm.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
            reclaimed += 1
        except FileNotFoundError:
            pass
    return reclaimed


def _signal_cleanup_handler(signum, frame):
    # Only the installing process acts; a forked child that inherited
    # this handler chains straight to the previous disposition.
    if os.getpid() == _SIGNAL_OWNER_PID:
        cleanup_published_segments()
    previous = _SIGNAL_PREVIOUS.get(signum, signal.SIG_DFL)
    if callable(previous):
        previous(signum, frame)
        return
    # Re-deliver under the default disposition so the exit status still
    # says "killed by signal" (what supervisors and shells expect).
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_signal_cleanup(signums: Tuple[int, ...] = (signal.SIGTERM,)) -> None:
    """Unlink live segments when a fatal signal lands (then die normally).

    Call once from long-running entry points (the CLI does, including
    ``repro-mixing serve``); installing from a non-main thread is a
    no-op because CPython only allows signal handlers on the main
    thread.  Handlers chain to whatever was installed before.
    """
    global _SIGNAL_OWNER_PID
    if threading.current_thread() is not threading.main_thread():
        return
    _SIGNAL_OWNER_PID = os.getpid()
    for signum in signums:
        current = signal.getsignal(signum)
        if current is _signal_cleanup_handler:
            continue
        _SIGNAL_PREVIOUS[signum] = current
        signal.signal(signum, _signal_cleanup_handler)


# ----------------------------------------------------------------------
# Pinned operators: the registry-aware warm path
# ----------------------------------------------------------------------
# A batch sweep publishes its operator, fans out, and unlinks — correct
# for one-shot runs, wasteful for a service answering many requests
# against the same graph: every request would re-pack the CSR arrays
# into a fresh segment.  The service's OperatorRegistry instead *pins*
# the publication: the segment stays live across requests and
# :func:`run_sweep` checks the pin table before publishing.
# Pins are keyed by the identity of the operator's CSR matrix (the
# object the registry keeps alive for exactly as long as the pin, so id
# reuse cannot alias) and record the published reference vector; a sweep
# reuses the pin only when its reference *is* that vector — true for
# default-reference sweeps because operators memoise ``stationary()``.

_PINS_LOCK = threading.Lock()
#: id(csr matrix) -> (matrix strong ref, reference, handle)
_PINNED: Dict[int, Tuple[object, Optional[np.ndarray], SharedOperatorHandle]] = {}


def pin_published_operator(operator, reference=None) -> Optional[SharedOperatorHandle]:
    """Publish ``operator`` once and keep the segment warm until unpinned.

    ``reference`` defaults to the operator's stationary distribution —
    the vector every default sweep passes.  Returns the owning handle,
    or ``None`` when the operator is not publishable (unknown type) or
    the parallel backend is unavailable; callers treat ``None`` as
    "serial-only environment" and proceed (sweeps just skip the warm
    path).  Pinning the same operator twice returns the existing handle.
    """
    if not parallel_backend_available():
        return None
    described = describe_operator(operator)
    if described is None:
        return None
    kind, matrix, extras = described
    if reference is None:
        reference = operator.stationary()
    with _PINS_LOCK:
        pinned = _PINNED.get(id(matrix))
        if pinned is not None:
            return pinned[2]
        handle = publish_operator(kind, matrix, reference, **extras)
        _PINNED[id(matrix)] = (matrix, reference, handle)
    if OBS.enabled:
        OBS.add("parallel.pins")
    return handle


def unpin_published_operator(operator) -> bool:
    """Drop the pin for ``operator`` and unlink its segment.

    Returns whether a pin existed.  Safe to call for never-pinned
    operators (the registry calls it unconditionally on eviction).
    """
    described = describe_operator(operator)
    if described is None:
        return False
    _kind, matrix, _extras = described
    with _PINS_LOCK:
        pinned = _PINNED.pop(id(matrix), None)
    if pinned is None:
        return False
    pinned[2].close()
    if OBS.enabled:
        OBS.add("parallel.unpins")
    return True


class _LeasedPublication:
    """Context manager: a pinned segment if one matches, else a fresh one.

    :func:`run_sweep` uses this in place of ``with publish_operator(...)``:
    exit closes (unlinks) the segment only when this sweep published it —
    pinned segments outlive the sweep by design.
    """

    __slots__ = ("_handle", "_owned")

    def __init__(self, kind, matrix, extras, reference) -> None:
        with _PINS_LOCK:
            pinned = _PINNED.get(id(matrix))
            if pinned is not None and pinned[1] is reference:
                self._handle = pinned[2]
                self._owned = False
                if OBS.enabled:
                    OBS.add("parallel.pinned_publish_hits")
                return
        self._handle = publish_operator(kind, matrix, reference, **extras)
        self._owned = True

    def __enter__(self) -> SharedOperatorHandle:
        return self._handle

    def __exit__(self, *exc) -> None:
        if self._owned:
            self._handle.close()


def _copy_fields(
    shm, fields: List[_ArrayField], named: List[Tuple[str, np.ndarray]]
) -> None:
    """Copy each source array into its slot inside the shared segment.

    Module-level (rather than inlined in :func:`_publish`) so the
    leak-safety tests can monkeypatch it to fail and assert the segment
    is unlinked on the error path.
    """
    for field, (_name, array) in zip(fields, named):
        view = np.ndarray(
            field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf, offset=field.offset
        )
        view[...] = array


def _layout_fields(
    named: List[Tuple[str, np.ndarray]],
) -> Tuple[List[_ArrayField], int]:
    """Back-to-back cache-line-aligned layout for a list of arrays."""
    fields: List[_ArrayField] = []
    offset = 0
    for name, array in named:
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
        fields.append(_ArrayField(name, offset, array.dtype.str, array.shape))
        offset += array.nbytes
    return fields, offset


def publish_operator(
    kind: str,
    matrix,
    reference: Optional[np.ndarray] = None,
    *,
    damping: float = 1.0,
    dangling: Optional[np.ndarray] = None,
    beta: float = 0.0,
) -> SharedOperatorHandle:
    """Pack CSR arrays (+ reference / dangling mask) into one segment.

    The returned handle's :attr:`~SharedOperatorHandle.payload` records
    the layout and the operator's dynamics so workers can rebuild it on
    zero-copy views (:func:`_worker_operator`).
    """
    named: List[Tuple[str, np.ndarray]] = []
    path = None
    alpha = 0.0
    if kind == "mmap":
        # Path-based publication: workers re-map the on-disk container,
        # so the segment carries only the sweep's reference vector.
        path = matrix.path
        alpha = float(matrix.laziness)
    else:
        named.extend(
            [
                ("data", matrix.data),
                ("indices", matrix.indices),
                ("indptr", matrix.indptr),
            ]
        )
    if reference is not None:
        named.append(("reference", reference))
    if dangling is not None:
        named.append(("dangling", dangling))
    return _publish(
        kind,
        named,
        num_states=int(matrix.shape[0]),
        damping=float(damping),
        beta=float(beta),
        path=path,
        alpha=alpha,
    )


def _publish(kind: str, named, **payload_fields) -> SharedOperatorHandle:
    """Create one segment holding ``named`` arrays: the only creation path.

    Arrays are laid out back-to-back at cache-line alignment.
    Exception-safe: if anything after segment creation fails (the copy,
    payload assembly, …) the segment is closed **and unlinked** before
    the exception propagates, so a failed publish never leaves a stray
    ``/dev/shm`` entry behind (``tests/core/test_parallel_safety.py``).
    """
    from multiprocessing import shared_memory

    publish_start = time.perf_counter() if OBS.enabled else 0.0
    named = [(name, np.ascontiguousarray(array)) for name, array in named]
    fields, offset = _layout_fields(named)
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        _copy_fields(shm, fields, named)
        payload = OperatorPayload(
            kind=kind, shm_name=shm.name, fields=tuple(fields), **payload_fields
        )
        handle = SharedOperatorHandle(payload, shm)
        _register_segment(shm)
    except BaseException:
        # Never leak the segment: close our mapping and unlink the name.
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        raise
    if OBS.enabled:
        OBS.add("parallel.publishes")
        OBS.add("parallel.publish_bytes", int(shm.size))
        OBS.observe("parallel.publish_seconds", time.perf_counter() - publish_start)
    return handle


# ----------------------------------------------------------------------
# Worker-side attachment and reconstruction
# ----------------------------------------------------------------------
#: Per-worker cache: segment name -> (shm, views, reconstruction cache).
#: A pool worker serves many shards of the same sweep; attaching once
#: per worker keeps the zero-copy promise.
_ATTACHED: Dict[str, Tuple[object, Dict[str, np.ndarray], dict]] = {}

#: Seconds the most recent :func:`_attach` in *this process* spent
#: mapping the segment (0.0 when it hit the cache).  Read by
#: :func:`repro.core.runtime._worker_shard` so per-worker attach latency
#: travels back to the parent alongside task results without a second
#: IPC channel.
_ATTACH_SECONDS_PENDING = 0.0


def _build_views(shm, fields: Tuple[_ArrayField, ...]) -> Dict[str, np.ndarray]:
    """Rebuild the read-only zero-copy array views over an attached segment.

    Module-level so the leak-safety tests can monkeypatch it to fail and
    assert the worker-side mapping is closed on the error path.
    """
    views: Dict[str, np.ndarray] = {}
    for field in fields:
        view = np.ndarray(
            field.shape, dtype=np.dtype(field.dtype), buffer=shm.buf, offset=field.offset
        )
        view.flags.writeable = False  # shared state is sacrosanct
        views[field.name] = view
    return views


def _attach(payload: OperatorPayload):
    global _ATTACH_SECONDS_PENDING
    entry = _ATTACHED.get(payload.shm_name)
    if entry is None:
        from multiprocessing import shared_memory

        attach_start = time.perf_counter()
        shm = shared_memory.SharedMemory(name=payload.shm_name)
        # No resource-tracker bookkeeping here: fork workers inherit the
        # parent's tracker, whose cache is a *set* — the attach-side
        # registration collapses into the parent's create-side one, and
        # the parent's unlink() retires it exactly once.  (An explicit
        # unregister per worker would over-remove and make the tracker
        # print KeyError noise at shutdown.)
        try:
            views = _build_views(shm, payload.fields)
        except BaseException:
            # Close this process's mapping; unlinking stays the parent's
            # job (other workers may still be attached to the name).
            shm.close()
            raise
        entry = (shm, views, {})
        _ATTACHED[payload.shm_name] = entry
        _ATTACH_SECONDS_PENDING = time.perf_counter() - attach_start
    else:
        _ATTACH_SECONDS_PENDING = 0.0
    return entry


class _SharedCSROperator(MarkovOperator):
    """Worker-side stand-in built on shared-memory CSR views.

    Deliberately *not* constructed through any graph class — it owns the
    minimal state the :class:`~repro.core.operators.MarkovOperator`
    machinery needs and borrows that machinery wholesale (the inherited
    ``X @ P`` kernel, chunking, early-exit masking), so a worker
    executes the very same code path as the serial parent.
    """

    def __init__(self, matrix) -> None:
        self._init_operator(matrix.shape[0])
        self._matrix = matrix

    def _compute_stationary(self):  # pragma: no cover - guarded
        raise RuntimeError(
            "worker operators require an explicit reference distribution"
        )


class _SharedTeleportOperator(_SharedCSROperator):
    """Worker-side teleporting chain.

    ``_apply_block`` delegates to ``DirectedTransitionOperator``'s own
    method on duck-typed state — the teleport arithmetic cannot drift
    from the serial implementation because it *is* the serial
    implementation.
    """

    def __init__(self, matrix, damping: float, dangling: np.ndarray) -> None:
        super().__init__(matrix)
        self._damping = float(damping)
        self._dangling = dangling
        self._teleporting = True

    def _apply_block(self, block: np.ndarray) -> np.ndarray:
        from .directed import DirectedTransitionOperator

        return DirectedTransitionOperator._apply_block(self, block)


def _worker_operator(payload: OperatorPayload):
    """Rebuild (and memoise) the operator inside a pool worker."""
    _shm, views, cache = _attach(payload)
    operator = cache.get("operator")
    if operator is None:
        if payload.kind == "mmap":
            # Re-map the container instead of attaching CSR copies: the
            # kernel-shared page cache means N workers walking the same
            # stripes cost one set of physical pages, not N.
            from ..graph.storage import open_csr
            from .outofcore import StripedTransitionMatrix

            graph = open_csr(payload.path)
            operator = _SharedCSROperator(
                StripedTransitionMatrix(graph, laziness=payload.alpha)
            )
            cache["operator"] = operator
            return operator, views.get("reference")
        from scipy.sparse import csr_matrix

        n = payload.num_states
        matrix = csr_matrix(
            (views["data"], views["indices"], views["indptr"]), shape=(n, n)
        )
        if payload.kind == "teleport":
            operator = _SharedTeleportOperator(
                matrix, payload.damping, views["dangling"]
            )
        else:
            operator = _SharedCSROperator(matrix)
        cache["operator"] = operator
    return operator, views.get("reference")


def _worker_state(payload: OperatorPayload, params: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a sweep kernel's state inside a pool worker.

    ``params`` is the part of the parent's state that travelled with
    the task; the rest comes off the attached segment: read-only views
    for an ``"arrays"`` publication, else the rebuilt operator (as
    ``"operator"``, its matrix as ``"matrix"``) and the reference vector.
    """
    if payload.kind == "arrays":
        _shm, views, _cache = _attach(payload)
        return {**params, **views}
    operator, reference = _worker_operator(payload)
    return {
        **params,
        "operator": operator,
        "matrix": operator._matrix,
        "reference": reference,
    }


# ----------------------------------------------------------------------
# The sweep spec and its driver
# ----------------------------------------------------------------------
def _note_parallel_path(workers: int, shards: int) -> None:
    """Tag the enclosing operator span (if any) as having gone parallel."""
    if not OBS.enabled:
        return
    span = OBS.current_span()
    if span is not None:
        span.set(path="parallel", workers=int(workers), shards=int(shards))


def _operator_fingerprint(
    sweep: str, kind: str, matrix, extras: dict, reference, *parts, backend="numpy"
) -> str:
    """Content-addressed identity of one operator sweep (checkpoint key).

    Hashes the CSR arrays, the operator's extra dynamics (damping /
    dangling mask / originator bias) and the sweep parameters — but not
    ``workers``/``block_size``/``execution``, to which results are
    pinned invariant.  ``backend`` follows the same rule *conditionally*:
    float64 backends are bit-identical to the oracle, so they share the
    oracle's fingerprint (a checkpoint taken under one resumes under
    another); a non-exact numeric (float32) genuinely changes the
    numbers, so its numeric tag joins the hash and its checkpoints never
    masquerade as float64 results.
    """
    from .backends import backend_numeric

    numeric = backend_numeric(backend)
    extra_parts = () if numeric == "float64" else (f"numeric:{numeric}",)
    content = getattr(matrix, "fingerprint", None)
    if content is not None:
        # Out-of-core matrices carry a content digest (graph fingerprint
        # + laziness) — hashing it stands in for streaming 2m int64s off
        # disk.  Scipy matrices keep the original array hash so existing
        # checkpoints stay valid.
        matrix_parts: Tuple[object, ...] = (content,)
    else:
        matrix_parts = (matrix.data, matrix.indices, matrix.indptr)
    return sweep_fingerprint(
        sweep,
        kind,
        *matrix_parts,
        tuple(int(v) for v in matrix.shape),
        float(extras.get("damping", 1.0)),
        extras.get("dangling"),
        float(extras.get("beta", 0.0)),
        reference,
        *parts,
        *extra_parts,
    )


#: State keys an operator publication rebuilds inside every worker; they
#: never travel with a task.
_OPERATOR_KEYS = ("operator", "matrix", "reference")


class Sweep(NamedTuple):
    """One source-sharded sweep, declared by the module that owns it.

    ``rows`` independent rows are computed by ``kernel(state, lo, hi)``,
    a module-level function (pool tasks pickle it by name) returning
    rows ``[lo, hi)``.  The same kernel runs in-process on ``state``
    (checkpointed serial sweeps, thread shards, degraded shards) and in
    pool workers on the state rebuilt from shared memory, so every path
    executes the same arithmetic.
    """

    #: Checkpoint and telemetry tag (``"curves"``, ``"route_tails"``, …).
    kind: str
    rows: int
    kernel: Callable[[Dict[str, Any], int, int], Any]
    #: Everything the kernel reads.
    state: Dict[str, Any]
    #: What pool workers rebuild as ``state["operator"]``, ``["matrix"]``
    #: and ``["reference"]``: a Markov operator (see
    #: :func:`describe_operator`; one it cannot describe keeps the sweep
    #: serial) or an already described ``(kind, matrix, extras)`` triple.
    #: Published with ``state["reference"]``, through a pinned segment
    #: when one matches.
    operator: Any = None
    #: Without an operator: the state arrays published as one segment.
    arrays: Tuple[str, ...] = ()
    #: State entries indexed by row along their first axis.  The kernel
    #: sees them cut to ``[lo:hi]``; pool tasks carry only that slice.
    sliced: Tuple[str, ...] = ()
    #: Sweep parameters hashed into the checkpoint key (after the
    #: operator, if any); ``None`` for sweeps that never checkpoint.
    fingerprint: Optional[tuple] = None
    #: Axis the shard results (each element, for tuple results) join on.
    axis: int = 0


def _shard_state(state: Dict[str, Any], sliced, lo: int, hi: int) -> Dict[str, Any]:
    """``state`` with every ``sliced`` entry cut to rows ``[lo, hi)``."""
    return {**state, **{name: state[name][lo:hi] for name in sliced}}


def run_sweep(spec: Sweep, policy: Optional[ExecutionPolicy] = None):
    """Run ``spec`` sharded under ``policy``; ``None`` means "stay serial".

    Returns the shard results joined along ``spec.axis`` (element-wise
    for tuple results), or ``None`` under the module's fallback rules —
    the caller then runs its own serial path.  A sweep without a
    fingerprint never checkpoints, so it falls back whenever it cannot
    fan out.  Threads run the kernel on ``spec.state`` in-process;
    processes publish once, then rebuild the state in every worker.
    """
    policy = DEFAULT_POLICY if policy is None else policy
    count = min(resolve_workers(policy.workers), spec.rows)
    use_pool = count > 1 and _fanout_available(policy)
    checkpoint = policy.checkpoint_dir is not None and spec.fingerprint is not None
    if spec.rows == 0 or not (use_pool or checkpoint):
        return None
    described = spec.operator
    if described is not None and not isinstance(described, tuple):
        described = describe_operator(described)
        if described is None:
            return None
    reference = spec.state.get("reference")
    fingerprint = None
    if checkpoint and described is not None:
        fingerprint = _operator_fingerprint(
            spec.kind, *described, reference, *spec.fingerprint, backend=policy.backend
        )
    elif checkpoint:
        fingerprint = sweep_fingerprint(spec.kind, *spec.fingerprint)

    def serial_run(lo: int, hi: int):
        return spec.kernel(_shard_state(spec.state, spec.sliced, lo, hi), lo, hi)

    shared = set(spec.arrays) | set(_OPERATOR_KEYS if described is not None else ())
    params = {k: v for k, v in spec.state.items() if k not in shared}
    if not use_pool or policy.execution == "threads":
        publication = contextlib.nullcontext()
    elif described is not None:
        publication = _LeasedPublication(*described, reference)
    else:
        publication = _publish(
            "arrays", [(name, spec.state[name]) for name in spec.arrays]
        )
    with publication as handle:

        def make_task(lo: int, hi: int):
            task_params = _shard_state(params, spec.sliced, lo, hi)
            return spec.kernel, handle.payload, task_params, lo, hi

        if use_pool:
            _note_parallel_path(count, min(spec.rows, count * _OVERSHARD))
        parts = run_sharded(
            kind=spec.kind,
            total=spec.rows,
            policy=policy,
            workers=count if use_pool else 1,
            make_task=make_task,
            serial_run=serial_run,
            fingerprint=fingerprint,
            use_pool=use_pool,
            overshard=_OVERSHARD,
        )
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(column, axis=spec.axis) for column in zip(*parts))
    return np.concatenate(parts, axis=spec.axis)
