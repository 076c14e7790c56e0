"""Unified Markov-operator layer with batched multi-source evolution.

Every random-walk variant in the reproduction — the plain simple random
walk (:class:`~repro.core.walks.TransitionOperator`), the teleporting
directed walk (:class:`~repro.core.directed.DirectedTransitionOperator`)
and the trust-weighted walk
(:class:`~repro.core.trust.WeightedTransitionOperator`) — is a
row-stochastic Markov operator evolved the same way: start from a
point-mass row vector, repeatedly right-multiply by ``P``, and record the
total variation distance to a reference distribution.  Historically each
operator reimplemented ``point_mass`` / ``step`` / ``evolve`` and its own
validation, with subtle drift between the copies, and every measurement
loop evolved one source at a time with 1-D sparse mat-vecs.

:class:`MarkovOperator` centralises all of that and adds the *block API*
that makes the paper's definition-based measurement (equation (2)) a
sparse-times-dense-block product instead of ``s`` independent mat-vec
loops:

* :meth:`MarkovOperator.point_mass_block` builds the ``(s, n)`` block of
  point masses for ``s`` sources;
* :meth:`MarkovOperator.step_block` advances a whole block one step
  (``X @ P``), dispatching to the subclass kernel
  :meth:`MarkovOperator._apply_block`;
* :meth:`MarkovOperator.variation_curves` records TVD-to-reference at
  requested walk-length checkpoints for every source, chunking the block
  so the dense buffer stays under a configurable memory budget;
* :meth:`MarkovOperator.hitting_times` computes per-source
  ``min { t : ||pi - pi^(i) P^t|| < eps }`` with early-exit masking —
  rows whose distance already fell below ``eps`` stop being stepped.

Block rows are bit-for-bit identical to sequential 1-D evolution (scipy's
CSR mat-vec accumulates in the same order either way), so batching changes
wall-clock time, never results; the property tests in
``tests/core/test_operators.py`` pin that invariant for all operators,
laziness settings and chunk boundaries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .._util import check_node_index, check_probability_vector
from ..obs import OBS
from .distances import total_variation_to_reference
from .runtime import ExecutionPolicy, as_policy

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "HittingTimes",
    "MarkovOperator",
    "policy_block_bytes",
    "resolve_block_size",
]

#: Default memory budget for one dense ``(s, n)`` float64 evolution block.
#: The SpMM streams the whole block every step, so the block must fit in
#: cache, not merely in RAM: sweeping chunk sizes on the stand-in datasets
#: shows throughput collapsing once the block outgrows a few MiB (a
#: (1000, 10000) block — 80 MB — is ~5x slower per row than 16-row
#: chunks).  1 MiB lands in the 16-128 row sweet spot for every dataset
#: in the registry.
DEFAULT_BLOCK_BYTES: int = 1024 * 1024

#: Hard cap on rows per chunk: past this, wider blocks stop amortising
#: Python/scipy call overhead and only add memory pressure (tiny graphs
#: would otherwise get million-row chunks from the byte budget alone).
_MAX_BLOCK_ROWS: int = 1024


def resolve_block_size(
    num_states: int,
    block_size: Optional[int] = None,
    *,
    memory_budget_bytes: int = DEFAULT_BLOCK_BYTES,
) -> int:
    """Rows per evolution chunk.

    ``block_size=None`` sizes the chunk so one ``(s, n)`` float64 block
    stays under ``memory_budget_bytes`` (capped at ``1024`` rows, floored
    at ``1`` — a budget smaller than a single row still yields one row,
    never a zero-row chunk); an explicit positive ``block_size`` is
    honoured verbatim.  Degenerate inputs fail loudly instead of
    producing degenerate block shapes: ``num_states < 1`` (a chain with
    no states has no rows to chunk), non-positive or non-integral
    ``block_size`` overrides, and non-positive memory budgets all raise
    :class:`ValueError`.
    """
    num_states = int(num_states)
    if num_states < 1:
        raise ValueError(f"num_states must be a positive integer, got {num_states}")
    if block_size is not None:
        size = int(block_size)
        if size != block_size:
            raise ValueError(f"block_size must be an integer, got {block_size!r}")
        if size < 1:
            raise ValueError("block_size must be a positive integer")
        return size
    if memory_budget_bytes < 1:
        raise ValueError("memory_budget_bytes must be positive")
    rows = int(memory_budget_bytes) // (8 * num_states)
    return int(max(1, min(rows, _MAX_BLOCK_ROWS)))


def policy_block_bytes(policy: ExecutionPolicy) -> int:
    """Dense-block byte budget implied by one :class:`ExecutionPolicy`.

    Without a ``memory_budget`` this is the historical
    :data:`DEFAULT_BLOCK_BYTES`; with one, the dense ``(s, n)``
    evolution block gets half the budget (the other half belongs to the
    streaming backend's double-buffered stripes), floored at one row's
    worth so a tiny budget still makes progress.  Purely an execution
    decision — chunk boundaries are bit-for-bit neutral.
    """
    if policy.memory_budget is None:
        return DEFAULT_BLOCK_BYTES
    return max(policy.memory_budget // 2, 8)


class HittingTimes(NamedTuple):
    """Result of :meth:`MarkovOperator.hitting_times`.

    Attributes
    ----------
    times:
        Per-source first step count with distance below epsilon
        (``-1`` for sources that never converged within the budget).
    final_distances:
        The distance recorded when the row stopped being stepped: at the
        hitting time for converged rows, at ``max_steps`` otherwise.
    """

    times: np.ndarray
    final_distances: np.ndarray


class MarkovOperator(ABC):
    """Abstract row-stochastic operator with shared evolution machinery.

    Subclasses call :meth:`_init_operator` with the state count (and
    usually set ``self._matrix`` to a scipy CSR transition matrix, which
    the default :meth:`_apply_block` kernel uses).  Operators whose step
    is not a plain ``X @ P`` (e.g. teleporting chains) override
    :meth:`_apply_block` only — every public method funnels through it.
    """

    _num_states: int

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _init_operator(self, num_states: int) -> None:
        """Initialise shared state; must run before any evolution call."""
        self._num_states = int(num_states)
        self._stationary_cache: Optional[np.ndarray] = None
        self._backend_cache: dict = {}

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------
    @abstractmethod
    def _compute_stationary(self) -> np.ndarray:
        """Compute the stationary distribution (uncached)."""

    def _apply_block(self, block: np.ndarray) -> np.ndarray:
        """One unvalidated step of a ``(s, n)`` block: ``X @ P``.

        The default kernel multiplies by ``self._matrix``; subclasses with
        extra dynamics (teleporting, dangling mass) override this single
        method and inherit everything else.
        """
        return np.asarray(block @ self._matrix)

    def _resolve_step(self, policy: ExecutionPolicy):
        """The step kernel honouring ``policy.backend``.

        ``backend="numpy"`` (the default) — and *any* backend on an
        operator with a custom :meth:`_apply_block` (teleporting,
        dangling-mass dynamics the registry kernels cannot replicate
        from CSR arrays alone, mirroring
        :func:`repro.core.parallel.describe_operator`'s contract) —
        resolves to :meth:`_apply_block` itself: choosing the default
        backend changes nothing, bit-for-bit.  Other backends prepare a
        kernel over ``self._matrix`` once and memoise it per backend
        name on the operator.
        """
        name = policy.backend
        if (
            name == "numpy"
            or type(self)._apply_block is not MarkovOperator._apply_block
            or getattr(self, "_matrix", None) is None
        ):
            return self._apply_block
        cache = getattr(self, "_backend_cache", None)
        if cache is None:  # operators built before _init_operator grew the cache
            cache = self._backend_cache = {}
        key = (name, policy.memory_budget)
        step = cache.get(key)
        if step is None:
            from .backends import get_backend

            step = get_backend(name).prepare(
                self._matrix, memory_budget=policy.memory_budget
            )
            cache[key] = step
        return step

    # ------------------------------------------------------------------
    # Shared properties
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of chain states (= graph nodes)."""
        return self._num_states

    def stationary(self) -> np.ndarray:
        """The stationary distribution ``pi`` (memoised, read-only).

        The first call computes it (closed form for reversible chains,
        power iteration for directed ones); later calls return the cached
        vector.  The array is marked read-only so the cache cannot be
        corrupted through the returned reference.
        """
        if self._stationary_cache is None:
            pi = np.asarray(self._compute_stationary(), dtype=np.float64)
            pi.setflags(write=False)
            self._stationary_cache = pi
        return self._stationary_cache

    # ------------------------------------------------------------------
    # Unified validation (single source of truth for all operators)
    # ------------------------------------------------------------------
    def _check_vector(self, distribution: np.ndarray, *, name: str = "distribution") -> np.ndarray:
        """Shape/dtype gate for a single row distribution."""
        x = np.asarray(distribution, dtype=np.float64)
        if x.shape != (self._num_states,):
            raise ValueError(
                f"{name} must have shape ({self._num_states},), got {x.shape}"
            )
        return x

    def _check_block(self, block: np.ndarray, *, name: str = "block") -> np.ndarray:
        """Shape/dtype gate for an ``(s, n)`` block of row distributions."""
        x = np.asarray(block, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self._num_states:
            raise ValueError(
                f"{name} must have shape (s, {self._num_states}), got {x.shape}"
            )
        return x

    # ------------------------------------------------------------------
    # Point masses
    # ------------------------------------------------------------------
    def point_mass(self, node: int) -> np.ndarray:
        """The initial distribution pi^{(i)} concentrated at ``node``."""
        node = check_node_index(node, self._num_states)
        x = np.zeros(self._num_states, dtype=np.float64)
        x[node] = 1.0
        return x

    def point_mass_block(self, sources: Sequence[int]) -> np.ndarray:
        """The ``(s, n)`` block whose row ``i`` is a point mass at
        ``sources[i]`` — the batched starting state of equation (2)."""
        src = np.asarray(sources, dtype=np.int64).ravel()
        if src.size == 0:
            raise ValueError("sources must be non-empty")
        if np.any(src < 0) or np.any(src >= self._num_states):
            raise IndexError(
                f"sources out of range for operator with {self._num_states} states"
            )
        block = np.zeros((src.size, self._num_states), dtype=np.float64)
        block[np.arange(src.size), src] = 1.0
        return block

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, distribution: np.ndarray) -> np.ndarray:
        """One step: returns ``x P`` for a row distribution ``x``."""
        x = self._check_vector(distribution)
        return self._apply_block(x[np.newaxis, :])[0]

    def step_block(self, block: np.ndarray) -> np.ndarray:
        """One step of a whole ``(s, n)`` block: ``X P``.

        Row ``i`` of the result is bit-for-bit what ``step`` would return
        for row ``i`` of the input — batching is a pure speed transform.
        """
        x = self._check_block(block)
        if OBS.enabled:
            OBS.add("core.step_block.calls")
            OBS.add("core.step_block.rows", x.shape[0])
        return self._apply_block(x)

    def evolve(self, distribution: np.ndarray, steps: int, *, validate: bool = True) -> np.ndarray:
        """The distribution after ``steps`` applications of P."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        x = (
            check_probability_vector(distribution, name="distribution")
            if validate
            else self._check_vector(distribution)
        )
        block = x[np.newaxis, :]
        for _ in range(steps):
            block = self._apply_block(block)
        return block[0]

    def evolve_block(
        self,
        block: np.ndarray,
        steps: int,
        *,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """A whole block after ``steps`` applications of P.

        ``policy`` (an :class:`~repro.core.runtime.ExecutionPolicy`)
        steers execution: ``workers > 1`` shards the block's rows across
        the fault-tolerant process pool (rows are independent chains, so
        sharding is bit-for-bit neutral); the serial path runs whenever
        the pool is unavailable or pointless (see
        :mod:`repro.core.parallel`).
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        policy = as_policy(policy)
        x = self._check_block(block)
        with OBS.span(
            "core.evolve_block",
            operator=type(self).__name__,
            rows=int(x.shape[0]),
            steps=int(steps),
        ):
            if policy.workers is not None and steps > 0:
                from .parallel import Sweep, run_sweep

                state = {
                    "operator": self,
                    "block": x,
                    "steps": steps,
                    "policy": _shard_policy(policy),
                }
                spec = Sweep(
                    "evolve",
                    x.shape[0],
                    _evolve_kernel,
                    state,
                    operator=self,
                    sliced=("block",),
                )
                out = run_sweep(spec, policy)
                if out is not None:
                    return out
            if OBS.enabled:
                OBS.add("core.evolution.rows", x.shape[0])
                OBS.add("core.evolution.steps", steps * x.shape[0])
            apply_step = self._resolve_step(policy)
            for _ in range(steps):
                x = apply_step(x)
            return x

    def trajectory(self, distribution: np.ndarray, steps: int, *, validate: bool = True) -> np.ndarray:
        """All intermediate distributions: shape ``(steps + 1, n)``.

        Row ``t`` is the distribution after ``t`` steps (row 0 is the
        input).  Memory is ``(steps + 1) * n`` floats — use
        :meth:`evolve` when only the endpoint matters.
        """
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        x = (
            check_probability_vector(distribution, name="distribution")
            if validate
            else self._check_vector(distribution)
        )
        out = np.empty((steps + 1, self._num_states), dtype=np.float64)
        out[0] = x
        for t in range(1, steps + 1):
            out[t] = self._apply_block(out[t - 1][np.newaxis, :])[0]
        return out

    # ------------------------------------------------------------------
    # Batched measurement primitives (the Figure 3-7 hot path)
    # ------------------------------------------------------------------
    def variation_curve(
        self,
        source: int,
        max_steps: int,
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """``curve[t] = || pi - pi^{(source)} P^t ||_1`` for t = 0..max_steps.

        ``reference`` defaults to :meth:`stationary`; pass a different
        distribution to measure against (the originator-biased study
        measures biased walks against the *plain* pi, for example).
        """
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        return self.variation_curves(
            [source], np.arange(max_steps + 1), reference=reference, policy=policy
        )[0]

    def variation_curves(
        self,
        sources: Sequence[int],
        walk_lengths: Sequence[int],
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """TVD to ``reference`` at each checkpoint for every source.

        Returns a ``(s, w)`` array with
        ``out[i, j] = || ref - pi^{(sources[i])} P^{walk_lengths[j]} ||_1``.
        Sources are evolved as one dense block per chunk (one SpMM per
        step advances the whole chunk), with the chunk size resolved via
        :func:`resolve_block_size` so the buffer respects the memory
        budget.  Execution is steered by ``policy`` (an
        :class:`~repro.core.runtime.ExecutionPolicy`): ``workers > 1``
        fans the chunks out across the fault-tolerant shared-memory pool
        (:mod:`repro.core.parallel`) with bit-for-bit identical,
        order-preserving results, and ``checkpoint_dir`` persists/
        resumes completed shards.
        """
        lengths = np.asarray(walk_lengths, dtype=np.int64).ravel()
        if lengths.size == 0:
            raise ValueError("walk_lengths must be non-empty")
        if np.any(lengths < 0) or np.any(np.diff(lengths) <= 0):
            raise ValueError("walk_lengths must be strictly increasing and nonnegative")
        policy = as_policy(policy)
        src = np.asarray(sources, dtype=np.int64).ravel()
        ref = self.stationary() if reference is None else self._check_vector(
            reference, name="reference"
        )
        with OBS.span(
            "core.variation_curves",
            operator=type(self).__name__,
            sources=int(src.size),
            checkpoints=int(lengths.size),
            max_walk=int(lengths[-1]),
        ) as span:
            if policy.workers is not None or policy.checkpoint_dir is not None:
                from .parallel import Sweep, run_sweep

                state = {
                    "operator": self,
                    "sources": src,
                    "lengths": lengths,
                    "reference": ref,
                    "policy": _shard_policy(policy),
                }
                spec = Sweep(
                    "curves",
                    src.size,
                    _curves_kernel,
                    state,
                    operator=self,
                    sliced=("sources",),
                    fingerprint=(src, lengths),
                )
                out = run_sweep(spec, policy)
                if out is not None:
                    return out
            chunk_rows = resolve_block_size(
                self._num_states,
                policy.block_size,
                memory_budget_bytes=policy_block_bytes(policy),
            )
            telemetry = OBS.enabled
            if telemetry:
                span.set(chunk_rows=int(chunk_rows), path="serial")
                OBS.add("core.evolution.rows", src.size)
                OBS.add("core.evolution.steps", int(lengths[-1]) * src.size)
                OBS.observe("core.evolution.chunk_rows", min(chunk_rows, src.size))
            max_len = int(lengths[-1])
            apply_step = self._resolve_step(policy)
            out = np.empty((src.size, lengths.size), dtype=np.float64)
            for lo in range(0, src.size, chunk_rows):
                chunk = src[lo:lo + chunk_rows]
                x = self.point_mass_block(chunk)
                col = 0
                for t in range(max_len + 1):
                    if col < lengths.size and lengths[col] == t:
                        out[lo:lo + chunk.size, col] = total_variation_to_reference(
                            x, ref, validate=False
                        )
                        if telemetry:
                            # Convergence trace: how far this chunk still is
                            # from the reference at each checkpoint.
                            d = out[lo:lo + chunk.size, col]
                            OBS.event(
                                "tvd_checkpoint",
                                step=t,
                                chunk_lo=int(lo),
                                rows=int(chunk.size),
                                mean_tvd=float(d.mean()),
                                max_tvd=float(d.max()),
                            )
                        col += 1
                    if t < max_len:
                        x = apply_step(x)
            return out

    def hitting_times(
        self,
        sources: Sequence[int],
        epsilon: float,
        *,
        max_steps: int = 10_000,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> HittingTimes:
        """Per-source ``min { t : || ref - pi^{(i)} P^t ||_1 < eps }``.

        The batched analogue of the per-source hitting-time loop: each
        chunk is evolved as a block, and rows whose distance has already
        fallen below ``epsilon`` are *retired* from the block (early-exit
        masking), so the SpMM shrinks as sources converge.  Rows that
        never converge within ``max_steps`` get time ``-1``.
        ``workers > 1`` shards the sources across the shared-memory
        process pool (:mod:`repro.core.parallel`); early-exit masking
        then runs independently inside every worker, and the reassembled
        result is bit-for-bit equal to the serial one.
        """
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        policy = as_policy(policy)
        src = np.asarray(sources, dtype=np.int64).ravel()
        ref = self.stationary() if reference is None else self._check_vector(
            reference, name="reference"
        )
        with OBS.span(
            "core.hitting_times",
            operator=type(self).__name__,
            sources=int(src.size),
            epsilon=float(epsilon),
            max_steps=int(max_steps),
        ) as span:
            if policy.workers is not None or policy.checkpoint_dir is not None:
                from .parallel import Sweep, run_sweep

                state = {
                    "operator": self,
                    "sources": src,
                    "epsilon": epsilon,
                    "max_steps": max_steps,
                    "reference": ref,
                    "policy": _shard_policy(policy),
                }
                spec = Sweep(
                    "hitting",
                    src.size,
                    _hitting_kernel,
                    state,
                    operator=self,
                    sliced=("sources",),
                    fingerprint=(src, float(epsilon), int(max_steps)),
                )
                out = run_sweep(spec, policy)
                if out is not None:
                    return HittingTimes(*out)
            chunk_rows = resolve_block_size(
                self._num_states,
                policy.block_size,
                memory_budget_bytes=policy_block_bytes(policy),
            )
            telemetry = OBS.enabled
            if telemetry:
                span.set(chunk_rows=int(chunk_rows), path="serial")
                OBS.add("core.evolution.rows", src.size)
                OBS.observe("core.evolution.chunk_rows", min(chunk_rows, src.size))
            apply_step = self._resolve_step(policy)
            times = np.full(src.size, -1, dtype=np.int64)
            final = np.empty(src.size, dtype=np.float64)
            for lo in range(0, src.size, chunk_rows):
                chunk = src[lo:lo + chunk_rows]
                x = self.point_mass_block(chunk)
                # Positions (into the global result arrays) still being stepped.
                active = np.arange(lo, lo + chunk.size, dtype=np.int64)
                dist = total_variation_to_reference(x, ref, validate=False)
                hit = dist < epsilon
                times[active[hit]] = 0
                final[active] = dist
                x = x[~hit]
                active = active[~hit]
                last_t = 0
                for t in range(1, max_steps + 1):
                    if active.size == 0:
                        break
                    x = apply_step(x)
                    if telemetry:
                        OBS.add("core.evolution.steps", active.size)
                    dist = total_variation_to_reference(x, ref, validate=False)
                    final[active] = dist
                    hit = dist < epsilon
                    if np.any(hit):
                        if telemetry:
                            # Convergence trace: early-exit masking means
                            # the block shrinks; record every retirement.
                            OBS.event(
                                "rows_retired",
                                step=t,
                                chunk_lo=int(lo),
                                retired=int(hit.sum()),
                                still_active=int(active.size - hit.sum()),
                            )
                        times[active[hit]] = t
                        x = x[~hit]
                        active = active[~hit]
                    last_t = t
                if telemetry:
                    OBS.observe("core.hitting.steps_per_chunk", last_t)
                    OBS.add("core.hitting.unconverged_rows", int(active.size))
            return HittingTimes(times=times, final_distances=final)

    # ------------------------------------------------------------------
    # Distribution-start measurement (uniform-start / warm-start modes)
    # ------------------------------------------------------------------
    def distribution_variation_curves(
        self,
        block: np.ndarray,
        walk_lengths: Sequence[int],
        *,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> np.ndarray:
        """TVD checkpoints for walks started from *given* distributions.

        The generalisation of :meth:`variation_curves` from point masses
        to arbitrary initial rows — the primitive behind the
        uniform-start estimator ("start the walk at a uniformly random
        vertex" collapses ``s`` point-mass sweeps into evolving the one
        uniform row) and behind warm-started measurement generally.
        Rows are chunked exactly like the point-mass path and evolved
        with the policy-selected backend kernel; the sweep is serial by
        design (the callers pass a handful of rows, far below where the
        pool pays for itself).
        """
        lengths = np.asarray(walk_lengths, dtype=np.int64).ravel()
        if lengths.size == 0:
            raise ValueError("walk_lengths must be non-empty")
        if np.any(lengths < 0) or np.any(np.diff(lengths) <= 0):
            raise ValueError("walk_lengths must be strictly increasing and nonnegative")
        policy = as_policy(policy)
        x_all = self._check_block(block)
        ref = self.stationary() if reference is None else self._check_vector(
            reference, name="reference"
        )
        chunk_rows = resolve_block_size(
            self._num_states,
            policy.block_size,
            memory_budget_bytes=policy_block_bytes(policy),
        )
        apply_step = self._resolve_step(policy)
        if OBS.enabled:
            OBS.add("core.evolution.rows", x_all.shape[0])
            OBS.add("core.evolution.steps", int(lengths[-1]) * x_all.shape[0])
        max_len = int(lengths[-1])
        out = np.empty((x_all.shape[0], lengths.size), dtype=np.float64)
        for lo in range(0, x_all.shape[0], chunk_rows):
            x = x_all[lo:lo + chunk_rows].copy()
            col = 0
            for t in range(max_len + 1):
                if col < lengths.size and lengths[col] == t:
                    out[lo:lo + x.shape[0], col] = total_variation_to_reference(
                        x, ref, validate=False
                    )
                    col += 1
                if t < max_len:
                    x = apply_step(x)
        return out

    def distribution_hitting_times(
        self,
        block: np.ndarray,
        epsilon: float,
        *,
        max_steps: int = 10_000,
        reference: Optional[np.ndarray] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> HittingTimes:
        """Per-row ``min { t : || ref - x_i P^t ||_1 < eps }`` for given rows.

        The distribution-start analogue of :meth:`hitting_times`, with
        the same early-exit masking (converged rows retire from the
        block).  Rows that never converge within ``max_steps`` get time
        ``-1``.
        """
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        policy = as_policy(policy)
        x_all = self._check_block(block)
        ref = self.stationary() if reference is None else self._check_vector(
            reference, name="reference"
        )
        chunk_rows = resolve_block_size(
            self._num_states,
            policy.block_size,
            memory_budget_bytes=policy_block_bytes(policy),
        )
        apply_step = self._resolve_step(policy)
        num_rows = x_all.shape[0]
        if OBS.enabled:
            OBS.add("core.evolution.rows", num_rows)
        times = np.full(num_rows, -1, dtype=np.int64)
        final = np.empty(num_rows, dtype=np.float64)
        for lo in range(0, num_rows, chunk_rows):
            x = x_all[lo:lo + chunk_rows].copy()
            active = np.arange(lo, lo + x.shape[0], dtype=np.int64)
            dist = total_variation_to_reference(x, ref, validate=False)
            hit = dist < epsilon
            times[active[hit]] = 0
            final[active] = dist
            x = x[~hit]
            active = active[~hit]
            for t in range(1, max_steps + 1):
                if active.size == 0:
                    break
                x = apply_step(x)
                if OBS.enabled:
                    OBS.add("core.evolution.steps", active.size)
                dist = total_variation_to_reference(x, ref, validate=False)
                final[active] = dist
                hit = dist < epsilon
                if np.any(hit):
                    times[active[hit]] = t
                    x = x[~hit]
                    active = active[~hit]
        return HittingTimes(times=times, final_distances=final)


# ----------------------------------------------------------------------
# Sweep kernels: one shard of each block API, for repro.core.parallel
# ----------------------------------------------------------------------
def _shard_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
    """What one shard runs under: the same numerics, no fan-out, no checkpoints."""
    return replace(policy, workers=None, checkpoint_dir=None)


def _curves_kernel(state, lo: int, hi: int) -> np.ndarray:
    return state["operator"].variation_curves(
        state["sources"],
        state["lengths"],
        reference=state["reference"],
        policy=state["policy"],
    )


def _hitting_kernel(state, lo: int, hi: int):
    result = state["operator"].hitting_times(
        state["sources"],
        state["epsilon"],
        max_steps=state["max_steps"],
        reference=state["reference"],
        policy=state["policy"],
    )
    return result.times, result.final_distances


def _evolve_kernel(state, lo: int, hi: int) -> np.ndarray:
    return state["operator"].evolve_block(
        state["block"], state["steps"], policy=state["policy"]
    )
