"""The service's central guarantee: every serving regime is bit-identical
to direct serial batch computation.

Each test computes an answer the batch way (direct library call, fresh
operator, serial policy) and through the service under some regime —
cold, cached, coalesced, via the batch adapters, workers 1 vs 2, warm
``operator=`` parameter — and asserts ``np.array_equal`` (never
``allclose``): the claim is equality of bits, not closeness.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.mixing import estimate_mixing_time, measure_mixing
from repro.core.parallel import parallel_backend_available
from repro.core.runtime import ExecutionPolicy
from repro.core.spectral import slem
from repro.core.walks import TransitionOperator
from repro.errors import ConfigurationError
from repro.service import OperatorRegistry, QueryEngine, ResultCache
from repro.service.batch import (
    admission_via_service,
    hitting_times_via_service,
    variation_curves_via_service,
)

SOURCES = [0, 3, 7, 11, 19]
WALKS = [1, 2, 4, 8, 16]
EPSILON = 0.25


class TestVariationCurves:
    def test_cold_query_equals_batch(self, cold_engine, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        served = cold_engine.variation_curve("era", SOURCES, WALKS)
        assert np.array_equal(np.asarray(served.value), batch)

    def test_cache_hit_equals_cold(self, engine, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        cold = engine.variation_curve("era", SOURCES, WALKS)
        hit = engine.variation_curve("era", SOURCES, WALKS)
        assert not cold.cache_hit and hit.cache_hit
        assert np.array_equal(np.asarray(hit.value), batch)
        assert np.array_equal(np.asarray(hit.value), np.asarray(cold.value))

    def test_coalesced_per_source_rows_equal_batch(self, engine, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        served = variation_curves_via_service(
            engine, "era", SOURCES, WALKS, per_source=True
        )
        assert np.array_equal(served, batch)

    def test_warm_operator_parameter_equals_cold_construction(self, graphs):
        graph = graphs["era"]
        warm_op = TransitionOperator(graph)
        warm = measure_mixing(graph, WALKS, sources=SOURCES, operator=warm_op)
        cold = measure_mixing(graph, WALKS, sources=SOURCES)
        assert np.array_equal(warm.distances, cold.distances)
        # Same for the hitting-time estimator.
        warm_est = estimate_mixing_time(
            graph, EPSILON, sources=SOURCES, operator=warm_op
        )
        cold_est = estimate_mixing_time(graph, EPSILON, sources=SOURCES)
        assert np.array_equal(warm_est.per_source, cold_est.per_source)

    @pytest.mark.skipif(
        not parallel_backend_available(), reason="needs shared-memory backend"
    )
    def test_workers_two_equals_serial(self, loader, graphs):
        batch = measure_mixing(graphs["era"], WALKS, sources=SOURCES).distances
        with QueryEngine(
            OperatorRegistry(loader=loader),
            ResultCache(max_entries=0),
            policy=ExecutionPolicy(workers=2),
        ) as engine:
            served = engine.variation_curve("era", SOURCES, WALKS)
            assert np.array_equal(np.asarray(served.value), batch)


class TestMixingTimes:
    def test_point_mass_queries_equal_batch_hitting_times(self, engine, graphs):
        direct = TransitionOperator(graphs["era"]).hitting_times(SOURCES, EPSILON)
        served = hitting_times_via_service(engine, "era", SOURCES, EPSILON)
        assert np.array_equal(served.times, direct.times)
        assert np.array_equal(served.final_distances, direct.final_distances)

    def test_single_query_fields(self, cold_engine, graphs):
        direct = TransitionOperator(graphs["era"]).hitting_times([7], EPSILON)
        served = cold_engine.mixing_time("era", 7, EPSILON)
        assert served.value["source"] == 7
        assert served.value["time"] == int(direct.times[0])
        assert served.value["final_distance"] == float(direct.final_distances[0])

    def test_coalesced_and_direct_agree(self, loader, graphs):
        direct = TransitionOperator(graphs["era"]).hitting_times(SOURCES, EPSILON)
        # Large window + threaded submission forces actual coalescing.
        with QueryEngine(
            OperatorRegistry(loader=loader),
            ResultCache(max_entries=0),
            coalesce_window=0.1,
        ) as engine:
            served = hitting_times_via_service(engine, "era", SOURCES, EPSILON)
            assert engine.stats()["coalesced_requests"] > 0
        assert np.array_equal(served.times, direct.times)
        assert np.array_equal(served.final_distances, direct.final_distances)


class TestSlemAndAdmission:
    def test_slem_equals_direct(self, cold_engine, graphs):
        assert cold_engine.slem("era").value == float(slem(graphs["era"]))

    def test_slem_cache_hit_identical(self, engine, graphs):
        cold = engine.slem("era")
        hit = engine.slem("era")
        assert hit.cache_hit
        assert hit.value == cold.value == float(slem(graphs["era"]))

    def test_admission_equals_direct_sybillimit(self, cold_engine, graphs):
        from repro.sybil.scenario import no_attack_scenario
        from repro.sybil.sybillimit import SybilLimit, SybilLimitParams

        suspects = [1, 2, 5, 9]
        protocol = SybilLimit(
            no_attack_scenario(graphs["era"]),
            SybilLimitParams(route_length=4),
            seed=7,
        )
        outcome = protocol.admission_sweep(0, [4], suspects=suspects, seed=7)[0]
        served = admission_via_service(
            cold_engine, "era", suspects, 4, verifier=0, seed=7
        )
        assert served["accepted"] == [bool(a) for a in outcome.accepted]
        assert served["intersected"] == [bool(i) for i in outcome.intersected]
        assert served["admission_rate"] == float(outcome.admission_rate)

    def test_admission_is_never_coalesced(self, engine):
        # Two admission queries with different suspect sets, submitted
        # inside one coalescing window, must not share a sweep.
        a = engine.admission("era", [1, 2], 4, seed=3)
        b = engine.admission("era", [1, 2, 5], 4, seed=3)
        assert a.batch_size == 1 and b.batch_size == 1
        assert not a.coalesced and not b.coalesced
        assert a.fingerprint != b.fingerprint


class TestCacheKeySeparation:
    def test_same_params_different_dataset_do_not_collide(self, engine):
        a = engine.variation_curve("era", SOURCES[:2], WALKS)
        b = engine.variation_curve("erb", SOURCES[:2], WALKS)
        assert a.fingerprint != b.fingerprint
        assert not b.cache_hit

    def test_epsilon_changes_mixing_key(self, engine):
        a = engine.mixing_time("era", 0, 0.25)
        b = engine.mixing_time("era", 0, 0.125)
        assert a.fingerprint != b.fingerprint

    def test_laziness_changes_key_and_answer_channel(self, engine):
        a = engine.variation_curve("bridge", [0], [2, 4], laziness=0.0)
        b = engine.variation_curve("bridge", [0], [2, 4], laziness=0.5)
        assert a.fingerprint != b.fingerprint
        assert not np.array_equal(np.asarray(a.value), np.asarray(b.value))


class TestFailureIsolation:
    def test_out_of_range_query_never_fails_its_batch_mate(self, loader, graphs):
        """A valid and an out-of-range query arriving in one coalescing
        window: the valid one gets its serial answer, the invalid one a
        caller error, instead of both failing in one shared sweep."""
        n = graphs["era"].num_nodes
        serial = TransitionOperator(graphs["era"]).hitting_times([3], EPSILON)
        barrier = threading.Barrier(2)
        outcomes = {}

        def submit(name, source):
            barrier.wait()
            try:
                outcomes[name] = engine.mixing_time("era", source, EPSILON)
            except Exception as exc:
                outcomes[name] = exc

        with QueryEngine(
            OperatorRegistry(capacity=2, loader=loader),
            ResultCache(max_entries=16),
            coalesce_window=0.25,
        ) as engine:
            threads = [
                threading.Thread(target=submit, args=("valid", 3)),
                threading.Thread(target=submit, args=("invalid", n + 4)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert isinstance(outcomes["invalid"], ConfigurationError)
        valid = outcomes["valid"]
        assert valid.value["time"] == int(serial.times[0])
        assert valid.value["final_distance"] == float(serial.final_distances[0])
