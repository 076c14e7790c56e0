"""The service workload's schedule and reply classifier."""

from collections import Counter

import json

import pytest

import common
import service
from service import Catalog, Request, build_schedule, classify

CATALOG = Catalog(
    nodes={"physics1": 1952, "facebook": 4000},
    absent_edges=[(i, i + 500) for i in range(64)],
    temporal_end=600,
)


def _plain(schedule):
    return [(r.index, r.due, r.conn, r.payload, r.valid) for r in schedule]


def test_schedule_is_a_pure_function_of_the_seed():
    first = build_schedule(7, 14.0, CATALOG)
    assert _plain(first) == _plain(build_schedule(7, 14.0, CATALOG))
    assert _plain(first) != _plain(build_schedule(8, 14.0, CATALOG))


def test_mix_composition_is_fixed_and_only_order_varies():
    kinds = [Counter(r.kind for r in build_schedule(seed, 14.0, CATALOG)) for seed in (1, 2, 3)]
    assert kinds[0] == kinds[1] == kinds[2]
    assert set(kinds[0]) == set(service.QUERY_TYPES)
    assert kinds[0]["append_delta"] == service.APPENDS


def test_schedule_shape():
    seconds = json.loads((common.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    schedule = build_schedule(5, seconds, CATALOG)
    dues = [r.due for r in schedule]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < service.WARMUP_S + seconds
    timed = [r for r in schedule if r.due >= service.WARMUP_S]
    assert len(timed) >= 200  # ten samples beyond p95
    appends = [r for r in schedule if r.kind == "append_delta"]
    assert all(r.conn == 0 for r in appends)
    stamps = [r.payload["timestamp"] for r in appends]
    assert stamps == sorted(stamps) and stamps[0] > CATALOG.temporal_end
    inserted = [tuple(e) for r in appends for e in r.payload["insert"]]
    assert len(inserted) == len(set(inserted))
    assert set(inserted) <= set(CATALOG.absent_edges)
    invalid = [r for r in schedule if not r.valid]
    assert invalid, "the out-of-range caller errors stay in the mix"
    for r in invalid:
        assert r.kind == "mixing_time"
        assert r.payload["source"] >= CATALOG.nodes[r.payload["dataset"]]
    suspects = [tuple(r.payload["suspects"]) for r in schedule if r.kind == "admission"]
    assert len(suspects) == len(set(suspects))
    assert all(r.payload["schema"] == service.SCHEMA for r in schedule)


def _request(status, *, valid=True, value=None, kind="slem"):
    r = Request(0, 0.0, 0, {"type": kind, "dataset": "physics1"}, valid)
    r.status = status
    r.reply = None if value is None else {"value": value, "graph_version": "v"}
    return r


def expected(request):
    return 0.5


@pytest.mark.parametrize("request_, verdict", [
    (_request(200, value=0.5), "ok"),
    (_request(200, value=0.5000000000000001), "wrong"),
    (_request(400, valid=False), "ok"),
    (_request(422, valid=False), "ok"),
    (_request(400), "refused"),
    (_request(500), "5xx_valid"),
    (_request(500, valid=False), "5xx_invalid"),
    (_request(503), "5xx_valid"),
    (_request(None), "timeout"),
    (_request(None, valid=False), "timeout"),
    (_request(200, valid=False, value=0.5), "wrong"),
])
def test_classifier(request_, verdict):
    assert classify(request_, expected) == verdict


def test_append_reply_is_checked_by_its_version():
    r = Request(0, 0.0, 0, {"type": "append_delta", "dataset": "t"})
    r.status, r.reply = 200, {"graph_version": "abc", "value": {}}
    assert classify(r, lambda _: "abc") == "ok"
    assert classify(r, lambda _: "abd") == "wrong"


def test_process_cpu_counts_this_process():
    import os

    before = common.process_cpu_s(os.getpid())
    deadline = before + 0.05
    while common.process_cpu_s(os.getpid()) < deadline:
        pass
    assert common.process_cpu_s(os.getpid()) >= deadline
