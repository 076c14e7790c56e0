"""Self-time folding on synthetic span trees."""

import pytest

import fold
from result import Result


def _proc(threads, *, main=True, counters=None):
    return {"pid": 1, "main": main, "threads": threads, "counters": counters or {}}


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] > b [1, 4], c [5, 9] > d [6, 7]
    spans = [
        ["a", 0.0, 10.0, -1, None, None],
        ["b", 1.0, 4.0, 0, None, None],
        ["c", 5.0, 9.0, 0, None, None],
        ["d", 6.0, 7.0, 2, None, None],
    ]
    own = {name: self_s for name, _, self_s, *_ in fold.thread_self_times(spans)}
    assert own == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0})


def test_folded_totals_across_threads_processes_and_requests():
    main = _proc({
        "0": [["x", 0.0, 4.0, -1, None, 3], ["y", 1.0, 2.0, 0, None, 5]],
        "1": [["service.request", 0.0, 2.0, -1, "7", None],
              ["service.engine", 0.5, 1.5, 0, "7", None]],
    }, counters={"k": 2})
    worker = _proc({"0": [["y", 0.0, 3.0, -1, None, 1]]}, main=False, counters={"k": 1})
    folded = fold.Folded([main, worker])
    assert folded.calls["y"] == 2
    assert folded.self_s["y"] == pytest.approx(4.0)
    assert folded.self_s["x"] == pytest.approx(3.0)
    assert folded.amount["y"] == 6 and folded.amount["x"] == 3
    assert folded.counters["k"] == 3
    # Per-layer self time of the main process alone, and of tagged requests.
    assert folded.main_self_s == pytest.approx({"x": 3.0, "y": 1.0, "service.request": 1.0,
                                                "service.engine": 1.0})
    assert folded.request_self_s == pytest.approx({"service.request": 1.0, "service.engine": 1.0})
    assert folded.request_s == {"7": pytest.approx(2.0)}
    assert folded.self_s["service.request"] == pytest.approx(1.0)


def test_unfinished_spans_are_dropped_but_children_kept():
    spans = [["a", 0.0, None, -1, None, None], ["b", 1.0, 2.0, 0, None, None]]
    assert [row[0] for row in fold.thread_self_times(spans)] == ["b"]


def test_attribution_counts_only_reported_layers():
    # core.mixing.measure is reported; core.incremental.cold and
    # service.request (the handler's own time) are not.
    result = Result("x")
    result.attribution(10.0, {"core.mixing.measure": 2.0, "core.backends.step": 5.0,
                              "core.incremental.cold": 1.0, "service.request": 0.5},
                       extra_s=1.0)
    assert result.values["unattributed.self_s"] == pytest.approx(2.0)
    assert result.values["attribution.share"] == pytest.approx(0.8)
