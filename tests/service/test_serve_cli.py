"""``repro-mixing serve`` end to end, the way a deployment runs it.

The command boots the HTTP service on an ephemeral port; concurrent
clients mixing variation-curve and point-mass mixing-time queries must
get answers bit-identical to the serial batch oracle, at one worker and
at two.  The engine and wire contracts are pinned in detail by the rest
of ``tests/service/``; this test covers the CLI + HTTP path as a whole.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import TransitionOperator
from repro.core.mixing import measure_mixing
from repro.datasets import load_cached
from repro.service import HTTPServiceClient

WALKS = [1, 2, 5, 10]
SOURCES = [0, 7, 19]
EPSILON = 0.25
CLIENTS = 8


@pytest.fixture(scope="module")
def oracle():
    graph = load_cached("physics1")
    curves = measure_mixing(graph, WALKS, sources=SOURCES).distances
    times = TransitionOperator(graph).hitting_times(list(range(CLIENTS)), EPSILON)
    return curves, times.times


def _serve(workers: int) -> subprocess.Popen:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_concurrent_answers_equal_batch(workers, oracle):
    curves, times = oracle
    proc = _serve(workers)
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("serving on http://"), banner
        host, port = banner.rsplit("/", 1)[1].rsplit(":", 1)
        errors = []

        def client(i):
            try:
                with HTTPServiceClient(host, int(port)) as c:
                    if i % 2 == 0:
                        reply = c.variation_curve("physics1", SOURCES, WALKS)
                        got = np.asarray(reply.value, dtype=np.float64)
                        assert np.array_equal(got, curves)
                    else:
                        reply = c.mixing_time("physics1", i, EPSILON)
                        assert reply.value["time"] == int(times[i])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()
