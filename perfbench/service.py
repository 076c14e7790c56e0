"""``service-mixed``: an open-loop, seeded HTTP mix against ``repro-mixing serve``.

The schedule (arrival times, request bodies, connection of each request)
is a pure function of the seed and a small catalog of node counts and
candidate edges read from the program's own datasets.  One generator
process drives it over ``CONNECTIONS`` keep-alive ``http.client``
connections speaking wire schema v2; each request is timed from the
moment it was due, so a stalled connection delays the requests queued
behind it.  Every reply is checked against a serial library oracle.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

import common
import fold
from result import Result

SCHEMA = "repro.service.query/v2"
#: Mean arrival rate of the open loop; well under the measured capacity
#: of a default ``serve`` on two cores (see RATIONALE.json).
RATE_RPS = 9.5
#: The schedule opens with this many seconds of the same traffic, sent
#: and checked but not timed: the result cache starts empty, and a
#: long-lived service does not pay its cold start on every request.
WARMUP_S = 2.0
CONNECTIONS = 2
#: Correct replies slower than this (from their due time) miss goodput.
LATENCY_LIMIT_MS = 1000.0
REQUEST_TIMEOUT_S = 30.0
POINT_DATASETS = ("physics1", "facebook")
#: How often each point dataset is asked about: a physics1 miss walks
#: ~170 steps, a facebook miss ~13.
POINT_SHARES = (0.15, 0.85)
EPSILON = 0.25
CURVE_WALKS = (1, 5, 10, 20, 40)
ZIPF_EXPONENT = 1.2
SLEM_DATASET = "facebook"
ADMISSION_DATASET = "physics1"
ADMISSION_ROUTE = 40
ADMISSION_SEED = 7
TEMPORAL = "temporal_enron"
SLEM_TREND_TIMES = (600, 1000)
MIXING_TREND_TIMES = (600, 1000)
TREND_WALKS = (1, 5, 10, 20)
TREND_SOURCES = 10
APPENDS = 4
APPEND_EDGES = 3
#: Request mix by share of arrivals; the rest (49%) are single point-mass
#: ``mixing_time`` queries, and the appends are placed apart.  A ``pair``
#: arrival carries two same-bucket point-mass queries at once, one per
#: connection, which is what lets coalescing happen.
MIX = (
    ("pair", 0.20),
    ("variation_curve", 0.12),
    ("slem", 0.05),
    ("admission", 0.02),
    ("slem_trend", 0.05),
    ("mixing_trend", 0.05),
    ("out_of_range", 0.02),
)
QUERY_TYPES = (
    "mixing_time", "variation_curve", "slem", "admission",
    "slem_trend", "mixing_trend", "append_delta",
)


@dataclass
class Request:
    index: int
    due: float
    conn: int
    payload: dict
    valid: bool = True
    #: Filled in by ``drive``.
    send: float = None
    recv: float = None
    status: int = None
    reply: dict = None
    ok: bool = False

    @property
    def kind(self) -> str:
        return self.payload["type"]


@dataclass
class Catalog:
    """What the schedule needs to know about the program's datasets."""

    nodes: dict
    #: Candidate inserts for ``append_delta``: edges absent from the
    #: temporal graph's last snapshot, in canonical ``u < v`` form.
    absent_edges: list
    temporal_end: int


def _zipf_sampler(rng, n):
    """Draw node ids with Zipf-skewed popularity over a seeded permutation."""
    order = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    return lambda size=None: order[rng.choice(n, size=size, p=weights)]


def _arrival_kinds(rng, count):
    """Exactly ``round(share * count)`` arrivals of each kind (the rest point
    queries), each kind spread evenly over the run with seeded jitter, so
    that seeds differ in detail but not in how the slow kinds bunch up."""
    keyed = []
    for kind, share in MIX:
        n = int(round(share * count))
        keyed += [((i + rng.uniform()) / n, kind) for i in range(n)]
    n = count - len(keyed)
    keyed += [((i + rng.uniform()) / n, "mixing_time") for i in range(n)]
    return [kind for _, kind in sorted(keyed)]


def build_schedule(seed: int, seconds: float, catalog: Catalog):
    """The whole request list of one run: a pure function of its arguments.

    The schedule lasts ``WARMUP_S + seconds``.  Arrivals are open-loop at
    a constant ``RATE_RPS`` (no bursts beyond the pairs); the mix has a
    fixed composition, spread evenly in a seeded order, so seeds differ
    in order and in the nodes asked about, not in how much of each kind
    of work arrives or when.
    """
    rng = np.random.default_rng(seed)
    zipf = {name: _zipf_sampler(rng, catalog.nodes[name]) for name in POINT_DATASETS}
    count = int(round(RATE_RPS * (WARMUP_S + seconds)))
    times = np.arange(count) / RATE_RPS
    kinds = _arrival_kinds(rng, count)
    plan = []  # (due, conn, payload, valid)
    used_suspects = set()
    for i, (t, kind) in enumerate(zip(times.tolist(), kinds)):
        if kind == "pair":
            dataset = _point_dataset(rng)
            for conn in range(CONNECTIONS):
                plan.append((t, conn, _mixing_time(dataset, int(zipf[dataset]())), True))
            continue
        payload, valid = _single(kind, rng, zipf, catalog, used_suspects)
        plan.append((t, i % CONNECTIONS, payload, valid))
    picks = rng.choice(len(catalog.absent_edges), APPENDS * APPEND_EDGES, replace=False)
    for k in range(APPENDS):
        edges = [list(catalog.absent_edges[i]) for i in picks[k * APPEND_EDGES:(k + 1) * APPEND_EDGES]]
        payload = {
            "type": "append_delta",
            "dataset": TEMPORAL,
            "timestamp": catalog.temporal_end + 10 * (k + 1),
            "insert": edges,
        }
        # Appends share connection 0 so they reach the server in order.
        plan.append((WARMUP_S + seconds * (k + 1) / (APPENDS + 1), 0, payload, True))
    plan.sort(key=lambda item: item[0])
    return [
        Request(i, due, conn, dict(payload, schema=SCHEMA), valid)
        for i, (due, conn, payload, valid) in enumerate(plan)
    ]


def _mixing_time(dataset, source):
    return {"type": "mixing_time", "dataset": dataset, "source": source, "epsilon": EPSILON}


def _point_dataset(rng):
    return POINT_DATASETS[int(rng.choice(len(POINT_DATASETS), p=POINT_SHARES))]


def _single(kind, rng, zipf, catalog, used_suspects):
    dataset = _point_dataset(rng)
    if kind == "mixing_time":
        return _mixing_time(dataset, int(zipf[dataset]())), True
    if kind == "out_of_range":
        # A realistic caller error: a node id past the end of the graph.
        source = catalog.nodes[dataset] + int(rng.integers(0, 1000))
        return _mixing_time(dataset, source), False
    if kind == "variation_curve":
        count = int(rng.integers(1, 5))
        sources = sorted({int(s) for s in zipf[dataset](count)})
        return {"type": "variation_curve", "dataset": dataset, "sources": sources,
                "walk_lengths": list(CURVE_WALKS)}, True
    if kind == "slem":
        # facebook only: physics1's SLEM is ~0.997, and its one cold
        # Lanczos solve (~0.5 s) would stall a connection long enough to
        # make the tail a matter of where in the schedule it lands.
        return {"type": "slem", "dataset": SLEM_DATASET}, True
    if kind == "admission":
        n = catalog.nodes[ADMISSION_DATASET]
        while True:
            suspects = tuple(sorted(int(s) for s in rng.choice(np.arange(1, n), 4, replace=False)))
            if suspects not in used_suspects:
                used_suspects.add(suspects)
                break
        return {"type": "admission", "dataset": ADMISSION_DATASET, "suspects": list(suspects),
                "route_length": ADMISSION_ROUTE, "seed": ADMISSION_SEED}, True
    if kind == "slem_trend":
        return {"type": "slem_trend", "dataset": TEMPORAL, "times": list(SLEM_TREND_TIMES)}, True
    return {"type": "mixing_trend", "dataset": TEMPORAL, "times": list(MIXING_TREND_TIMES),
            "walk_lengths": list(TREND_WALKS), "num_sources": TREND_SOURCES}, True


# ----------------------------------------------------------------------
# Classifying replies
# ----------------------------------------------------------------------
def classify(request: Request, expected) -> str:
    """``"ok"`` or the failure cause of one request.

    A 4xx reply to an invalid request is a correct answer; a 5xx, a
    wrong answer, a timeout (``status is None``) or a refused valid
    request is a failure.  ``expected(request)`` gives the oracle's value.
    """
    status = request.status
    if status is None:
        return "timeout"
    if status >= 500:
        return "5xx_valid" if request.valid else "5xx_invalid"
    if 400 <= status < 500:
        return "refused" if request.valid else "ok"
    if status != 200 or not request.valid:
        return "wrong"
    return "ok" if request.reply is not None and _matches(request, expected) else "wrong"


def _matches(request, expected) -> bool:
    reply = request.reply
    if request.kind == "append_delta":
        return reply.get("graph_version") == expected(request)
    return reply.get("value") == expected(request)


def _jsonable(value):
    """The exact JSON form a wire reply carries (floats round-trip exactly)."""
    return json.loads(json.dumps(value, default=lambda v: v.tolist()))


class Oracle:
    """Serial library answers for every request of a schedule."""

    def __init__(self, schedule, cache_dir):
        from repro.graph import load_npz

        self.graphs = {
            name: load_npz(cache_dir / f"{name}-default.npz")
            for name in sorted({r.payload["dataset"] for r in schedule if r.kind in
                                ("mixing_time", "variation_curve", "slem", "admission")})
        }
        self.values = {}
        self._point(schedule)
        self._trends(schedule)

    def __call__(self, request):
        p = request.payload
        kind = request.kind
        if kind == "mixing_time":
            return self.values[("mixing_time", p["dataset"], p["source"])]
        if kind == "variation_curve":
            rows = self.values[("variation_curve", p["dataset"])]
            return [rows[s] for s in p["sources"]]
        if kind == "slem":
            return self.values[("slem", p["dataset"])]
        if kind == "admission":
            return self.values[("admission", tuple(p["suspects"]))]
        if kind == "append_delta":
            return self.versions[self.append_index[request.index] + 1]
        version = (request.reply or {}).get("graph_version")
        return self.values.get((kind, version), "<unknown graph_version>")

    def _point(self, schedule):
        from repro.core import TransitionOperator
        from repro.core.mixing import measure_mixing
        from repro.core.spectral import slem

        valid = [r for r in schedule if r.valid]
        for name, graph in self.graphs.items():
            operator = TransitionOperator(graph)
            sources = sorted({r.payload["source"] for r in valid
                              if r.kind == "mixing_time" and r.payload["dataset"] == name})
            if sources:
                hit = operator.hitting_times(sources, EPSILON, max_steps=10_000)
                for i, s in enumerate(sources):
                    self.values[("mixing_time", name, s)] = _jsonable({
                        "source": s, "time": int(hit.times[i]),
                        "final_distance": float(hit.final_distances[i]), "epsilon": EPSILON,
                    })
            curve_sources = sorted({s for r in valid if r.kind == "variation_curve"
                                    and r.payload["dataset"] == name for s in r.payload["sources"]})
            if curve_sources:
                curves = measure_mixing(graph, list(CURVE_WALKS), sources=curve_sources).distances
                self.values[("variation_curve", name)] = {
                    s: _jsonable(curves[i]) for i, s in enumerate(curve_sources)
                }
            if any(r.kind == "slem" and r.payload["dataset"] == name for r in valid):
                self.values[("slem", name)] = float(slem(graph))
        for r in valid:
            if r.kind == "admission":
                self.values[("admission", tuple(r.payload["suspects"]))] = self._admission(r.payload)

    def _admission(self, p):
        from repro.sybil.scenario import no_attack_scenario
        from repro.sybil.sybillimit import SybilLimit, SybilLimitParams

        params = SybilLimitParams(route_length=p["route_length"], num_instances=None)
        protocol = SybilLimit(no_attack_scenario(self.graphs[p["dataset"]]), params, seed=p["seed"])
        outcome = protocol.admission_sweep(
            0, [p["route_length"]], suspects=list(p["suspects"]), seed=p["seed"]
        )[0]
        return _jsonable({
            "verifier": int(outcome.verifier),
            "suspects": [int(s) for s in outcome.suspects],
            "accepted": [bool(a) for a in outcome.accepted],
            "intersected": [bool(i) for i in outcome.intersected],
            "route_length": int(outcome.route_length),
            "num_instances": int(outcome.num_instances),
            "admission_rate": float(outcome.admission_rate),
        })

    def _trends(self, schedule):
        """Trend answers at every version the appends can produce."""
        from repro.core.incremental import mixing_trend, slem_trend
        from repro.datasets import load_temporal_cached
        from repro.graph.temporal import EdgeDelta

        appends = [r for r in schedule if r.kind == "append_delta"]
        self.append_index = {r.index: k for k, r in enumerate(appends)}
        loaded = load_temporal_cached(TEMPORAL)
        temporal = loaded.compact(loaded.base_time)
        self.versions = [temporal.version]
        kinds = {r.kind for r in schedule}
        for k in range(len(appends) + 1):
            if k:
                p = appends[k - 1].payload
                self.versions.append(temporal.append(EdgeDelta(p["timestamp"], insert=p["insert"])))
            version = self.versions[-1]
            if "slem_trend" in kinds:
                t = slem_trend(temporal, times=SLEM_TREND_TIMES)
                self.values[("slem_trend", version)] = _jsonable({
                    "times": [int(x) for x in t.times], "slem": t.slem.tolist(),
                    "lambda2": t.lambda2.tolist(), "lambda_min": t.lambda_min.tolist(),
                    "warm_started": [bool(w) for w in t.warm_started],
                    "matvecs": [int(m) for m in t.matvecs],
                })
            if "mixing_trend" in kinds:
                t = mixing_trend(temporal, list(TREND_WALKS), num_sources=TREND_SOURCES,
                                 times=MIXING_TREND_TIMES)
                self.values[("mixing_trend", version)] = _jsonable({
                    "times": [int(x) for x in t.times],
                    "walk_lengths": [int(w) for w in t.walk_lengths],
                    "sources": [int(s) for s in t.sources],
                    "worst_case": t.worst_case().tolist(),
                    "average_case": t.average_case().tolist(),
                })


def read_catalog(cache_dir) -> Catalog:
    from repro.datasets import load_temporal_cached
    from repro.graph import load_npz

    nodes = {name: load_npz(cache_dir / f"{name}-default.npz").num_nodes for name in POINT_DATASETS}
    temporal = load_temporal_cached(TEMPORAL)
    end = temporal.times()[-1]
    last = temporal.at(end)
    rows = np.repeat(np.arange(last.num_nodes), np.diff(last.indptr))
    present = {(int(u), int(v)) for u, v in zip(rows, last.indices) if u < v}
    rng = np.random.default_rng(0)
    absent = set()
    while len(absent) < 64:
        u, v = sorted(int(x) for x in rng.choice(last.num_nodes, 2, replace=False))
        if (u, v) not in present:
            absent.add((u, v))
    return Catalog(nodes=nodes, absent_edges=sorted(absent), temporal_end=int(end))


# ----------------------------------------------------------------------
# The server and the load
# ----------------------------------------------------------------------
class Server:
    """One ``repro-mixing serve`` child on an ephemeral port."""

    def __init__(self, argv, env, cwd):
        self._err = open(cwd / "stderr.txt", "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=self._err,
            start_new_session=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], common.CHILD_TIMEOUT_S)
        banner = self.proc.stdout.readline().decode() if ready else ""
        if not banner.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        host, port = banner.strip().rsplit("/", 1)[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.peak_rss_mb = None

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request(method, path, body=None if body is None else json.dumps(body))
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def wait_healthy(self):
        deadline = time.perf_counter() + common.CHILD_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if self.request("GET", "/health")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /health")

    def stop(self):
        """SIGINT (the documented clean shutdown), then reap; kill on timeout."""
        if self.proc.returncode is None:
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            _, self.peak_rss_mb, _ = common.reap(self.proc, self.start, timeout=30.0)
        self.proc.stdout.close()
        self._err.close()


def drive(server, schedule):
    """Send the schedule open-loop; fills in each request's timings and reply."""
    by_conn = [[r for r in schedule if r.conn == c] for c in range(CONNECTIONS)]
    t0 = time.perf_counter() + 0.05

    def worker(requests):
        conn = None
        for r in requests:
            delay = t0 + r.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if conn is None:
                conn = http.client.HTTPConnection(server.host, server.port,
                                                  timeout=REQUEST_TIMEOUT_S)
            body = json.dumps(r.payload)
            r.send = time.perf_counter() - t0
            try:
                conn.request("POST", "/query", body=body, headers={
                    "Content-Type": "application/json", "X-Request-Id": str(r.index)})
                response = conn.getresponse()
                raw = response.read()
                r.recv = time.perf_counter() - t0
                r.status = response.status
                r.reply = json.loads(raw) if raw else None
            except (OSError, http.client.HTTPException, ValueError):
                r.recv = time.perf_counter() - t0
                r.status = None
                conn.close()
                conn = None
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=worker, args=(reqs,)) for reqs in by_conn]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return max(r.recv for r in schedule)


WARM_QUERIES = (
    # Operators and the temporal journal get built; the cache gets only
    # entries the mix never asks for (walk length 0).
    *({"type": "variation_curve", "dataset": d, "sources": [0], "walk_lengths": [0]}
      for d in POINT_DATASETS),
    {"type": "mixing_trend", "dataset": TEMPORAL, "times": [600], "walk_lengths": [0],
     "num_sources": 1},
)


class ServiceMixed:
    name = "service-mixed"

    #: Timed set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed, work, traced):
        self.seed = seed
        self.work = work
        if traced:
            self.setup_repeats = 1
        self.setup_times = []
        self.home = work.fresh("home")
        self.server = None

    def _start(self, trace_dir=None):
        """Populate a fresh cache, start the server, wait for /health, warm it."""
        cache = self.work.fresh("cache")
        env = common.child_env(cache, self.home)
        start = time.perf_counter()
        child = common.run_child(
            common.python_child("populate", "--names", ",".join(POINT_DATASETS)),
            env, self.work.fresh("setup"),
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{child.stderr}")
        argv = (common.python_cli("serve", "--port", "0") if trace_dir is None else
                common.python_child("--trace-dir", trace_dir, "cli", "serve", "--port", "0"))
        server = Server(argv, env, self.work.fresh("server"))
        try:
            server.wait_healthy()
            for query in WARM_QUERIES:
                status, reply = server.request("POST", "/query", dict(query, schema=SCHEMA))
                if status != 200:
                    raise RuntimeError(f"warm-up query failed: {status} {reply}")
        except BaseException:
            server.stop()
            raise
        return server, cache, time.perf_counter() - start

    def setup(self):
        for i in range(self.setup_repeats):
            server, cache, elapsed = self._start()
            self.setup_times.append(elapsed)
            if i + 1 < self.setup_repeats:
                server.stop()
        self.server, self.cache = server, cache

    def close(self):
        if self.server is not None:
            self.server.stop()

    def _load(self, seconds):
        self.catalog = read_catalog(self.cache)
        schedule = build_schedule(self.seed, seconds, self.catalog)
        return schedule, Oracle(schedule, self.cache)

    def _run(self, server, schedule, oracle, result):
        wall = drive(server, schedule)
        for r in schedule:
            verdict = classify(r, oracle)
            r.ok = verdict == "ok"
            result.count(verdict)
        return wall

    def measure(self, seconds) -> Result:
        result = Result(self.name)
        schedule, oracle = self._load(seconds)
        # The reference computation runs in bursts beside the whole load,
        # so both read the machine at the same moments.
        ref_dir = self.work.fresh("reference")
        ref_start = time.perf_counter()
        with open(ref_dir / "stdout.txt", "wb") as out:
            reference = subprocess.Popen(
                common.python_child("reference-requests", "--seconds", WARMUP_S + seconds),
                env=common.child_env(ref_dir, ref_dir), cwd=ref_dir, stdout=out,
                stderr=subprocess.DEVNULL, start_new_session=True,
            )
        try:
            cpu_before = common.process_cpu_s(self.server.proc.pid)
            wall = self._run(self.server, schedule, oracle, result) - WARMUP_S
            server_cpu = common.process_cpu_s(self.server.proc.pid) - cpu_before
        except BaseException:
            common.kill_group(reference)
            raise
        finally:
            common.reap(reference, ref_start)
        if reference.returncode != 0:
            raise RuntimeError("reference computation failed")
        ref_cpu = float((ref_dir / "stdout.txt").read_text())
        self.server.stop()
        timed = [r for r in schedule if r.due >= WARMUP_S]
        latencies = [r.recv - r.due for r in timed]
        good = sum(1 for r in timed if r.ok and 1000.0 * (r.recv - r.due) <= LATENCY_LIMIT_MS)
        result.metric("setup_s", statistics.median(self.setup_times))
        result.metric("op_cpu_ref", server_cpu / len(schedule) / ref_cpu)
        result.metric("peak_rss_mb", self.server.peak_rss_mb)
        result.metric("wall_s", wall)
        result.metric("op_cpu_ms", 1000.0 * server_cpu / len(schedule))
        result.metric("goodput_rps", good / wall)
        p95 = common.upper_percentile(latencies, 0.95)
        result.detail.update(
            samples=len(latencies),
            p50_ms=1000.0 * statistics.median(latencies),
            p90_ms=1000.0 * common.upper_percentile(latencies, 0.90),
            p95_ms=1000.0 * p95,
            beyond_p95=sum(1 for x in latencies if x > p95),
            server_cpu_s=server_cpu,
            reference_cpu_s=ref_cpu,
            setup_times_s=self.setup_times,
            rate_rps=RATE_RPS,
            warmup_s=WARMUP_S,
            latency_limit_ms=LATENCY_LIMIT_MS,
        )
        return result

    def trace(self, seconds) -> Result:
        """The same schedule untraced, then against a traced server."""
        result = Result(self.name)
        schedule, oracle = self._load(seconds)
        plain = Result(self.name)
        self._run(self.server, schedule, oracle, plain)
        self.server.stop()
        plain_rt = sum(r.recv - r.send for r in schedule)
        trace_dir = self.work.fresh("trace")
        self.server, self.cache, _ = self._start(trace_dir)
        schedule = build_schedule(self.seed, seconds, self.catalog)
        self._run(self.server, schedule, oracle, result)
        self.server.stop()
        folded = fold.Folded(fold.load_traces(trace_dir))
        result.layers(folded)
        self._service_layers(result, schedule, folded)
        result.metric("trace.overhead_s", sum(r.recv - r.send for r in schedule) - plain_rt)
        return result

    def _service_layers(self, result, schedule, folded):
        rt = sum(r.recv - r.send for r in schedule)
        transport = sum(
            (r.recv - r.send) - folded.request_s[str(r.index)]
            for r in schedule if str(r.index) in folded.request_s
        )
        result.metric("service.transport.self_s", transport)
        result.attribution(rt, folded.request_self_s, extra_s=transport)
        replies = [r.reply for r in schedule if r.status == 200 and r.reply]
        point = [r.reply for r in schedule if r.status == 200 and r.reply
                 and r.kind in ("mixing_time", "variation_curve")]
        with_hit = [x for x in replies if "cache_hit" in x]
        result.metric("service.cache.hit_ratio",
                      sum(x["cache_hit"] for x in with_hit) / max(len(with_hit), 1))
        result.metric("service.coalesce.share",
                      sum(x["coalesced"] for x in point) / max(len(point), 1))
        result.metric("service.coalesce.batch_size.mean",
                      sum(x["batch_size"] for x in point) / max(len(point), 1))
        handled = sum(folded.request_s.values())
        for kind in QUERY_TYPES:
            of_kind = [r for r in schedule if r.kind == kind]
            lat = [r.recv - r.due for r in of_kind]
            result.metric(f"service.type.{kind}.p50_ms", 1000.0 * statistics.median(lat) if lat else 0.0)
            result.metric(f"service.type.{kind}.count", len(of_kind))
            result.metric(f"service.type.{kind}.server_share", sum(
                folded.request_s.get(str(r.index), 0.0) for r in of_kind) / max(handled, 1e-9))
        result.metric("generator.late_ms",
                      1000.0 * statistics.mean(r.send - r.due for r in schedule))
