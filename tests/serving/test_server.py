"""HTTP front-end tests: route behaviour, parity with direct execution,
error mapping, stats exposure, and the snapshot /swap endpoint."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Blend, HybridSeeker, Seekers
from repro.core.semantic import SemanticSeeker
from repro.index import IndexConfig
from repro.serving import BlendServer

from tests.serving.conftest import CITIES, build_blend, make_lake


@pytest.fixture(scope="module")
def served_blend() -> Blend:
    """The serving lake with AllVectors, so /query can serve SS and HY."""
    blend = Blend(make_lake(23), backend="column", index_config=IndexConfig(semantic=True))
    blend.build_index()
    return blend


@pytest.fixture(scope="module")
def server(served_blend):
    with BlendServer(
        served_blend, workers=2, max_batch=16, batch_window=0.002
    ).start() as srv:
        yield srv


def _post(url: str, path: str, body: dict):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _hits(body: dict):
    return [(hit["table_id"], hit["score"]) for hit in body["results"]]


def _expected_hits(result):
    return [(hit.table_id, hit.score) for hit in result]


def test_query_parity_all_modalities(server, served_blend):
    """Every registry modality answers over HTTP exactly like the direct
    seeker on the served generation."""
    context = served_blend.context()
    keys = CITIES * 3
    targets = list(range(len(keys)))
    cases = [
        (
            {"modality": "sc", "values": ["berlin", "paris", "rome"], "k": 5},
            Seekers.SC(["berlin", "paris", "rome"], k=5),
        ),
        (
            {"modality": "kw", "values": ["germany", "france"], "k": 4},
            Seekers.KW(["germany", "france"], k=4),
        ),
        (
            {
                "modality": "mc",
                "tuples": [["berlin", "germany"], ["oslo", "norway"]],
                "k": 5,
            },
            Seekers.MC([("berlin", "germany"), ("oslo", "norway")], k=5),
        ),
        (
            {"modality": "c", "values": [keys, targets], "k": 3},
            Seekers.C(keys, targets, k=3),
        ),
        (
            {"modality": "SS", "values": ["berlin", "vienna"], "k": 4},
            SemanticSeeker(["berlin", "vienna"], k=4),
        ),
        (
            {"modality": "ss", "values": ["rome"], "k": 4, "exact": True},
            SemanticSeeker(["rome"], k=4, exact=True),
        ),
        (
            {
                "modality": "hy",
                "values": ["berlin", "paris"],
                "about": ["norway"],
                "alpha": 0.3,
                "k": 5,
            },
            HybridSeeker(["berlin", "paris"], about=["norway"], k=5, alpha=0.3),
        ),
        (
            {"modality": "hybrid", "tuples": [["rome", "italy"]], "k": 5},
            HybridSeeker([("rome", "italy")], k=5),
        ),
    ]
    for body, seeker in cases:
        status, payload = _post(server.url, "/query", body)
        assert status == 200, payload
        assert payload["generation"] == served_blend.lake.generation
        assert _hits(payload) == _expected_hits(seeker.execute(context)), body


def test_concurrent_http_queries_batch_and_stay_correct(server, served_blend):
    context = served_blend.context()
    body = {"modality": "sc", "values": ["berlin", "paris"], "k": 5}
    expected = _expected_hits(Seekers.SC(["berlin", "paris"], k=5).execute(context))
    results = []

    def fire() -> None:
        results.append(_post(server.url, "/query", body))

    threads = [threading.Thread(target=fire) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for status, payload in results:
        assert status == 200
        assert _hits(payload) == expected


def test_bad_requests_are_400(server):
    for body in (
        {"modality": "nope", "values": ["x"]},
        {"modality": "sc"},
        {"modality": "sc", "values": []},
        {"modality": "mc", "tuples": []},
        {"modality": "sc", "values": ["x"], "k": 0},
        {"modality": "sc", "values": ["x"], "timeout_ms": -5},
        {"modality": "sc", "values": ["x"], "k": True},
        {"modality": "sc", "values": ["x"], "timeout_ms": True},
        {"modality": "c", "values": ["x"]},
        {"modality": "hy", "values": ["x"], "alpha": 3},
        {"modality": "hy", "values": ["x"], "about": 5},
        {"modality": 7, "values": ["x"]},
    ):
        status, payload = _post(server.url, "/query", body)
        assert status == 400, (body, payload)
        assert "error" in payload

    # Malformed JSON
    request = urllib.request.Request(
        server.url + "/query",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
    except urllib.error.HTTPError as error:
        status = error.code
        error.read()
    assert status == 400


def test_unknown_route_is_404(server):
    assert _get(server.url, "/nope")[0] == 404
    assert _post(server.url, "/nope", {})[0] == 404


def test_health_and_stats(server, served_blend):
    status, health = _get(server.url, "/health")
    assert status == 200
    assert health == {"status": "ok", "generation": served_blend.lake.generation}

    status, stats = _get(server.url, "/stats")
    assert status == 200
    for field in (
        "completed",
        "queries_per_sec",
        "latency_ms",
        "batch_size_histogram",
        "by_modality",
        "plan_cache",
        "generation",
        "timeouts",
    ):
        assert field in stats, field
    assert stats["completed"] > 0
    assert 0.0 <= stats["plan_cache"]["hit_rate"] <= 1.0


def test_keep_alive_requests_do_not_wait_for_delayed_ack(server):
    """Sequential requests on one kept-alive connection answer promptly:
    headers and body go out as two writes, and with Nagle's algorithm on
    the body waited for the client's delayed ACK (~40 ms per request)."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        start = time.perf_counter()
        for _ in range(20):
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        elapsed = time.perf_counter() - start
    finally:
        connection.close()
    assert elapsed < 0.4, f"20 kept-alive requests took {elapsed:.3f} s"


def test_http_snapshot_swap(tmp_path):
    """POST /swap loads the snapshot and flips generations with traffic
    still being answered."""
    old = build_blend(seed=31, tables=6)
    new = Blend(
        make_lake(31, tables=6, extra_rows=[["quito", "ecuador", 3]] * 5),
        backend="column",
    )
    new.build_index()
    snapshot = new.save(tmp_path / "snap")

    with BlendServer(old, workers=2, max_batch=8).start() as server:
        status, before = _post(
            server.url, "/query", {"modality": "sc", "values": ["quito"], "k": 3}
        )
        assert status == 200 and before["generation"] == old.lake.generation

        status, report = _post(server.url, "/swap", {"snapshot": str(snapshot)})
        assert status == 200, report
        assert report["old_generation"] == old.lake.generation
        assert report["new_generation"] == new.lake.generation
        assert report["drained"] is True

        status, after = _post(
            server.url, "/query", {"modality": "sc", "values": ["quito"], "k": 3}
        )
        assert status == 200
        assert after["generation"] == new.lake.generation
        expected = Seekers.SC(["quito"], k=3).execute(new.context())
        assert _hits(after) == _expected_hits(expected)

        status, stats = _get(server.url, "/stats")
        assert stats["swaps"] == 1

        status, bad = _post(server.url, "/swap", {"snapshot": ""})
        assert status == 503  # ServingError: missing path

        status, missing = _post(
            server.url, "/swap", {"snapshot": str(tmp_path / "nope")}
        )
        assert status in (409, 500)  # SnapshotError surface
