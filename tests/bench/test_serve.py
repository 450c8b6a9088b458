"""The serve bench: payload mix, latency and skew reporting, a live run."""

import json
from argparse import Namespace

import pytest

from repro.bench import serve
from repro.bench.serve import (
    UNIQUE,
    _frame_bytes,
    _reply_id,
    latency_summary,
    load_skew,
    payload_templates,
)


def test_payload_templates_are_unique_complete_frames():
    templates = payload_templates()
    assert len(templates) == UNIQUE
    assert len(set(templates)) == UNIQUE
    frame = json.loads(_frame_bytes(templates[5], 42))
    assert frame["id"] == 42
    assert frame["kind"] == "predict"
    assert frame["predictor"] == serve.PREDICTOR
    assert len(frame["epochs"]) == serve.EPOCHS
    # Same size, different counters: distinct cache keys, equal work.
    assert json.loads(templates[0] + b"}")["epochs"] != frame["epochs"]


def test_payload_templates_are_deterministic():
    assert payload_templates(3) == payload_templates(3)


def test_reply_id_reads_the_id_without_a_json_parse():
    assert _reply_id(b'{"v":1,"id":1234,"ok":true}\n') == 1234


def test_latency_summary_in_milliseconds():
    summary = latency_summary([0.003, 0.001, 0.002, 0.004])
    assert summary["min"] == 1.0
    assert summary["max"] == 4.0
    assert summary["mean"] == 2.5
    assert summary["p50"] == summary["median"] == 3.0
    assert summary["p99"] == summary["p999"] == 4.0
    assert summary["jitter_p99_p50"] == 1.0
    assert summary["stddev_ms"] == pytest.approx(1.118, abs=1e-3)


def test_latency_summary_of_nothing_is_all_zero():
    assert set(latency_summary([]).values()) == {0.0}
    assert latency_summary([0.002])["stddev_ms"] == 0.0


def test_load_skew():
    assert load_skew({"0": 10, "1": 10}) == 1.0
    assert load_skew({"0": 30, "1": 10}) == 1.5
    assert load_skew({}) == 0.0
    assert load_skew({"0": 0, "1": 0}) == 0.0


def test_a_short_live_run_answers_every_request(monkeypatch):
    monkeypatch.setattr(serve, "WORKERS", 2)
    monkeypatch.setattr(serve, "CLIENT_PROCS", 2)
    payload = serve.run(Namespace(duration=0.3, clients=4,
                                  compare_single=True))
    assert payload["errors"] == 0
    assert payload["requests"] > 0
    assert payload["config"]["workers"] == 2
    assert payload["config"]["clients"] == 4
    assert payload["open_loop"]["sent"] > 0
    assert payload["cache"]["hits"] > 0
    assert set(payload["per_worker_predict_requests"]) == {"0", "1"}
    assert payload["throughput_ratio"] > 0
    assert "single-worker reference" in serve.summary(payload)
