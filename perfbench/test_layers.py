"""Per-layer probes measure what exists and report the rest as unmeasured.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

import layers
import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from quadpcf.exact_arith import enumerate_rationals  # noqa: E402

SMALL = {"h1": 2, "h2": 4, "primes": run.first_odd_primes(12)}


def test_pipeline_probes_measure_every_sieve_layer(tmp_path):
    lr = layers.LayerRun()
    out = layers._pipeline(lr, SMALL, tmp_path)
    assert out is not None and lr.unmeasured == {}
    v = lr.values
    killed = sum(v[f"sievedb.killed_after_{k}"] for k in ("1", "2", "3", "4", "5plus"))
    pairs = len(list(enumerate_rationals(2))) * len(list(enumerate_rationals(4)))
    assert killed + v["sievedb.survivors"] + v["projmap.degenerate"] == pairs
    assert v["sievedb.keys_used"] <= v["sievedb.entries_built"]
    names = {s["name"] for s in lr.tracer.spans}
    assert {"pass", "sievedb.build", "search.sigma1", "cli.write"} <= names


def test_missing_database_functions_are_unmeasured_not_fatal(tmp_path, monkeypatch):
    from quadpcf import sievedb
    monkeypatch.delattr(sievedb, "build_db")
    monkeypatch.delattr(sievedb, "Database")
    lr = layers.LayerRun()
    assert layers._pipeline(lr, SMALL, tmp_path) is None
    assert lr.values["sievedb.build_s"] is None
    assert "build_db" in lr.unmeasured["sievedb.build_s"]
    assert lr.values["sievedb.lookups"] is None and "sievedb.lookups" in lr.unmeasured
    assert lr.values["projmap.normal_form_s"] > 0 and lr.values["projmap.degenerate"] >= 0
    assert "projmap.normal_form_s" not in lr.unmeasured


def test_self_time_subtracts_children():
    tr = layers.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    spans = {s["name"]: s for s in tr.spans}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    outer = spans["outer"]["end"] - spans["outer"]["start"]
    inner = spans["inner"]["end"] - spans["inner"]["start"]
    assert tr.self_times()["outer"] == pytest.approx(outer - inner)
