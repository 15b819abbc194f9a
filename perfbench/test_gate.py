"""The gate accepts the program's real output and rejects a changed one.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run

ROOT = Path(__file__).resolve().parents[1]


def cli(args, cwd) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PCF_SIEVE_DB", None)
    return subprocess.run([sys.executable, "-m", "quadpcf.cli", *args], cwd=cwd, env=env,
                          capture_output=True, check=True).stdout


@pytest.fixture(scope="module")
def paper_out(tmp_path_factory) -> Path:
    cwd = tmp_path_factory.mktemp("paper")
    cli(run.make_workload("paper", 0).inputs["argv"], cwd)
    return cwd / "out"


def rewrite(outdir: Path, keep, extra_survivor=None) -> None:
    """Drop survivors for which keep(sigma1, sigma2) is false; maybe add one."""
    summary = json.loads((outdir / "summary.json").read_text())
    summary["survivors"] = [s for s in summary["survivors"] if keep(s["sigma1"], s["sigma2"])]
    if extra_survivor:
        summary["survivors"].append(extra_survivor)
    summary["verified_count"] = len(summary["survivors"])
    (outdir / "summary.json").write_text(json.dumps(summary))
    for name in ("survivors.tsv", "verified.tsv"):
        lines = (outdir / name).read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if ln.startswith("#") or keep(*ln.split("\t")[:2])]
        if extra_survivor:
            kept.append("\t".join([extra_survivor["sigma1"], extra_survivor["sigma2"]]) + "\n")
        (outdir / name).write_text("".join(kept))


def copy_out(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_pipeline_output_passes(paper_out):
    assert gate.check_pipeline(paper_out, "paper") == []


def test_pipeline_rejects_a_missing_pair(paper_out, tmp_path):
    out = copy_out(paper_out, tmp_path / "out")
    rewrite(out, lambda s1, s2: (s1, s2) != ("-6", "10"))
    problems = gate.check_pipeline(out, "paper")
    assert any("survivors missing [('-6', '10')]" in p for p in problems)
    assert any("survivors.tsv differs" in p for p in problems)


def test_pipeline_rejects_an_extra_pair(paper_out, tmp_path):
    out = copy_out(paper_out, tmp_path / "out")
    extra = {"sigma1": "1", "sigma2": "1", "status": "VERIFIED_PCF",
             "modular_evidence_primes": 40}
    rewrite(out, lambda s1, s2: True, extra)
    problems = gate.check_pipeline(out, "paper")
    assert any("unexpected survivors [('1', '1')]" in p for p in problems)
    assert any("survivors.tsv differs" in p for p in problems)


def test_summary_rejects_wrong_status_and_evidence():
    survivors = [{"sigma1": a, "sigma2": b, "status": "VERIFIED_PCF",
                  "modular_evidence_primes": 5} for a, b in gate.TEN_PAIRS]
    summary = {"survivors": survivors, "verified_count": 10, "undetermined_count": 0}
    assert gate.check_summary(summary, gate.TEN_PAIRS) == []
    survivors[0]["status"] = "UNDETERMINED"
    evidence = {gate.pair_key(gate.TEN_PAIRS[1]): 6}
    problems = gate.check_summary(summary, gate.TEN_PAIRS, evidence)
    assert len(problems) == 2


def test_catalog_rejects_one_changed_byte(tmp_path):
    data = cli(["catalog", "--json"], tmp_path)
    assert gate.check_catalog_json(data) == []
    changed = bytearray(data)
    changed[len(changed) // 2] ^= 1
    assert gate.check_catalog_json(bytes(changed)) != []


def test_preper_rejects_one_changed_byte(tmp_path):
    pair = gate.TEN_PAIRS[-1]
    data = cli(["preper", f"--sigmas={pair[0]},{pair[1]}", "--preper-height-bound",
                str(run.PREPER_HEIGHT_BOUND)], tmp_path)
    assert gate.check_preper(pair, data) == []
    changed = data.replace(b"6 rational preperiodic points", b"7 rational preperiodic points")
    assert len(changed) == len(data) and changed != data
    assert len(gate.check_preper(pair, changed)) == 2


def test_catalog_passes_cover_all_ten_maps():
    wl = run.make_workload("catalog", 3)
    seen = {args[1] for k in range(5) for args, _ in wl.commands(k)[1:]}
    assert len(seen) == len(gate.TEN_PAIRS)


def test_beyond_prime_order_follows_the_seed():
    a, b = (run.make_workload("beyond", s).inputs["primes"] for s in (1, 2))
    assert a != b and sorted(a) == sorted(b) == run.first_odd_primes(run.BEYOND_PRIMES)
    assert run.make_workload("beyond", 1).inputs["primes"] == a
