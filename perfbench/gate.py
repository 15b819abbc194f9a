"""Correctness gates: compare what a pass wrote against frozen answers.

Every check returns a list of problems; an empty list means the pass is
correct.  The answers in ``expected.json`` were recorded from the program
once and never change with the seed: survivor sets do not depend on the
order in which the primes are tried, so every seed has the same answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

Pair = Tuple[str, str]
TEN_PAIRS: Tuple[Pair, ...] = tuple(tuple(p) for p in EXPECTED["ten_pairs"])

_DIGEST_LINE = re.compile(rb"^# config-digest: [0-9a-f]{16}\n", re.M)
_POINTS_LINE = re.compile(r"^# (\d+) rational preperiodic points$", re.M)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def body_sha256(data: bytes) -> str:
    """Digest of an artifact without its config-digest line.

    The config digest covers the prime list in the given order, so it
    differs between seeds of the same workload while every other byte of
    the artifact must not.
    """
    body, count = _DIGEST_LINE.subn(b"", data)
    return sha256(body) if count == 1 else "no config-digest line"


def pair_key(pair: Sequence[str]) -> str:
    return f"{pair[0]},{pair[1]}"


def check_summary(summary: dict, expected_pairs: Sequence[Pair],
                  evidence: Optional[Dict[str, int]] = None) -> List[str]:
    """Survivors are exactly the expected pairs, each VERIFIED_PCF."""
    problems = []
    got = [(s["sigma1"], s["sigma2"]) for s in summary.get("survivors", [])]
    missing = sorted(set(expected_pairs) - set(got))
    extra = sorted(set(got) - set(expected_pairs))
    if missing:
        problems.append(f"survivors missing {missing}")
    if extra:
        problems.append(f"unexpected survivors {extra}")
    if len(got) != len(set(got)):
        problems.append("duplicate survivors")
    for s in summary.get("survivors", []):
        key = pair_key((s["sigma1"], s["sigma2"]))
        if s.get("status") != "VERIFIED_PCF":
            problems.append(f"{key} has status {s.get('status')}")
        if evidence is not None and key in evidence and \
                s.get("modular_evidence_primes") != evidence[key]:
            problems.append(f"{key} has {s.get('modular_evidence_primes')} "
                            f"evidence primes, expected {evidence[key]}")
    if summary.get("verified_count") != len(expected_pairs) or \
            summary.get("undetermined_count") != 0:
        problems.append("verified/undetermined counts differ from the expected pairs")
    return problems


def check_pipeline(outdir: Path, workload: str) -> List[str]:
    """Gate for the ``pipeline`` workloads on the artifacts in ``outdir``."""
    exp = EXPECTED[workload]
    problems = []
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        survivors = (outdir / "survivors.tsv").read_bytes()
        verified = (outdir / "verified.tsv").read_bytes()
    except (OSError, ValueError) as e:
        return [f"artifacts unreadable: {e}"]
    for name, data in (("survivors.tsv", survivors), ("verified.tsv", verified)):
        if body_sha256(data) != exp[name]:
            problems.append(f"{name} differs from the frozen bytes")
        digest = exp.get("config_digest")
        if digest and f"# config-digest: {digest}\n".encode() not in data:
            problems.append(f"{name} config digest is not {digest}")
    pairs = [tuple(p) for p in exp["pairs"]]
    try:
        problems += check_summary(summary, pairs, exp["evidence_primes"])
    except (KeyError, TypeError, AttributeError) as e:
        problems.append(f"summary.json has an unexpected layout: {e!r}")
    return problems


def check_catalog_json(data: bytes) -> List[str]:
    if sha256(data) != EXPECTED["catalog"]["catalog.json"]:
        return ["catalog --json output differs from the frozen bytes"]
    return []


def check_preper(pair: Pair, data: bytes) -> List[str]:
    key = pair_key(pair)
    exp = EXPECTED["catalog"]
    problems = []
    if sha256(data) != exp["preper"][key]:
        problems.append(f"preper {key} output differs from the frozen bytes")
    text = data.decode(errors="replace")
    m = _POINTS_LINE.search(text)
    if m is None or int(m.group(1)) != exp["points"][key]:
        problems.append(f"preper {key} point count differs from {exp['points'][key]}")
    if "unresolved" in text:
        problems.append(f"preper {key} left unresolved candidates")
    return problems
