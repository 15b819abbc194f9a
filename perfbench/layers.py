"""Traced in-process replay of one pass, for the per-layer metrics.

Spans (name, start, end, parent, pass id) are placed around this file's own
calls into the public functions of each module of the package and kept in
memory; the run writes them to ``.bench_work/traces/`` when it ends.  The
per-pair calls of the sieve are too many and too short for a span each, so
they are summed into counters on one span per sigma1 value.

Each probe is independent.  When a public function a probe calls no longer
exists or changed its signature, the probe's metrics are reported with value
``null`` and the reason under ``unmeasured`` on the info line, and the run
goes on.  A layer the workload does not reach reports 0.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import gate

UNITS = {
    "cli.import_s": "s",
    "cli.write_s": "s",
    "exact_arith.enumerate_s": "s",
    "exact_arith.rationals": "count",
    "projmap.normal_form_s": "s",
    "projmap.pairs_per_s": "pairs/s",
    "projmap.degenerate": "count",
    "projmap.rational_critical": "count",
    "sievedb.build_s": "s",
    "sievedb.lanes_per_s": "lanes/s",
    "sievedb.entries_built": "count",
    "sievedb.load_s": "s",
    "sievedb.check_s": "s",
    "sievedb.lookups": "count",
    "sievedb.lookups_per_pair": "lookups/pair",
    "sievedb.keys_used": "count",
    "sievedb.keys_used_ratio": "ratio",
    "sievedb.killed_after_1": "count",
    "sievedb.killed_after_2": "count",
    "sievedb.killed_after_3": "count",
    "sievedb.killed_after_4": "count",
    "sievedb.killed_after_5plus": "count",
    "sievedb.survivors": "count",
    "pcfverify.verify_s": "s",
    "pcfverify.iterations": "count",
    "pcfverify.max_size": "height",
    "preper.graph_s": "s",
    "preper.candidates_per_s": "candidates/s",
    "preper.points": "count",
    "preper.unresolved": "count",
    "preper.catalog_s": "s",
    "host.calibration_s": "s",
    "trace.overhead_s": "s",
}
IMPORT_SAMPLES = 3
PROBE_ERRORS = (AttributeError, ImportError, TypeError)  # the public API moved


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        # a traced run replays a single pass, so every span has pass id 1
        rec = {"id": len(self.spans), "name": name, "pass": 1,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = Counter()
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


class LayerRun:
    """State of one traced run: metrics, unmeasured reasons, correctness."""

    def __init__(self):
        self.tracer = Tracer()
        self.values: Dict[str, Optional[float]] = {name: 0 for name in UNITS}
        self.unmeasured: Dict[str, str] = {}
        self.problems: List[str] = []

    @contextlib.contextmanager
    def probe(self, *names: str):
        try:
            yield
        except PROBE_ERRORS as e:
            for name in names:
                self.values[name] = None
                self.unmeasured[name] = f"{type(e).__name__}: {e}"


def _pipeline(run: LayerRun, inputs: dict, workdir: Path) -> Optional[Path]:
    """Traced replay of ``quadpcf pipeline``: its artifact directory, or None
    when a probe it needs could not run."""
    from quadpcf import cli
    from quadpcf.exact_arith import enumerate_rationals
    try:
        from quadpcf import sievedb
    except ImportError:
        sievedb = None  # the probes that call into it report unmeasured

    tr, v = run.tracer, run.values
    h1, h2, primes = inputs["h1"], inputs["h2"], inputs["primes"]
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    dbfile = workdir / "quadpcf.db"
    with tr.span("pass"):
        with run.probe("sievedb.build_s", "sievedb.lanes_per_s", "sievedb.entries_built"):
            with tr.span("sievedb.build") as s:
                built = sievedb.build_db(primes, path=str(dbfile))
            v["sievedb.build_s"] = s["end"] - s["start"]
            v["sievedb.lanes_per_s"] = sum(p * p for p in primes) / v["sievedb.build_s"]
            v["sievedb.entries_built"] = sum(built.entry_count(p) for p in primes)
        db = None
        if dbfile.exists():
            with run.probe("sievedb.load_s"):
                with tr.span("sievedb.load") as s:
                    db = sievedb.Database.load(str(dbfile))
                v["sievedb.load_s"] = s["end"] - s["start"]
        else:
            v["sievedb.load_s"] = None
            run.unmeasured["sievedb.load_s"] = "no database file was built"
        with tr.span("exact_arith.enumerate") as s:
            s1_list = list(enumerate_rationals(h1))
            s2_list = list(enumerate_rationals(h2))
        v["exact_arith.enumerate_s"] = s["end"] - s["start"]
        v["exact_arith.rationals"] = len(s1_list) + len(s2_list)

        sieve_names = ("sievedb.check_s", "sievedb.lookups", "sievedb.lookups_per_pair",
                       "sievedb.keys_used", "sievedb.keys_used_ratio", "sievedb.survivors",
                       *(f"sievedb.killed_after_{k}" for k in ("1", "2", "3", "4", "5plus")))
        survivors = None
        with run.probe("projmap.normal_form_s", "projmap.pairs_per_s", "projmap.degenerate",
                       "projmap.rational_critical", *sieve_names):
            survivors = _search(run, s1_list, s2_list, primes, sievedb, db)
        if survivors is None:
            later = ("pcfverify.verify_s", "pcfverify.iterations", "pcfverify.max_size",
                     "cli.write_s")
            for name in (*sieve_names, *later):
                if v[name] is not None:
                    v[name] = None
                    run.unmeasured[name] = "no sieve database or check to run pairs through"
            return None

        statuses = None
        with run.probe("pcfverify.verify_s", "pcfverify.iterations", "pcfverify.max_size"):
            statuses = [_verify(run, c.phi) for c in survivors]
        if statuses is None:
            run.unmeasured["cli.write_s"] = "no verification results to write"
            v["cli.write_s"] = None
            return None
        with run.probe("cli.write_s"):
            with tr.span("cli.write") as s:
                cfg = cli.RunConfig(h1=h1, h2=h2, prime_list=tuple(primes), outdir=str(outdir))
                result = cli.PipelineResult(survivors, statuses)
                cli.write_survivors_tsv(outdir / "survivors.tsv", cfg, survivors)
                cli.write_verified_tsv(outdir / "verified.tsv", cfg, result)
                summary = cli.pipeline_summary(cfg, result)
                with open(outdir / "summary.json", "w") as fh:
                    json.dump(summary, fh, sort_keys=True, indent=2)
                    fh.write("\n")
            v["cli.write_s"] = s["end"] - s["start"]
            return outdir
    return None


def _search(run: LayerRun, s1_list, s2_list, primes, sievedb, db):
    """Normal form and modular check of every pair; the survivors, or None
    when there is no database or check function to run them through."""
    from quadpcf.projmap import NormalizedQuadMap

    tr, v = run.tracer, run.values
    check_rational = getattr(sievedb, "check_rational_periods_detailed", None)
    check_irrational = getattr(sievedb, "check_irrational_periods_detailed", None)
    candidate = getattr(sievedb, "SieveCandidate", None)
    sieving = db is not None and None not in (check_rational, check_irrational, candidate)
    counting = _CountingDb(db) if sieving else None
    survivors = []
    killed = Counter()
    normal_s = check_s = 0.0
    checked = 0
    clock = time.perf_counter
    for s1 in s1_list:
        with tr.span("search.sigma1", sigma1=str(s1)) as s:
            normal_before, check_before = normal_s, check_s
            for s2 in s2_list:
                t0 = clock()
                phi = NormalizedQuadMap.from_sigmas(s1, s2)
                res = phi.resultant()
                if res == 0:
                    normal_s += clock() - t0
                    v["projmap.degenerate"] += 1
                    continue
                crit = phi.critical_point_data(need_points=False)
                t1 = clock()
                normal_s += t1 - t0
                v["projmap.rational_critical"] += crit.rational
                if counting is None:
                    continue
                if crit.rational:
                    r = check_rational(phi, crit.points[0], crit.points[1], primes, res,
                                       counting)
                else:
                    r = check_irrational(phi, primes, res, counting)
                check_s += clock() - t1
                checked += 1
                if r.ok:
                    survivors.append(candidate(
                        sigma1=s1, sigma2=s2, phi=phi, resultant=res,
                        critical_rational=crit.rational,
                        period_sets=r.period_sets, primes_used=r.primes_used))
                else:
                    killed[min(r.primes_used, 5)] += 1
            s["attrs"].update(normal_form_s=normal_s - normal_before,
                              check_s=check_s - check_before)
    v["projmap.normal_form_s"] = normal_s
    v["projmap.pairs_per_s"] = len(s1_list) * len(s2_list) / normal_s
    if counting is None:
        return None
    v["sievedb.check_s"] = check_s
    v["sievedb.lookups"] = counting.lookups
    v["sievedb.lookups_per_pair"] = counting.lookups / checked
    v["sievedb.keys_used"] = len(counting.keys)
    if v["sievedb.entries_built"]:
        v["sievedb.keys_used_ratio"] = len(counting.keys) / v["sievedb.entries_built"]
    for k in range(1, 5):
        v[f"sievedb.killed_after_{k}"] = killed[k]
    v["sievedb.killed_after_5plus"] = killed[5]
    v["sievedb.survivors"] = len(survivors)
    return survivors


class _CountingDb:
    """Database stand-in that counts lookups and the distinct keys asked for."""

    def __init__(self, db):
        self._db = db
        self.lookups = 0
        self.keys = set()

    def lookup(self, p, b, c):
        self.lookups += 1
        self.keys.add((p, b % p, c % p))
        return self._db.lookup(p, b, c)


def _verify(run: LayerRun, phi):
    from quadpcf import pcfverify
    with run.tracer.span("pcfverify.verify", map=str(phi)) as s:
        st = pcfverify.critical_orbit_portrait(phi)
    v = run.values
    v["pcfverify.verify_s"] += s["end"] - s["start"]
    v["pcfverify.iterations"] += st.iterations_used
    v["pcfverify.max_size"] = max(v["pcfverify.max_size"], st.max_size_seen)
    if not st.verified:
        run.problems.append(f"{phi} not verified: {st.reason}")
    return st


def _catalog(run: LayerRun, preper_pairs, height_bound: int) -> None:
    """Traced replay of ``catalog --json`` and ``preper`` for each pair."""
    from quadpcf import preper
    from quadpcf.exact_arith import ExtendedRational, enumerate_rationals
    from quadpcf.projmap import NormalizedQuadMap

    tr, v = run.tracer, run.values
    rat = ExtendedRational.from_str
    with tr.span("pass"):
        with tr.span("projmap.normal_form") as s:
            maps = {pair: NormalizedQuadMap.from_sigmas(rat(pair[0]), rat(pair[1]))
                    for pair in gate.TEN_PAIRS}
        v["projmap.normal_form_s"] = s["end"] - s["start"]
        v["projmap.pairs_per_s"] = len(maps) / v["projmap.normal_form_s"]
        with run.probe("pcfverify.verify_s", "pcfverify.iterations", "pcfverify.max_size"):
            for phi in maps.values():
                _verify(run, phi)
        with run.probe("preper.catalog_s"):
            with tr.span("preper.catalog") as s:
                for b in ("1", "1/2", "-3/2", "-1/2"):
                    preper.classify_psi1_twist(rat(b))
                preper.invsq_catalog()
                preper.power_map_low_degree_preperiodic(preper.SQUARE, 2)
                preper.power_map_low_degree_preperiodic(preper.INVERSE_SQUARE, 6)
            v["preper.catalog_s"] = s["end"] - s["start"]
        with tr.span("exact_arith.enumerate") as s:
            candidates = 1 + sum(1 for _ in enumerate_rationals(height_bound))
        v["exact_arith.enumerate_s"] = s["end"] - s["start"]
        v["exact_arith.rationals"] = candidates - 1
        with run.probe("preper.graph_s", "preper.candidates_per_s", "preper.points",
                       "preper.unresolved"):
            for pair in preper_pairs:
                with tr.span("preper.graph", pair=gate.pair_key(pair)) as s:
                    graph = preper.rational_preperiodic_graph(maps[pair], height_bound)
                v["preper.graph_s"] += s["end"] - s["start"]
                v["preper.points"] += len(graph)
                v["preper.unresolved"] += len(graph.unresolved)
                if len(graph) != gate.EXPECTED["catalog"]["points"][gate.pair_key(pair)]:
                    run.problems.append(f"preper {gate.pair_key(pair)}: {len(graph)} points")
                if graph.unresolved:
                    run.problems.append(f"preper {gate.pair_key(pair)}: unresolved points")
            v["preper.candidates_per_s"] = candidates * len(preper_pairs) / v["preper.graph_s"]


def _untraced_s(runner, cwd: Path, commands: List[List[str]]) -> float:
    """Seconds the same CLI commands take in one fresh process, after import."""
    code = ("import contextlib, io, sys, time\n"
            "from quadpcf import cli\n"
            "start = time.perf_counter()\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv.split('\\x1f')) != 0:\n"
            "            sys.exit(f'failed: {argv}')\n"
            "print(time.perf_counter() - start)\n")
    argv = [sys.executable, "-c", code, *("\x1f".join(c) for c in commands)]
    out = cwd / "untraced.txt"
    status, _ = runner.child(argv, cwd, out)
    if status is None:
        raise RuntimeError("untraced pass: run deadline reached")
    if status != 0:
        raise RuntimeError(f"untraced pass failed: {Path(f'{out}.err').read_text()[-300:]}")
    return float(out.read_text())


def traced_run(wl, runner):
    """One traced replay and one untraced run of the same pass."""
    run = LayerRun()
    sys.path.insert(0, runner.env["PYTHONPATH"])
    run.values["cli.import_s"] = statistics.median(
        runner.import_once() for _ in range(IMPORT_SAMPLES))
    workdir = runner.work / "trace"
    workdir.mkdir()
    if wl.name == "catalog":
        bound = wl.inputs["preper_height_bound"]
        _catalog(run, gate.TEN_PAIRS, bound)
        traced = run.tracer.total("pass")
        commands = [["catalog", "--json"]] + [
            ["preper", f"--sigmas={s1},{s2}", "--preper-height-bound", str(bound)]
            for s1, s2 in gate.TEN_PAIRS]
    else:
        outdir = _pipeline(run, wl.inputs, workdir)
        if outdir is not None:
            run.problems += gate.check_pipeline(outdir, wl.name)
        traced = run.tracer.total("pass") - run.tracer.total("sievedb.build")
        argv = wl.inputs["argv"]
        commands = [argv[:argv.index("--outdir")] + ["--outdir", "out_untraced"]]
    failed = 1 if run.problems else 0
    try:
        run.values["trace.overhead_s"] = traced - _untraced_s(runner, workdir, commands)
        if wl.name != "catalog":
            untraced_problems = gate.check_pipeline(workdir / "out_untraced", wl.name)
            failed += 1 if untraced_problems else 0
            run.problems += untraced_problems
    except RuntimeError as e:
        failed += 1
        run.problems.append(str(e))
    traces = runner.work.parent / "traces"
    traces.mkdir(exist_ok=True)
    (traces / f"{runner.work.name}.json").write_text(json.dumps(
        {"spans": run.tracer.spans, "self_s": run.tracer.self_times()}, default=str))
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in run.values.items()}
    result = {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}
    info = {"unmeasured": run.unmeasured, "problems": run.problems,
            "self_s": run.tracer.self_times(), "traced_s": traced}
    return result, info
