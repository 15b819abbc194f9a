"""Outside-in benchmark of the quadpcf command line.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Workloads, each a closed loop of one client running one CLI process at a
time (``python -m quadpcf.cli`` with ``PYTHONPATH=<checkout>/src``):

* ``paper``   ``pipeline --h1 10 --h2 20 --primes 40``: the paper's heights.
  A cold pass builds the 40-prime database, so set-up cost shows here.
  Forty primes already leave exactly the ten PCF pairs (the last pair to
  die at these heights dies at the 23rd odd prime); the paper's 130 primes
  would make every cold pass a 100-second database build.
* ``catalog`` ``catalog --json`` plus ``preper --preper-height-bound 120``
  for two of the ten PCF pairs per pass, rotating through all ten in seed
  order: import time and exact evaluation, no database.
* ``beyond``  ``pipeline --h1 11 --h2 22 --prime-list <first 30 odd primes
  in seed order>``: heights past the paper's, where per-pair sieve work
  dominates; the survivors must still be exactly the ten PCF pairs, with
  the same evidence counts for every prime order.

A run sets up three times (each a cold pass in a fresh directory with no
database or cache reachable), then repeats warm passes in the last of those
directories until ``--seconds`` have passed.  The result line holds set-up
time and memory and disk use; warm wall and CPU time, pairs per second and
the error rate are on the line before it.  Every pass is gated against
frozen answers; a wrong or failed pass counts in ``failed`` and makes the
run exit 1.  With ``--trace 1`` the run instead replays one pass in-process
with spans around each call into the package and reports per-layer metrics
(see ``layers.py``).  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import gate

COLD_PASSES = 3
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
PAPER_PRIMES = 40
BEYOND_PRIMES = 30
BEYOND_HEIGHTS = (11, 22)
PREPER_HEIGHT_BOUND = 120
PREPER_PER_PASS = 2
CALIBRATION_LOOPS = 2_000_000


def first_odd_primes(count: int) -> List[int]:
    out, n = [], 3
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 2
    return out


# ----------------------------------------------------------------------
# workloads: the commands of pass k, and the gate for what they wrote
# ----------------------------------------------------------------------

Command = Tuple[List[str], str]  # CLI arguments, file receiving stdout


@dataclass
class Workload:
    name: str
    commands: Callable[[int], List[Command]]
    check: Callable[[Path, int], List[str]]
    pairs_examined: int = 0
    inputs: dict = field(default_factory=dict)


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "paper":
        argv = ["pipeline", "--h1", "10", "--h2", "20",
                "--primes", str(PAPER_PRIMES), "--outdir", "out"]
        return Workload(name, lambda k: [(argv, "pipeline.txt")],
                        lambda d, k: gate.check_pipeline(d / "out", "paper"),
                        pairs_examined=gate.EXPECTED["paper"]["pairs_examined"],
                        inputs={"argv": argv, "h1": 10, "h2": 20,
                                "primes": first_odd_primes(PAPER_PRIMES)})
    if name == "beyond":
        primes = first_odd_primes(BEYOND_PRIMES)
        rng.shuffle(primes)
        h1, h2 = BEYOND_HEIGHTS
        argv = ["pipeline", "--h1", str(h1), "--h2", str(h2),
                "--prime-list", ",".join(map(str, primes)), "--outdir", "out"]
        return Workload(name, lambda k: [(argv, "pipeline.txt")],
                        lambda d, k: gate.check_pipeline(d / "out", "beyond"),
                        pairs_examined=gate.EXPECTED["beyond"]["pairs_examined"],
                        inputs={"argv": argv, "h1": h1, "h2": h2, "primes": primes})
    if name == "catalog":
        order = list(range(len(gate.TEN_PAIRS)))
        rng.shuffle(order)

        def pairs_of(k: int):
            return [gate.TEN_PAIRS[order[(k * PREPER_PER_PASS + j) % len(order)]]
                    for j in range(PREPER_PER_PASS)]

        def commands(k: int) -> List[Command]:
            cmds = [(["catalog", "--json"], "catalog.json")]
            for slot, (s1, s2) in enumerate(pairs_of(k)):
                cmds.append((["preper", f"--sigmas={s1},{s2}", "--preper-height-bound",
                              str(PREPER_HEIGHT_BOUND)], f"preper{slot}.txt"))
            return cmds

        def check(d: Path, k: int) -> List[str]:
            cmds = commands(k)
            problems = gate.check_catalog_json((d / cmds[0][1]).read_bytes())
            for pair, (_, out) in zip(pairs_of(k), cmds[1:]):
                problems += gate.check_preper(pair, (d / out).read_bytes())
            return problems

        return Workload(name, commands, check,
                        inputs={"preper_height_bound": PREPER_HEIGHT_BOUND,
                                "pair_order": [gate.pair_key(gate.TEN_PAIRS[i]) for i in order]})
    raise SystemExit(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# running CLI passes in child processes
# ----------------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    problems: List[str]


class Runner:
    """Runs passes of one workload against the checkout's sources."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.deadline = deadline
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("PCF_SIEVE_DB", None)
        self.env["PYTHONPATH"] = str(root / "src")

    def child(self, argv: Sequence[str], cwd: Path, stdout_path: Path):
        """Run one child to completion; (exit code, its own rusage)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, None
        # a fresh directory gets a fresh cache: a cold pass never sees another's
        env = dict(self.env, QUADPCF_CACHE_DIR=str(cwd / "cache"))
        with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
            proc = subprocess.Popen(list(argv), cwd=cwd, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
                # report the largest of every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def cli_pass(self, wl: Workload, k: int, cwd: Path) -> PassResult:
        cwd.mkdir(parents=True, exist_ok=True)
        cpu, rss, problems = 0.0, 0.0, []
        start = time.perf_counter()
        for args, out in wl.commands(k):
            code, usage = self.child([sys.executable, "-m", "quadpcf.cli", *args],
                                     cwd, cwd / out)
            if code is None:
                problems.append(f"{args[0]}: run deadline reached")
                break
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss * 1024 / 1e6)
            if code != 0:
                err = (cwd / f"{out}.err").read_text(errors="replace").strip()
                problems.append(f"{args[0]} exited {code}: {err[-300:]}")
                break
        wall = time.perf_counter() - start
        if not problems:
            problems = wl.check(cwd, k)
        return PassResult(wall, cpu, rss, problems)

    def import_once(self) -> float:
        """Time one fresh ``import quadpcf.cli``; also compiles bytecode."""
        start = time.perf_counter()
        code, _ = self.child([sys.executable, "-c", "import quadpcf.cli"],
                             self.work, self.work / "import.txt")
        if code != 0:
            raise RuntimeError("cannot import quadpcf.cli from the checkout's src")
        return time.perf_counter() - start


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def calibration_s() -> float:
    """A fixed pure-Python loop: tells host speed drift apart from code changes."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, runner: Runner, seconds: float) -> Tuple[dict, dict]:
    passes = []  # (kind, PassResult)
    for i in range(COLD_PASSES):
        cwd = runner.work / f"pass{i}"
        passes.append(("cold", runner.cli_pass(wl, len(passes), cwd)))
        if passes[-1][1].problems:
            break
    if not passes[-1][1].problems:
        start = time.monotonic()
        while time.monotonic() - start < seconds:
            passes.append(("warm", runner.cli_pass(wl, len(passes), cwd)))
            if passes[-1][1].problems:
                break
    cold = [p for kind, p in passes if kind == "cold"]
    warm = [p for kind, p in passes if kind == "warm"] or cold[-1:]
    failed = sum(1 for _, p in passes if p.problems)
    wall = statistics.median(p.wall_s for p in warm)
    metrics = {
        "setup_s": metric(statistics.median(p.wall_s for p in cold), "s"),
        "peak_rss_mb": metric(max(p.max_rss_mb for p in warm), "MB"),
        "setup_peak_rss_mb": metric(statistics.median(p.max_rss_mb for p in cold), "MB"),
        "disk_mb": metric(dir_bytes(cwd) / 1e6, "MB"),
    }
    # Warm timings vary with the host's speed from one minute to the next by
    # more than any bound a comparison could hold (a 25% spread over ten
    # runs of 5-7 passes each), so they are reported here and not gated.
    info = {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(statistics.median(p.cpu_s for p in warm), "s"),
        "error_rate": failed / len(passes),
        "pairs_per_s": metric(wl.pairs_examined / wall, "pairs/s") if wl.pairs_examined else None,
        "cold_passes": len(cold),
        "warm_passes": len([1 for kind, _ in passes if kind == "warm"]),
        "problems": [q for _, p in passes for q in p.problems],
        "passes": [{"kind": kind, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "max_rss_mb": p.max_rss_mb} for kind, p in passes],
    }
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    return result, info


def machine_record(root: Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():  # a source export has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "beyond", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated run still stops its child and removes its directories
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "quadpcf" / "cli.py").is_file():
        print("error: run from the root of a quadpcf checkout (no src/quadpcf/cli.py)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = make_workload(args.workload, args.seed)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, deadline)
        runner.import_once()  # untimed: bytecode and file cache warm for every pass
        info = {"workload": args.workload, "seed": args.seed, "inputs": wl.inputs,
                "machine": machine_record(root), "calibration_start_s": calibration_s()}
        if args.trace:
            import layers
            result, extra = layers.traced_run(wl, runner)
        else:
            result, extra = end_to_end(wl, runner, args.seconds)
        info.update(extra)
        info["calibration_end_s"] = calibration_s()
        if args.trace:
            result["metrics"]["host.calibration_s"] = metric(
                statistics.mean([info["calibration_start_s"], info["calibration_end_s"]]), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
