"""Command-line front end for the PCF search pipeline.

Subcommands: sieve, verify, pipeline, portrait, preper, classify-twist,
catalog.  All outputs are deterministic for a given configuration, and
every artifact embeds a digest of the configuration that produced it.

sieve and pipeline compute every period set they need on the fly, in one
process; no command builds, reads or writes a database or a cache.  Only
they load the sieve, quadpcf.lanesieve, which is plain Python like the
rest of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from quadpcf import pcfverify, preper
from quadpcf.exact_arith import (
    ExtendedRational,
    Rat,
    first_odd_primes,
    odd_primes_up_to,
    validate_primes,
)
from quadpcf.ffdyn import LANE_PRIME_LIMIT, MAX_HEIGHT_PRODUCT
from quadpcf.preper import CatalogMatchError
from quadpcf.projmap import NormalizedQuadMap

if TYPE_CHECKING:
    from quadpcf.lanesieve import SieveCandidate

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CATALOG_MISMATCH = 6


def _sha256():
    """SHA-256 from CPython's built-in module, _sha2 from 3.12 and _sha256
    before, and from hashlib only when neither imports.  hashlib loads
    OpenSSL, 3.5 MiB; the sieve's freed arrays stay resident, so even after
    the sieve those would raise a process's peak."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


class RunConfig(NamedTuple):
    primes_count: int = 130
    prime_list: Optional[Tuple[int, ...]] = None
    h1: int = 10
    h2: int = 20
    budget: int = pcfverify.DEFAULT_BUDGET
    cutoff: int = pcfverify.DEFAULT_SIZE_CUTOFF
    preper_height_bound: int = preper.DEFAULT_HEIGHT_BOUND
    preper_step_budget: int = preper.DEFAULT_STEP_BUDGET
    preper_cutoff: int = preper.DEFAULT_SIZE_CUTOFF
    outdir: str = "."

    def primes(self) -> Tuple[int, ...]:
        if self.prime_list is not None:
            return self.prime_list
        return first_odd_primes(self.primes_count)

    def digest(self) -> str:
        """Digest of the semantic configuration.

        The output directory affects where results appear, never what they
        are, so it stays out of the digest and artifacts are byte-identical
        across directories.
        """
        body = dict(self._asdict(), config_version=CONFIG_VERSION)
        body.pop("outdir")
        body["primes"] = list(self.primes())
        body.pop("prime_list")
        body.pop("primes_count")
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return _sha256()(text.encode()).hexdigest()[:16]

    def validate(self) -> None:
        if self.h1 < 1 or self.h2 < 1:
            raise ValueError("height bounds must be >= 1")
        if self.h1 * self.h2 > MAX_HEIGHT_PRODUCT:
            raise ValueError(f"height bounds need h1 * h2 <= {MAX_HEIGHT_PRODUCT}")
        if self.primes_count < 1 or self.prime_list is not None and not self.prime_list:
            raise ValueError("the sieve needs at least one prime")
        if self.prime_list is not None:
            # the period rule is unsound for a composite modulus, so a
            # composite would let the sieve drop a PCF pair without any error
            validate_primes(self.prime_list, LANE_PRIME_LIMIT, "the sieve")
        else:
            # first_odd_primes gives primes; only their count needs a bound
            most = len(odd_primes_up_to(LANE_PRIME_LIMIT))
            if self.primes_count > most:
                raise ValueError(f"primes_count {self.primes_count} is too large: the "
                                 f"sieve takes the {most} odd primes below {LANE_PRIME_LIMIT}")
        for name in ("budget", "cutoff", "preper_height_bound", "preper_step_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # below the height bound the cutoff would call searched preperiodic
        # points divergent, and they would leave the graph without a word
        if self.preper_cutoff < self.preper_height_bound:
            raise ValueError("preper_cutoff must be >= preper_height_bound")


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a config file holds one JSON object")
    version = data.pop("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version}")
    allowed = set(RunConfig._fields)
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if key == "outdir":
            ok = isinstance(value, str)
        elif key == "prime_list":
            # validate_primes checks the entries
            ok = value is None or isinstance(value, list)
        else:
            ok = type(value) is int
        if not ok:
            raise ValueError(f"config key {key} has a value of the wrong type: {value!r}")
    if data.get("prime_list") is not None:
        data["prime_list"] = tuple(data["prime_list"])
    return data


def _config_from_args(args) -> RunConfig:
    base = RunConfig()
    if getattr(args, "config", None):
        base = base._replace(**_load_config_file(args.config))
    updates = {}
    mapping = [
        ("primes", "primes_count"), ("h1", "h1"), ("h2", "h2"),
        ("budget", "budget"), ("cutoff", "cutoff"),
        ("preper_height_bound", "preper_height_bound"),
        ("preper_step_budget", "preper_step_budget"),
        ("preper_cutoff", "preper_cutoff"),
        ("outdir", "outdir"),
    ]
    for arg_name, field in mapping:
        v = getattr(args, arg_name, None)
        if v is not None:
            updates[field] = v
    if getattr(args, "prime_list", None) is not None:
        updates["prime_list"] = tuple(
            int(x) for x in args.prime_list.split(",") if x.strip())
    cfg = base._replace(**updates)
    cfg.validate()
    return cfg


def _parse_map_arg(args) -> NormalizedQuadMap:
    if getattr(args, "map", None):
        return NormalizedQuadMap.from_str(args.map)
    if getattr(args, "sigmas", None):
        s1_text, s2_text = args.sigmas.split(",")
        return NormalizedQuadMap.from_sigmas(
            ExtendedRational.from_str(s1_text), ExtendedRational.from_str(s2_text))
    raise ValueError("need --map or --sigmas")


# ----------------------------------------------------------------------
# pipeline pieces shared by subcommands and the benchmark's traced replay
# ----------------------------------------------------------------------

class PipelineResult(NamedTuple):
    survivors: List[SieveCandidate]
    statuses: List[pcfverify.PcfStatus]


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    from quadpcf import lanesieve
    survivors = lanesieve.sieve(cfg.h1, cfg.h2, cfg.primes())
    statuses = [pcfverify.critical_orbit_portrait(c.phi, cfg.budget, cfg.cutoff)
                for c in survivors]
    return PipelineResult(survivors, statuses)


def write_survivors_tsv(path: Path, cfg: RunConfig,
                        survivors: Sequence[SieveCandidate]) -> None:
    from quadpcf import lanesieve
    with open(path, "w") as fh:
        fh.write(f"# quadpcf sieve survivors\n# config-digest: {cfg.digest()}\n")
        fh.write("# " + lanesieve.SieveCandidate.tsv_header() + "\n")
        for c in survivors:
            fh.write(c.tsv_line() + "\n")


def write_verified_tsv(path: Path, cfg: RunConfig, result: PipelineResult) -> None:
    with open(path, "w") as fh:
        fh.write(f"# quadpcf verification\n# config-digest: {cfg.digest()}\n")
        fh.write("# sigma1\tsigma2\tmap\tstatus\tportrait\n")
        for cand, st in zip(result.survivors, result.statuses):
            if st.verified:
                portrait = "; ".join(st.portrait.edge_lines())
                status = "VERIFIED_PCF"
            else:
                portrait = st.reason
                status = "UNDETERMINED"
            fh.write("\t".join([str(cand.sigma1), str(cand.sigma2),
                                str(cand.phi), status, portrait]) + "\n")


def pipeline_summary(cfg: RunConfig, result: PipelineResult) -> dict:
    return {
        "config_digest": cfg.digest(),
        "h1": cfg.h1,
        "h2": cfg.h2,
        "prime_count": len(cfg.primes()),
        "survivors": [
            {
                "sigma1": str(c.sigma1),
                "sigma2": str(c.sigma2),
                "map": str(c.phi),
                "resultant": c.resultant,
                "critical_points": "rational" if c.critical_rational else "irrational",
                "modular_evidence_primes": c.primes_used,
                "status": "VERIFIED_PCF" if st.verified else "UNDETERMINED",
            }
            for c, st in zip(result.survivors, result.statuses)
        ],
        "verified_count": sum(1 for st in result.statuses if st.verified),
        "undetermined_count": sum(1 for st in result.statuses if not st.verified),
    }


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_sieve(args) -> int:
    cfg = _config_from_args(args)
    from quadpcf import lanesieve
    survivors = lanesieve.sieve(cfg.h1, cfg.h2, cfg.primes())
    out = Path(args.out) if args.out else None
    if out:
        write_survivors_tsv(out, cfg, survivors)
        print(f"{len(survivors)} survivors written to {out}")
    else:
        print("# " + lanesieve.SieveCandidate.tsv_header())
        for c in survivors:
            print(c.tsv_line())
    return EXIT_OK


def _iter_sigma_pairs(text: str):
    for part in text.split(";"):
        s1_text, s2_text = part.split(",")
        yield (ExtendedRational.from_str(s1_text), ExtendedRational.from_str(s2_text))


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    pairs = []
    if args.sigmas:
        pairs = list(_iter_sigma_pairs(args.sigmas))
    elif args.infile:
        with open(args.infile) as fh:
            for lineno, line in enumerate(fh, 1):
                if line.startswith("#") or not line.strip():
                    continue
                cols = line.rstrip("\n").split("\t")
                if len(cols) < 2:
                    raise ValueError(f"{args.infile} line {lineno}: "
                                     "need sigma1 and sigma2 columns")
                pairs.append((ExtendedRational.from_str(cols[0]),
                              ExtendedRational.from_str(cols[1])))
    else:
        raise ValueError("need --sigmas or --in")
    bad = 0
    print(f"# exact-iteration budget {cfg.budget}, size cutoff {cfg.cutoff} "
          "(artifact parameters; raise them for stubborn orbits)")
    for s1, s2 in pairs:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = pcfverify.critical_orbit_portrait(phi, cfg.budget, cfg.cutoff)
        if st.verified:
            print(f"({s1},{s2})\tVERIFIED_PCF\t" + "; ".join(st.portrait.edge_lines()))
        else:
            bad += 1
            print(f"({s1},{s2})\tUNDETERMINED\t{st.reason}")
    return EXIT_OK if bad == 0 else EXIT_ERROR


def _cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_pipeline(cfg)
    write_survivors_tsv(outdir / "survivors.tsv", cfg, result.survivors)
    write_verified_tsv(outdir / "verified.tsv", cfg, result)
    summary = pipeline_summary(cfg, result)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for item in summary["survivors"]:
        print("\t".join([item["sigma1"], item["sigma2"], item["map"], item["status"]]))
    print(f"# {summary['verified_count']} verified PCF, "
          f"{summary['undetermined_count']} undetermined; artifacts in {outdir}")
    return EXIT_OK


def _cmd_portrait(args) -> int:
    cfg = _config_from_args(args)
    phi = _parse_map_arg(args)
    st = pcfverify.critical_orbit_portrait(phi, cfg.budget, cfg.cutoff)
    if not st.verified:
        print(f"UNDETERMINED: {st.reason}")
        return EXIT_ERROR
    for line in st.portrait.edge_lines():
        print(line)
    if args.dot:
        Path(args.dot).write_text(st.portrait.to_dot("portrait") + "\n")
        print(f"# DOT written to {args.dot}")
    return EXIT_OK


def _cmd_preper(args) -> int:
    cfg = _config_from_args(args)
    phi = _parse_map_arg(args)
    graph = preper.rational_preperiodic_graph(
        phi, cfg.preper_height_bound, cfg.preper_step_budget, cfg.preper_cutoff)
    print(f"# bounded search: heights <= {cfg.preper_height_bound}, "
          f"{cfg.preper_step_budget} steps, size cutoff {cfg.preper_cutoff}; "
          "completeness beyond the known catalogs is heuristic")
    print(f"# {len(graph)} rational preperiodic points")
    for line in graph.edge_lines():
        print(line)
    for pt in graph.unresolved:
        print(f"# unresolved candidate: {pt}")
    if args.dot:
        Path(args.dot).write_text(graph.to_dot("preperiodic") + "\n")
        print(f"# DOT written to {args.dot}")
    return EXIT_OK


def _cmd_classify_twist(args) -> int:
    given = [x for x in (args.psi1_b, args.psi2_t, args.psi2_dk, args.map) if x]
    if len(given) != 1:
        raise ValueError("give exactly one of --psi1-b, --psi2-t, --psi2-dk, --map")
    if args.psi1_b:
        cls = preper.classify_psi1_twist(ExtendedRational.from_str(args.psi1_b))
    elif args.psi2_t:
        cls = preper.classify_psi2_map(t=ExtendedRational.from_str(args.psi2_t))
    elif args.psi2_dk:
        d_text, k_text = args.psi2_dk.split(",")
        cls = preper.classify_psi2_map(d=ExtendedRational.from_str(d_text),
                                       k=ExtendedRational.from_str(k_text))
    else:
        cls = preper.classify_psi2_map(NormalizedQuadMap.from_str(args.map))
    print(f"{cls.id}\t{cls.description}")
    print(f"# representative: {cls.representative}")
    for line in cls.graph.edge_lines():
        print(line)
    return EXIT_OK


TEN_SIGMA_PAIRS: Tuple[Tuple[ExtendedRational, ExtendedRational], ...] = (
    (Rat(2), Rat(-8)), (Rat(2), Rat(-4)), (Rat(-6), Rat(4)), (Rat(-6), Rat(8)),
    (Rat(-2), Rat(4)), (Rat(-2, 3), Rat(4, 3)), (Rat(-6), Rat(10)),
    (Rat(-2), Rat(0)), (Rat(-2), Rat(2)), (Rat(-10, 3), Rat(20, 3)),
)


def _cmd_catalog(args) -> int:
    data = {"trivial_stabilizer_maps": [], "sq_twist_classes": [],
            "invsq_twist_classes": [], "power_map_components": {}}
    for s1, s2 in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = pcfverify.critical_orbit_portrait(phi)
        data["trivial_stabilizer_maps"].append({
            "sigma1": str(s1), "sigma2": str(s2), "map": str(phi),
            "portrait": st.portrait.edge_lines(),
        })
    for b in ("1", "1/2", "-3/2", "-1/2"):
        cls = preper.classify_psi1_twist(ExtendedRational.from_str(b))
        data["sq_twist_classes"].append({
            "b": b, "class": cls.id, "description": cls.description,
            "graph": cls.graph.edge_lines(),
        })
    for cls in preper.invsq_catalog():
        data["invsq_twist_classes"].append({
            "class": cls.id, "description": cls.description,
            "representative": str(cls.representative),
            "graph": cls.graph.edge_lines(),
        })
    for name, variant, deg in (("square_deg2", preper.SQUARE, 2),
                               ("inverse_square_deg6", preper.INVERSE_SQUARE, 6)):
        comps = preper.power_map_low_degree_preperiodic(variant, deg)
        data["power_map_components"][name] = [c.edge_lines() for c in comps]
    if args.json:
        json.dump(data, sys.stdout, sort_keys=True, indent=2)
        print()
    else:
        print("== quadratic PCF maps over Q with trivial stabilizer ==")
        for item in data["trivial_stabilizer_maps"]:
            print(f"sigma=({item['sigma1']},{item['sigma2']})  {item['map']}")
            for line in item["portrait"]:
                print("   " + line)
        print("== preperiodic structures: twists of z^2 ==")
        for item in data["sq_twist_classes"]:
            print(f"b={item['b']}: {item['class']}  ({item['description']})")
            for line in item["graph"]:
                print("   " + line)
        print("== preperiodic structures: twists of 1/z^2 ==")
        for item in data["invsq_twist_classes"]:
            print(f"{item['class']}  rep {item['representative']}")
            for line in item["graph"]:
                print("   " + line)
        print("== power map components ==")
        for name, comps in data["power_map_components"].items():
            print(f"{name}: {len(comps)} components, "
                  f"sizes {sorted(len(c) for c in comps)}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, primes: bool = True) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    if primes:
        p.add_argument("--primes", type=int, help="number of odd primes (default 130)")
        p.add_argument("--prime-list", dest="prime_list",
                       help="explicit comma-separated odd primes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadpcf",
        description="search, sieve and certification of quadratic PCF maps over Q")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="run the height-bounded sigma-pair sieve")
    _add_common(p)
    p.add_argument("--h1", type=int, help="height bound for sigma1")
    p.add_argument("--h2", type=int, help="height bound for sigma2")
    p.add_argument("--out", help="TSV output path (default: stdout)")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("verify", help="exactly verify critical-orbit finiteness")
    _add_common(p, primes=False)
    p.add_argument("--sigmas", help='pairs like "2,-8;-6,4"')
    p.add_argument("--in", dest="infile", help="survivors TSV from the sieve")
    p.add_argument("--budget", type=int)
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pipeline", help="sieve + verify, writing artifacts")
    _add_common(p)
    p.add_argument("--h1", type=int)
    p.add_argument("--h2", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--outdir", help="artifact directory")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("portrait", help="critical portrait of one map")
    _add_common(p, primes=False)
    p.add_argument("--map", help='map as "[f2,f1,f0]/[g2,g1,g0]"')
    p.add_argument("--sigmas", help='sigma pair like "2,-8"')
    p.add_argument("--budget", type=int)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--dot", help="write Graphviz DOT here")
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("preper", help="rational preperiodic graph of one map")
    _add_common(p, primes=False)
    p.add_argument("--map", help='map as "[f2,f1,f0]/[g2,g1,g0]"')
    p.add_argument("--sigmas", help='sigma pair like "2,-8"')
    p.add_argument("--preper-height-bound", dest="preper_height_bound", type=int)
    p.add_argument("--preper-step-budget", dest="preper_step_budget", type=int)
    p.add_argument("--preper-cutoff", dest="preper_cutoff", type=int)
    p.add_argument("--dot", help="write Graphviz DOT here")
    p.set_defaults(func=_cmd_preper)

    p = sub.add_parser("classify-twist", help="symmetry-locus structure class")
    p.add_argument("--psi1-b", dest="psi1_b", help="b of the z^2 twist z/2 + b/z")
    p.add_argument("--psi2-t", dest="psi2_t", help="t of the 1/z^2 twist t/z^2")
    p.add_argument("--psi2-dk", dest="psi2_dk", help='pair "d,k" of the 1/z^2 normal form')
    p.add_argument("--map", help="explicit map conjugate to 1/z^2")
    p.set_defaults(func=_cmd_classify_twist)

    p = sub.add_parser("catalog", help="print the computed structure catalogs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CatalogMatchError as e:
        print(f"error: catalog-mismatch: {e}", file=sys.stderr)
        return EXIT_CATALOG_MISMATCH
    except (ValueError, OSError) as e:
        print(f"error: invalid-input: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
