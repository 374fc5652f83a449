"""Command-line surface.

    homord [--config FILE] SUBCOMMAND [flags]

Subcommands: build, orbits, acl, tau-path, sample, estimate, test, cro.
The optional config file holds `key = value` lines mirroring the subcommand's
long flags (no leading dashes, dashes may be written as underscores); flags
given on the command line win.  Exit status: 0 on success and all requested
verdicts passing, 1 when a verdict fails or no path exists, 2 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from . import builders, cro, groups, samplers, stats, taupaths
from .errors import (
    ResourceLimitError,
    SaturationInfeasibleError,
    TypeNotRealizedError,
    ValidationError,
)
from .structures import FinStructure, canonical_type

_SAMPLERS = ("uniform", "atoms", "pq", "bimin", "involution", "dual")


def _csv_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _load_chain(path: str) -> builders.StructureChain:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"chain file is not text: {exc}") from None
    return builders.chain_loads(text)


def _pick_level(chain: builders.StructureChain, level: int) -> FinStructure:
    try:
        return chain.levels[level]
    except IndexError:
        raise ValidationError(
            f"level {level} outside the chain's {len(chain.levels)} levels"
        ) from None


def _parse_atoms(text: str, S: FinStructure) -> samplers.AtomSpec:
    """loc:mass[,loc:mass...]; tie order inside each atom is ascending ids."""
    atoms = []
    ties = {}
    asc = samplers.FixedOrder("asc", tuple(S.elements))
    for part in text.split(","):
        loc_s, _, mass_s = part.partition(":")
        loc, mass = float(loc_s), float(mass_s)
        atoms.append((loc, mass))
        ties[loc] = asc
    return samplers.AtomSpec(atoms=tuple(atoms), tie_break=ties)


def _make_sampler(name: str, S: FinStructure, atoms_arg: str | None):
    if name == "uniform":
        return samplers.UniformOrderSampler(S)
    if name == "atoms":
        if not atoms_arg:
            raise ValidationError("--atoms loc:mass[,loc:mass...] is required")
        return samplers.AtomOrderSampler(S, _parse_atoms(atoms_arg, S))
    if name == "pq":
        return samplers.PQOrderSampler(S)
    if name == "bimin":
        return samplers.BipartiteMinSampler(S)
    if name == "involution":
        return samplers.InvolutionOrderSampler(S)
    if name == "dual":
        return samplers.DualFunctionalSampler(S)
    raise ValidationError(f"unknown sampler {name!r}")


def _resolve_tau(S: FinStructure, name: str) -> bytes:
    """edge / nonedge, resolved against the structure's own pair types."""
    if ("E", 2) not in S.signature.relations:
        raise ValidationError("edge/nonedge tau names need a graph-like structure")
    edges = S.table("E")
    want_edge = name in ("edge", "e")
    if not want_edge and name not in ("nonedge", "non-edge"):
        raise ValidationError(f"unknown tau {name!r}; use edge or nonedge")
    for a in S.elements:
        for b in S.elements:
            if a == b:
                continue
            if ((a, b) in edges) == want_edge:
                return canonical_type(S, (a, b))
    raise TypeNotRealizedError(f"no {name} pair exists in the structure")


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


def _verdict_payload(v: stats.TestVerdict) -> dict:
    d = dataclasses.asdict(v)
    d["pass"] = d.pop("passed")
    return d


# --- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    base = args.klass.split(":")[0]
    if base in ("graph", "kn_free_graph", "tournament", "pure_set"):
        chain = builders.build_generic(
            builders.class_by_name(args.klass), args.sat, args.cap, args.seed
        )
    elif base == "two_predicate_PQ":
        S = builders.build_two_predicate_PQ(args.size_p, args.size_q)
        chain = builders.StructureChain(args.klass, (S,), (0,))
    elif base == "bipartite_deg2":
        S = builders.build_bipartite_deg2(args.m, args.seed)
        chain = builders.StructureChain(args.klass, (S,), (0,))
    elif base == "involution_order":
        chain = builders.involution_order_chain(list(args.pairs), args.seed)
    elif base == "f2_vector_space":
        dim = int(args.klass.partition(":")[2] or 3)
        S = builders.build_f2_vector_space(dim)
        chain = builders.StructureChain(args.klass, (S,), (0,))
    else:
        raise ValidationError(f"unknown class {args.klass!r}")
    text = builders.chain_dumps(chain)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    top = chain.top
    print(
        f"built {args.klass}: {len(chain.levels)} level(s), top size {top.size}, "
        f"saturation {chain.saturation[-1]}",
        file=sys.stderr,
    )
    return 0


def cmd_orbits(args) -> int:
    chain = _load_chain(args.infile)
    S = _pick_level(chain, args.level)
    fixed = frozenset(_csv_ints(args.fix))
    part = groups.orbits(S, args.k, fixed=fixed)
    payload = {
        "k": args.k,
        "fix": sorted(fixed),
        "level_size": S.size,
        "blocks": [[list(t) for t in block] for block in part.blocks],
    }
    _emit(payload, args)
    return 0


def cmd_acl(args) -> int:
    chain = _load_chain(args.infile)
    prof = groups.acl_profile(chain, frozenset(_csv_ints(args.fix)), args.b)
    payload = {
        "verdict": prof.verdict,
        "orbit_sizes": list(prof.orbit_sizes),
        "final_orbit": sorted(prof.final_orbit),
    }
    _emit(payload, args)
    return 0


def cmd_tau_path(args) -> int:
    chain = _load_chain(args.infile)
    S = _pick_level(chain, args.level)
    tau = _resolve_tau(S, args.tau)
    path = taupaths.find_tau_path(
        S, args.a, args.b, tau, avoid=frozenset(_csv_ints(args.avoid))
    )
    if path is None:
        _emit({"found": False}, args)
        return 1
    _emit({"found": True, "nodes": list(path.nodes), "length": path.length}, args)
    return 0


def cmd_sample(args) -> int:
    chain = _load_chain(args.infile)
    S = _pick_level(chain, args.level)
    sampler = _make_sampler(args.sampler, S, args.atoms)
    points = _csv_ints(args.points) if args.points else tuple(sampler.elements)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        first = True
        for i, s in enumerate(sampler.stream(args.seed, args.n)):
            ordered = getattr(s, "order", None)
            if ordered is not None:
                ordered = tuple(p for p in ordered if p in points)
            eta = s.eta or {}
            if first:
                head = ["sampleIndex"]
                if ordered is not None:
                    head += [f"pos{j}" for j in range(len(ordered))]
                head += [f"eta_{p}" for p in points if p in eta]
                writer.writerow(head)
                first = False
            row = [i]
            if ordered is not None:
                row += list(ordered)
            row += [eta[p] for p in points if p in eta]
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_estimate(args) -> int:
    chain = _load_chain(args.infile)
    S = _pick_level(chain, args.level)
    sampler = _make_sampler(args.sampler, S, args.atoms)
    points = _csv_ints(args.points)
    target = _csv_ints(args.target) if args.target else points
    est = stats.estimate_order_event(sampler, points, target, args.n, args.seed)
    _emit(
        {
            "value": est.value,
            "stderr": est.stderr,
            "n": est.n,
            "ci99": list(est.ci99),
        },
        args,
    )
    return 0


def cmd_test(args) -> int:
    verdicts: list[stats.TestVerdict] = []
    if args.suite == "ergodicity":
        sources = {
            "iid_uniform": lambda: stats.iid_uniform_sequences(args.length),
            "iid_bernoulli": lambda: stats.iid_bernoulli_sequences(0.5, args.length),
            "mixture": lambda: stats.mixture_bernoulli_sequences(
                0.25, 0.75, args.length
            ),
            "constant": lambda: stats.constant_mixture_sequences(args.length),
        }
        if args.source not in sources:
            raise ValidationError(f"unknown source {args.source!r}")
        verdicts.append(
            stats.test_shift_ergodicity(
                sources[args.source](), args.block, args.seed, args.n
            )
        )
    else:
        chain = _load_chain(args.infile)
        S = _pick_level(chain, args.level)
        sampler = _make_sampler(args.sampler, S, args.atoms)
        if args.suite == "monotone":
            verdicts.append(stats.test_monotone_coupling(sampler, args.seed, args.n))
        elif args.suite == "exchangeability":
            if not args.pairs:
                raise ValidationError('need --pairs "a0,a1;b0,b1" at least once')
            tuple_pairs = []
            for spec_text in args.pairs:
                left, _, right = spec_text.partition(";")
                tuple_pairs.append((_csv_ints(left), _csv_ints(right)))
            verdicts.append(
                stats.test_exchangeability(
                    sampler, tuple_pairs, args.seed, args.n, alpha=args.alpha
                )
            )
        elif args.suite == "independence":
            if not args.tuples:
                raise ValidationError('need --tuples "p0,p1" at least once')
            tuples = [_csv_ints(t) for t in args.tuples]
            verdicts.append(
                stats.test_independence(
                    sampler, tuples, args.seed, args.n, alpha=args.alpha
                )
            )
        else:
            raise ValidationError(f"unknown suite {args.suite!r}")
    payload = {"verdicts": [_verdict_payload(v) for v in verdicts]}
    _emit(payload, args)
    for v in verdicts:
        marker = "PASS" if v.passed else "FAIL"
        print(
            f"{marker} {v.name}: statistic={v.statistic:.6g} "
            f"threshold={v.threshold:.6g} ({v.comparison})",
            file=sys.stderr,
        )
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_cro(args) -> int:
    system = cro.build_cro_system(args.klass, args.n)
    report = cro.uniqueness_report(system)
    payload = {
        "class": report.class_name,
        "maxLevel": report.max_level,
        "variables": [
            {
                "code": v.code.decode("ascii"),
                "level": v.level,
                "baseIndex": v.base_index,
                "orderCount": v.order_count,
            }
            for v in system.variables
        ],
        "equalityCount": report.num_rows,
        "uniformFeasible": report.uniform_feasible,
        "nullspaceDim": report.nullspace_dim,
        "diracSolutions": [
            sorted(code.decode("ascii") for code in sol)
            for sol in report.dirac_solutions
        ],
    }
    if args.report:
        args.out = args.report
    _emit(payload, args)
    return 0


# --- parser --------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, seed=0) -> None:
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="homord",
        description="finite-structure laboratory for invariant random orders",
    )
    root.add_argument(
        "--config", default=None, help="key = value file of default flags"
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a structure chain, write JSON")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--sat", type=int, default=1)
    p.add_argument("--cap", type=int, default=64)
    p.add_argument("--size-p", type=int, default=2)
    p.add_argument("--size-q", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--pairs", type=_csv_ints, default=(3,))
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("orbits", help="k-tuple orbit partition at a chain level")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=int, default=-1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--fix", default="")
    _add_common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("acl", help="orbit-growth profile of b over a fixed set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--fix", default="")
    p.add_argument("--b", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_acl)

    p = sub.add_parser("tau-path", help="alternating 2-type path search")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=int, default=-1)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tau", required=True, help="edge or nonedge")
    p.add_argument("--avoid", default="")
    _add_common(p)
    p.set_defaults(func=cmd_tau_path)

    p = sub.add_parser("sample", help="stream order samples to CSV")
    p.add_argument("--sampler", choices=_SAMPLERS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=int, default=-1)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--points", default="")
    p.add_argument("--atoms", default=None, help="loc:mass[,loc:mass...]")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="frequency of an order event, with CI")
    p.add_argument("--sampler", choices=_SAMPLERS, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=int, default=-1)
    p.add_argument("--points", required=True)
    p.add_argument("--target", default=None, help="event order; default = points")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--atoms", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="hypothesis-test suites; exit 0 iff pass")
    p.add_argument(
        "--suite",
        choices=("exchangeability", "independence", "monotone", "ergodicity"),
        required=True,
    )
    p.add_argument("--sampler", choices=_SAMPLERS, default="uniform")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--level", type=int, default=-1)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--alpha", type=float, default=0.001)
    p.add_argument("--pairs", action="append", help='"a0,a1;b0,b1"')
    p.add_argument("--tuples", action="append", help='"p0,p1[,p2]"')
    p.add_argument("--atoms", default=None)
    p.add_argument("--source", default="iid_uniform")
    p.add_argument("--length", type=int, default=256)
    p.add_argument("--block", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("cro", help="exact ordering-consistency report")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--n", type=int, required=True, help="truncation level")
    p.add_argument("--report", default=None, help="report JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_cro)

    return root


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Inject config-file values as flags right after the subcommand; later
    (user-given) flags override them."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValidationError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        return rest
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if not value:
                key, _, value = line.partition(" ")
            pairs.append((key.strip().replace("_", "-"), value.strip()))
    sub = rest[0]
    tokens = []
    for key, value in pairs:
        tokens += [f"--{key}", value]
    return [sub] + tokens + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        ValidationError,
        TypeNotRealizedError,
        ResourceLimitError,
        SaturationInfeasibleError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
