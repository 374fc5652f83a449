"""Command-line surface.

    homord [--config FILE | --config=FILE] SUBCOMMAND [flags]

Subcommands: build, orbits, acl, tau-path, sample, estimate, test, cro.
The optional config file, named before or after the subcommand, holds one
flag a line, as `key = value` (split at the first `=`, the value possibly
empty) or, with no `=`, `key value`, mirroring the subcommand's long
flags (no leading dashes, dashes may be written as underscores); `#` starts a
comment, blank lines are skipped, and flags given on the command line win.
Output goes to stdout, or to the `--out` file every subcommand takes: `sample`
writes CSV, the others JSON, and each JSON one but `build` prints `wrote FILE`.
`build` also prints a summary line on stderr, and `test` its verdict line.
Exit status: 0 on success and a passing verdict, 1 when the verdict fails or
no path exists, 2 on bad input.  `build`, `sample`, `estimate` and `test`
also take `--seed` (default 0), and the others refuse it.  In those four, the
class, sampler or suite picks a mode, which reads its own flags and refuses
the rest.  The build modes are the classes in `builders.CLASSES` that have a
builder, each with its spec's flag defaults, so this module names no class.
A reader that closes the output early (`| head`) ends the run quietly with 0.

Each subcommand imports the layers it uses, so `cro`, `orbits`, `acl`,
`tau-path` and the witness builds start without numpy; only `sample`,
`estimate`, `test` and the builds whose seed shuffles a direct construction
(the degree-2 bipartite and involution classes) load it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import TYPE_CHECKING

from . import builders
from .errors import (
    ResourceLimitError,
    SaturationInfeasibleError,
    TypeNotRealizedError,
    ValidationError,
)
from .structures import FinStructure, canonical_type

if TYPE_CHECKING:
    from . import samplers

# each --sampler's class in `samplers`, fetched on use: importing cli loads no numpy
_SAMPLERS = {"uniform": "UniformOrderSampler", "atoms": "AtomOrderSampler",
             "pq": "PQOrderSampler", "bimin": "BipartiteMinSampler",
             "involution": "InvolutionOrderSampler", "dual": "DualFunctionalSampler"}

# Each mode's flags beyond its command's common ones, by dest, with the value a
# flag left out takes (_NEED: the mode cannot run without it).  Selectors pick
# the mode: build's class (the name before ':'), the sampler, or test's suite
# and then its sampler, if it reads one.  A mode refuses the flags only the
# command's other modes read; one not listed passes through untouched.  The
# build modes are the classes with a builder, with their spec's flags.
_NEED = object()
_SAMPLER_MODES = {**dict.fromkeys(_SAMPLERS, {}), "atoms": {"atoms": _NEED}}
_SAMPLER_SUITE = {"infile": _NEED, "level": -1, "sampler": "uniform"}
_MODES = {
    "build": {"klass": {
        base: spec.flags for base, spec in ((b, make()) for b, make in builders.CLASSES.items())
        if spec.build
    }},
    "sample": {"sampler": _SAMPLER_MODES},
    "estimate": {"sampler": _SAMPLER_MODES},
    "test": {"suite": {
        "ergodicity": {"source": "iid_uniform", "length": 256, "block": 64},
        "monotone": _SAMPLER_SUITE,
        "exchangeability": {**_SAMPLER_SUITE, "pairs": _NEED, "alpha": 0.001},
        "independence": {**_SAMPLER_SUITE, "tuples": _NEED, "alpha": 0.001},
    }, "sampler": _SAMPLER_MODES},
}


def _flag(dest: str) -> str:
    return "--" + {"infile": "in", "klass": "class"}.get(dest, dest).replace("_", "-")


def _read_mode(args: argparse.Namespace) -> None:
    """Check args against its mode's rows of _MODES; fill in their defaults."""
    mode, row, others = "", {}, set()
    for selector, rows in _MODES.get(args.command, {}).items():
        others.update(*rows.values())
        if mode and selector not in row:
            continue  # the ergodicity suite draws no samples
        name = getattr(args, selector, row.get(selector))
        if name.partition(":")[0] not in rows:
            return  # cmd_build names the unknown class
        mode += f"{_flag(selector)} {name} "
        row.update(rows[name.partition(":")[0]])
    for dest in sorted((others - row.keys()) & vars(args).keys()):
        raise ValidationError(f"{mode}takes no {_flag(dest)}")
    for dest in sorted(row.keys() - vars(args).keys()):
        if row[dest] is _NEED:
            raise ValidationError(f"{mode}needs {_flag(dest)}")
        setattr(args, dest, row[dest])


def _csv_ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _read_text(path: str, what: str) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{what} file is not text: {exc}") from None


def _structure(args) -> FinStructure:
    """The level of the --in chain that --level names."""
    chain = builders.chain_loads(_read_text(args.infile, "chain"))
    try:
        return chain.levels[args.level]
    except IndexError:
        raise ValidationError(
            f"level {args.level} outside the chain's {len(chain.levels)} levels"
        ) from None


def _parse_atoms(text: str, S: FinStructure) -> samplers.AtomSpec:
    """loc:mass[,loc:mass...]; tie order inside each atom is ascending ids."""
    from . import samplers

    atoms = []
    ties = {}
    asc = samplers.FixedOrder("asc", tuple(S.elements))
    for part in text.split(","):
        try:
            loc, mass = map(float, part.split(":"))
        except ValueError:
            raise ValidationError(f"bad atom {part!r}; expected loc:mass") from None
        atoms.append((loc, mass))
        ties[loc] = asc
    return samplers.AtomSpec(atoms=tuple(atoms), tie_break=ties)


def _make_sampler(args):
    from . import samplers

    S = _structure(args)
    make = getattr(samplers, _SAMPLERS[args.sampler])
    if args.sampler == "atoms":
        return make(S, _parse_atoms(args.atoms, S))
    return make(S)


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


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, indent=1, sort_keys=True), args.out)
    if args.out:
        print(f"wrote {args.out}")


# --- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    spec = builders.class_by_name(args.klass)
    if spec.build is None:
        raise ValidationError(f"class {args.klass!r} has no builder")
    chain = spec.build(spec, args.seed, **{dest: getattr(args, dest) for dest in spec.flags})
    if isinstance(chain, FinStructure):
        chain = builders.StructureChain(args.klass, (chain,), (0,))
    _write(builders.chain_dumps(chain), args.out)
    print(f"built {args.klass}: {len(chain.levels)} level(s), top size {chain.top.size}, "
          f"saturation {chain.saturation[-1]}", file=sys.stderr)
    return 0


def cmd_orbits(args) -> int:
    from . import groups

    S = _structure(args)
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
    from . import groups

    chain = builders.chain_loads(_read_text(args.infile, "chain"))
    prof = groups.acl_profile(chain, frozenset(_csv_ints(args.fix)), args.b)
    payload = {
        "verdict": prof.verdict,
        "orbit_sizes": list(prof.orbit_sizes),
        "final_orbit": sorted(prof.final_orbit),
    }
    _emit(payload, args)
    return 0


def cmd_tau_path(args) -> int:
    from . import taupaths

    S = _structure(args)
    tau = _resolve_tau(S, args.tau)
    path = taupaths.find_tau_path(S, args.a, args.b, tau, avoid=frozenset(_csv_ints(args.avoid)))
    if path is None:
        _emit({"found": False}, args)
        return 1
    _emit({"found": True, "nodes": list(path.nodes), "length": path.length}, args)
    return 0


def cmd_sample(args) -> int:
    import numpy as np

    if args.n < 1:
        raise ValidationError("n must be positive")
    sampler = _make_sampler(args)
    points = _csv_ints(args.points) or tuple(sampler.elements)
    if len(set(points)) != len(points):
        raise ValidationError("points repeat")
    cols = [sampler.column(p) for p in points]
    element = np.array(sampler.elements)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        start = 0
        for b in sampler.batches(args.seed, args.n):
            eta = b.eta[:, cols]
            # each row's order restricted to the points, as element ids
            ordered = np.empty((len(b), 0), dtype=int)
            if b.keys is not None:
                ordered = element[b.order[np.isin(b.order, cols)]].reshape(len(b), -1)
            if start == 0:
                k = ordered.shape[1]
                out.write(",".join(["sampleIndex", *(f"pos{j}" for j in range(k)),
                                    *(f"eta_{p}" for p in points)]) + "\r\n")
                # the bytes csv.writer gives for ints and floats, one row at a time
                row = ",".join(["%d"] * (1 + k) + ["%r"] * len(points)) + "\r\n"
            for i in range(len(b)):
                out.write(row % (start + i, *ordered[i].tolist(), *eta[i].tolist()))
            start += len(b)
    finally:
        if args.out:
            out.close()
    return 0


def cmd_estimate(args) -> int:
    from . import stats

    sampler = _make_sampler(args)
    points = _csv_ints(args.points)
    target = _csv_ints(args.target) if args.target is not None else points
    est = stats.estimate_order_event(sampler, points, target, args.n, args.seed)
    _emit({"value": est.value, "stderr": est.stderr, "n": est.n, "ci99": list(est.ci99)}, args)
    return 0


def cmd_test(args) -> int:
    from . import stats

    if args.suite == "ergodicity":
        sources = {
            "iid_uniform": lambda: stats.iid_uniform_sequences(args.length),
            "iid_bernoulli": lambda: stats.iid_bernoulli_sequences(0.5, args.length),
            "mixture": lambda: stats.mixture_bernoulli_sequences(0.25, 0.75, args.length),
            "constant": lambda: stats.constant_mixture_sequences(args.length),
        }
        if args.source not in sources:
            raise ValidationError(f"unknown source {args.source!r}")
        v = stats.test_shift_ergodicity(sources[args.source](), args.block, args.seed, args.n)
    else:
        sampler = _make_sampler(args)
        if args.suite == "monotone":
            v = stats.test_monotone_coupling(sampler, args.seed, args.n)
        elif args.suite == "exchangeability":
            halves = (text.partition(";") for text in args.pairs)
            pairs = [(_csv_ints(left), _csv_ints(right)) for left, _, right in halves]
            v = stats.test_exchangeability(sampler, pairs, args.seed, args.n, args.alpha)
        else:
            tuples = [_csv_ints(t) for t in args.tuples]
            v = stats.test_independence(sampler, tuples, args.seed, args.n, args.alpha)
    verdict = dataclasses.asdict(v)
    verdict["pass"] = verdict.pop("passed")
    _emit({"verdicts": [verdict]}, args)
    print(f"{'PASS' if v.passed else 'FAIL'} {v.name}: statistic={v.statistic:.6g} "
          f"threshold={v.threshold:.6g} ({v.comparison})", file=sys.stderr)
    return 0 if v.passed else 1


def cmd_cro(args) -> int:
    from . import cro

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
    _emit(payload, args)
    return 0


# --- parser --------------------------------------------------------------------

# the options several subcommands take, each declared once
_SHARED = {
    "--class": {"dest": "klass", "required": True},
    "--sampler": {"choices": _SAMPLERS, "required": True},
    "--in": {"dest": "infile", "required": True},
    "--level": {"type": int, "default": -1},
    "--fix": {"default": ""},
    "--atoms": {"default": argparse.SUPPRESS, "help": "loc:mass[,loc:mass...]"},
}


def _add_shared(p: argparse.ArgumentParser, *flags: str, mode: bool = False) -> None:
    """Add the shared flags; as mode flags (test's suite reads them) they are
    absent unless given and carry no help."""
    for flag in flags:
        kw = _SHARED[flag]
        if mode:
            kw = {k: v for k, v in kw.items() if k in ("dest", "type", "choices")}
        p.add_argument(flag, **kw)


def _finish(p: argparse.ArgumentParser, func, seed: bool = False) -> None:
    """The options that close every subcommand, and the function it runs."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write output to this file")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="homord",
        description="finite-structure laboratory for invariant random orders",
        # _apply_config reads --config; a prefix of it would go unread
        allow_abbrev=False,
    )
    root.add_argument("--config", default=None, help="key = value file of default flags")
    sub = root.add_subparsers(dest="command", required=True)

    # a mode flag is absent unless given; _read_mode fills in its mode's default
    p = sub.add_parser("build", help="build a structure chain, write JSON")
    _add_shared(p, "--class")
    # one option per flag the build classes' specs declare, typed by its default
    flags = {dest: v for row in _MODES["build"]["klass"].values() for dest, v in row.items()}
    for dest, v in flags.items():
        kind = _csv_ints if isinstance(v, tuple) else int
        p.add_argument(_flag(dest), dest=dest, type=kind, default=argparse.SUPPRESS)
    _finish(p, cmd_build, seed=True)

    p = sub.add_parser("orbits", help="k-tuple orbit partition at a chain level")
    _add_shared(p, "--in", "--level")
    p.add_argument("--k", type=int, default=2)
    _add_shared(p, "--fix")
    _finish(p, cmd_orbits)

    p = sub.add_parser("acl", help="orbit-growth profile of b over a fixed set")
    _add_shared(p, "--in", "--fix")
    p.add_argument("--b", type=int, required=True)
    _finish(p, cmd_acl)

    p = sub.add_parser("tau-path", help="alternating 2-type path search")
    _add_shared(p, "--in", "--level")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tau", required=True, help="edge or nonedge")
    p.add_argument("--avoid", default="")
    _finish(p, cmd_tau_path)

    p = sub.add_parser("sample", help="stream order samples to CSV")
    _add_shared(p, "--sampler", "--in", "--level")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--points", default="")
    _add_shared(p, "--atoms")
    _finish(p, cmd_sample, seed=True)

    p = sub.add_parser("estimate", help="frequency of an order event, with CI")
    _add_shared(p, "--sampler", "--in", "--level")
    p.add_argument("--points", required=True)
    p.add_argument("--target", default=None, help="event order; default = points")
    p.add_argument("--n", type=int, default=100000)
    _add_shared(p, "--atoms")
    _finish(p, cmd_estimate, seed=True)

    p = sub.add_parser("test", help="hypothesis-test suites; exit 0 iff pass",
                       argument_default=argparse.SUPPRESS)
    suites = ("exchangeability", "independence", "monotone", "ergodicity")
    p.add_argument("--suite", choices=suites, required=True)
    _add_shared(p, "--sampler", "--in", "--level", mode=True)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--alpha", type=float, help="exchangeability and independence")
    p.add_argument("--pairs", action="append", help='"a0,a1;b0,b1"')
    p.add_argument("--tuples", action="append", help='"p0,p1[,p2]"')
    _add_shared(p, "--atoms", mode=True)
    p.add_argument("--source")
    p.add_argument("--length", type=int)
    p.add_argument("--block", type=int)
    _finish(p, cmd_test, seed=True)

    p = sub.add_parser("cro", help="exact ordering-consistency report")
    _add_shared(p, "--class")
    p.add_argument("--n", type=int, required=True, help="truncation level")
    _finish(p, cmd_cro)

    return root


def _apply_config(argv: list[str]) -> list[str]:
    """Inject config-file values as flags right after the subcommand; later
    (user-given) flags override them."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 == len(argv):
                raise ValidationError("--config needs a file path")
            path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
            break
        if arg.startswith("--config="):
            path, rest = arg.partition("=")[2], argv[:i] + argv[i + 1 :]
            break
    else:
        return argv
    if not rest:
        return rest
    tokens = []
    for line in _read_text(path, "config").split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            key, _, value = line.partition(" ")
        tokens += [f"--{key.strip().replace('_', '-')}", value.strip()]
    return [rest[0], *tokens, *rest[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        _read_mode(args)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone after the last write shows up here
        return code
    except BrokenPipeError:
        # the rest goes nowhere, so the flush at exit has nothing to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValidationError, TypeNotRealizedError, ResourceLimitError,
            SaturationInfeasibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
