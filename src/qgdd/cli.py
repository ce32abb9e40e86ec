"""Command-line front end: deterministic text/JSON output for scripting.

Results go to stdout, logs to stderr.  Exit status 0 means every requested
verification passed, 1 marks a verification failure (a witness is printed),
2 is a usage error.  All numeric output is exact decimal integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .atlas import OrbitLabel, check_block_dim, gl_atlas, gl_order
from .incidence import brute_force_matrix, closed_form_matrix
from .designfile import design_from_json_dict, design_to_json_dict
from .designs import (DesignInstance, GddSelection, block_count, break_blocks,
                      build_gdd, build_pbd, fill_holes, supplementary,
                      verify_design, verify_gdd)
from .singer import (divisors, h_incidence_matrix, kramer_mesner_solve,
                     n_orbits_with_stabilizer, singer_action)
from .subspaces import Subspace, gaussian_binomial


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_design(design: DesignInstance, path: str) -> None:
    Path(path).write_text(_dump_json(design_to_json_dict(design)))


def _read_design(path: str, strict: bool = True) -> DesignInstance:
    return design_from_json_dict(json.loads(Path(path).read_text()), strict)


def _positive_int(text: str) -> int:
    """An integer >= 1, for --sample, --threads, --budget and --max-solutions
    (usage error otherwise)."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _parse_select(chunks: list[str]) -> dict[tuple[int, int], int]:
    """Parse selections like "2,3=1" or "2,1=4,2,3=1" into {(r, u): w}."""
    weights: dict[tuple[int, int], int] = {}
    for chunk in chunks:
        tokens = chunk.split(",")
        group: list[str] = []
        for tok in tokens:
            group.append(tok)
            if "=" in tok:
                if len(group) != 2:
                    raise ValueError(f"bad selection syntax near {chunk!r}")
                r = int(group[0])
                u_str, w_str = group[1].split("=")
                weights[(r, int(u_str))] = int(w_str)
                group = []
        if group:
            raise ValueError(f"bad selection syntax near {chunk!r}")
    return weights


def _drop_stdout() -> None:
    """Point a closed stdout at devnull, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _print_report(report, as_json: bool, lead: str | None = None) -> int:
    """Print a report after an optional lead line; return its exit status.

    The status survives a closed stdout.
    """
    try:
        if lead is not None:
            print(lead)
        if as_json:
            sys.stdout.write(_dump_json(report.to_json_dict()))
        else:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} kind={report.kind} mode={report.mode} "
                  f"blocks={report.block_count} simple={report.simple}")
            for cls, lam in report.lambda_by_class:
                n = report.pair_count(cls)
                lam_str = str(lam) if lam is not None else "nonuniform"
                print(f"  class {cls}: {n} pairs, coverage {lam_str}")
            for fail in report.failures:
                print(f"  witness: pair {fail['pair_key']} covered {fail['count']} "
                      f"(expected {fail['expected']})")
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return 0 if report.passed else 1


def cmd_gbinom(args) -> int:
    print(gaussian_binomial(args.v, args.k, args.q))
    return 0


def cmd_singer_orbits(args) -> int:
    action = singer_action(args.l, args.q)
    if args.counts_only:
        if not 0 <= args.d <= args.l:
            raise ValueError("need 0 <= d <= l")
        by_u = {u: n_orbits_with_stabilizer(args.d, u, args.l, args.q)
                for u in divisors(args.l) if args.d % u == 0}  # u | gcd(d, l)
        body = {"l": args.l, "d": args.d, "q": args.q, "n_orbits": sum(by_u.values()),
                "by_stabilizer": {str(u): n for u, n in by_u.items() if n}}
        if args.json:
            sys.stdout.write(_dump_json(body))
        else:
            print(f"n_orbits(d={args.d}, v={args.l}, q={args.q}) = {body['n_orbits']}")
            for u, n in body["by_stabilizer"].items():
                print(f"  stabilizer GF(q^{u})*: {n}")
        return 0
    orbits = action.orbit_representatives(args.d)
    body = {"l": args.l, "d": args.d, "q": args.q,
            "orbits": [{"u": o.u, "length": o.length,
                        "representative": o.rep.basis_lists()}
                       for o in orbits]}
    if args.json:
        sys.stdout.write(_dump_json(body))
    else:
        print(f"{len(orbits)} orbit(s) of {args.d}-subspaces of GF({args.q})^{args.l}")
        for o in orbits:
            print(f"  u={o.u} length={o.length} rep={o.rep.basis_lists()}")
    return 0


def cmd_orbit_atlas(args) -> int:
    atlas = gl_atlas(args.m, args.l, args.q)
    k = args.k
    check_block_dim(args.m, args.l, k)  # block orbits only, so not the rows at k = 2
    total = gl_order(atlas.m, atlas.Q)
    labels = []
    for label in atlas.orbit_labels(k):
        size = atlas.label_orbit_size(label)
        full = label.kind == "full"
        labels.append({
            "family": label.kind, "r": label.r,
            "u": None if full else atlas.label_u(label),
            "rep": None if full else Subspace(args.q, args.l, label.rep_rows).basis_lists(),
            "stabilizer_order": total // size,
            "orbit_size": size,
        })
    body = {"m": args.m, "l": args.l, "k": k, "q": args.q, "labels": labels}
    if args.json:
        sys.stdout.write(_dump_json(body))
    else:
        print(f"orbit atlas for k={k}-subspaces of GF({args.q})^{args.m * args.l}")
        for lab in labels:
            print(f"  {lab['family']:>5} r={lab['r']} u={lab['u']} "
                  f"size={lab['orbit_size']} stab={lab['stabilizer_order']} "
                  f"rep={lab['rep']}")
    return 0


def cmd_stabilizer(args) -> int:
    atlas = gl_atlas(args.m, args.l, args.q)
    order = atlas.stabilizer_order(args.k, args.r, args.u)
    print(f"stabilizer_order={order}")
    print(f"orbit_size={gl_order(atlas.m, atlas.Q) // order}")
    if args.brute_force:
        orbits = [o for o in atlas.singer.orbit_representatives(args.r + 1)
                  if o.u == args.u]
        if not orbits:
            print("no orbit with the requested (r, u)", file=sys.stderr)
            return 2
        label = OrbitLabel(args.k, args.k - 1, args.r, orbits[0].rep.rows)
        brute = atlas.brute_force_stabilizer_order(atlas.realize(label))
        print(f"brute_force={brute}")
        if brute != order:
            print("MISMATCH between formula and brute force", file=sys.stderr)
            return 1
    return 0


def cmd_incidence(args) -> int:
    if args.mode in ("closed", "both"):
        closed = closed_form_matrix(args.m, args.l, args.k, args.q)
    if args.mode in ("brute", "both"):
        brute = brute_force_matrix(args.m, args.l, args.k, args.q)
    matrix = closed if args.mode != "brute" else brute
    if args.mode == "both":
        diffs = closed.to_labeled().diff(brute.to_labeled())
        if diffs:
            print(f"DISAGREE at {len(diffs)} positions", file=sys.stderr)
            for i, j, a, b in diffs[:10]:
                print(f"  row {i} col {j}: closed={a} brute={b}", file=sys.stderr)
            return 1
        # a --json or --csv document owns stdout
        print("closed and brute-force matrices agree "
              f"({matrix.shape[0]}x{matrix.shape[1]})",
              file=sys.stderr if args.json or args.csv else sys.stdout)
    if args.json:
        sys.stdout.write(_dump_json(matrix.to_json_dict()))
    elif args.csv:
        sys.stdout.write(matrix.to_labeled().to_csv())
    elif args.mode != "both":
        labeled = matrix.to_labeled()
        sys.stdout.write(labeled.to_csv())
    return 0


def _selection_from_args(args) -> GddSelection:
    weights = _parse_select(args.select or [])
    return GddSelection.of(weights, omega_kk=args.omega_kk)


def cmd_build_gdd(args) -> int:
    selection = _selection_from_args(args)
    design = build_gdd(args.m, args.l, args.k, args.q, selection)
    _write_design(design, args.out)
    print(f"wrote {args.out}: ({args.m * args.l},{args.l},{args.k},"
          f"{design.claimed_lambda})_{args.q} gdd with {block_count(design)} blocks")
    return 0


def cmd_build_pbd(args) -> int:
    seed = _read_design(args.seed)
    selection = _selection_from_args(args)
    design = build_pbd(seed, args.m, args.k, selection)
    _write_design(design, args.out)
    lam = design.claimed_lambda
    if lam is None:
        by = dict(design.claimed_lambda_by_class or ())
        print(f"wrote {args.out}: mixed instance, span1={by.get('span1')} "
              f"span2={by.get('span2')}, K={list(design.K)}")
    else:
        print(f"wrote {args.out}: pbd({design.v}, {list(design.K)}, {lam})_{design.q}")
    return 0


def cmd_verify(args) -> int:
    design = _read_design(args.infile, strict=not args.lenient)
    mode = "sampled" if args.sample else "full"
    kwargs = dict(mode=mode, threads=args.threads)
    if args.sample:
        kwargs.update(sample=args.sample, seed=args.seed)
    if design.kind == "gdd":
        report = verify_gdd(design, **kwargs)
    else:
        report = verify_design(design, **kwargs)
    return _print_report(report, args.json)


def cmd_break_blocks(args) -> int:
    pbd = _read_design(args.pbd)
    ingredients = {}
    for chunk in args.ingredient:
        for part in chunk.split(","):
            u_str, path = part.split("=", 1)
            ingredients[int(u_str)] = _read_design(path)
    out = break_blocks(pbd, ingredients)
    _write_design(out, args.out)
    print(f"wrote {args.out}: 2-({out.v},{out.K[0]},{out.claimed_lambda})_{out.q} "
          f"design with {block_count(out)} blocks")
    return 0


def cmd_fill_holes(args) -> int:
    gdd = _read_design(args.gdd)
    master = _read_design(args.master)
    mode = "sampled" if args.sample else "full"
    kwargs = dict(verify_mode=mode, threads=args.threads)
    if args.sample:
        kwargs.update(sample=args.sample, seed=args.seed)
    design, report = fill_holes(gdd, master, args.hole_dim, **kwargs)
    _write_design(design, args.out)
    return _print_report(report, args.json,
                         lead=f"wrote {args.out}: 2-({design.v},{design.K[0]},"
                              f"{design.claimed_lambda})_{design.q} candidate, "
                              f"{block_count(design)} blocks")


def cmd_supplement(args) -> int:
    design = _read_design(args.infile)
    out = supplementary(design)
    _write_design(out, args.out)
    claim = f"claimed_lambda={out.claimed_lambda}"
    if out.claimed_lambda_by_class:
        claim = "mixed, " + " ".join(f"{cls}={lam}"
                                     for cls, lam in out.claimed_lambda_by_class)
    print(f"wrote {args.out}: supplementary design with {block_count(out)} "
          f"blocks, {claim}")
    return 0


def cmd_km_solve(args) -> int:
    matrix = h_incidence_matrix(args.l, 2, args.k, args.q)
    orbits = singer_action(args.l, args.q).orbit_representatives(args.k)
    result = kramer_mesner_solve(matrix, args.lam, budget=args.budget,
                                 max_solutions=args.max_solutions)
    print(f"status={result.status} nodes={result.nodes} "
          f"solutions={len(result.solutions)}")
    for sol in result.solutions:
        blocks = sum(o.length for o, x in zip(orbits, sol) if x)
        print("  x=" + "".join(str(x) for x in sol) + f" blocks={blocks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdesign",
        description="q-analog design constructor and verifier over GF(q)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gbinom", help="Gaussian binomial coefficient")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_gbinom)

    p = sub.add_parser("singer-orbits", help="Singer orbits of d-subspaces")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_singer_orbits)

    p = sub.add_parser("orbit-atlas", help="GL-orbit labels with sizes")
    for flag in ("--m", "--l", "--k", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbit_atlas)

    p = sub.add_parser("stabilizer", help="stabilizer order of a representative")
    for flag in ("--m", "--l", "--k", "--q", "--r", "--u"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("incidence", help="incidence block matrix")
    for flag in ("--m", "--l", "--k", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--mode", choices=("closed", "brute", "both"), default="closed")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("build-gdd", help="build a group divisible design")
    for flag in ("--m", "--l", "--k", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--select", action="append",
                   help="orbit multiplicities, e.g. 2,3=1")
    p.add_argument("--omega-kk", action="store_true",
                   help="include the span-k orbit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_gdd)

    p = sub.add_parser("build-pbd", help="embed a seed design into a gdd")
    p.add_argument("--seed", required=True, help="seed design file on GF(q)^l")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--select", action="append")
    p.add_argument("--omega-kk", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_pbd)

    p = sub.add_parser("verify", help="verify a design file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sample", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--lenient", action="store_true",
                   help="re-canonicalize non-canonical input rows")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("break-blocks", help="replace blocks by ingredient designs")
    p.add_argument("--pbd", required=True)
    p.add_argument("--ingredient", action="append", required=True,
                   help="u=FILE[,u=FILE...]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_break_blocks)

    p = sub.add_parser("fill-holes", help="glue master copies over the groups")
    p.add_argument("--gdd", required=True)
    p.add_argument("--master", required=True)
    p.add_argument("--hole-dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fill_holes)

    p = sub.add_parser("supplement", help="supplementary design of a simple design")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_supplement)

    p = sub.add_parser("km-solve", help="bounded 0-1 Kramer-Mesner search")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--budget", type=_positive_int, default=10_000_000)
    p.add_argument("--max-solutions", type=_positive_int, default=None)
    p.set_defaults(func=cmd_km_solve)

    return parser


def main(argv=None) -> int:
    """Run one command; on a closed stdout a reached verdict stands, else exit 0."""
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
