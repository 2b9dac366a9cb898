"""Command-line front end.

Subcommands:

  quotient    order/class/exponent/invariants of G^[level, q] from a file
  cohomology  H^1, H^2, decomposable H^2 and the cup tensor of G^[3, q]
  milnor      k1/k2 invariants and the symbol tensor of a field descriptor
  compare     end-to-end degree <= 2 comparison: Milnor side vs cohomology
              side of the level-3 quotient of the standard Galois model
  check       realizability criteria on presentations / wreath data

Field descriptors: "Fq:<size>", "Qp:<ell>", "R".  Exit codes: 0 for success
or a positive finding, 1 for errors, 2 when a criterion or comparison does
not apply / does not hold.  JSON output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cohom import (
    DEFAULT_H2_BOUND,
    GroupCohomology,
    check_h2_bound,
    cohomology_record,
    pairings_equivalent,
    relator_pairing,
)
from .errors import QcwError
from .milnor import galois_model, parse_field, symbol_algebra
from .presentations import free_presentation, parse_file
from .qcentral import (
    DEFAULT_ORDER_BOUND,
    SeriesParams,
    group_record,
    relator_order,
    second_quotient_record,
    third_quotient,
    third_quotient_relators,
    to_action,
)
from .realizability import (
    CdDescriptor,
    WreathSpec,
    h1_vs_cd_check,
    principle_check,
    relators_in_third_series,
    wreath_construct,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2

CONSISTENT = "COMPARISON-CONSISTENT"
INCONSISTENT = "COMPARISON-FAILED"

POSITIVE_VERDICTS = {"not-realizable", "at-most-one-realizable"}


def _emit(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ": ")) + "\n")
        return
    for line in _text_lines(report):
        sys.stdout.write(line + "\n")


def _text_lines(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_lines(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _group_loader(path: str | None):
    """Name -> presentation in the file at ``path``, parsed once, at the first lookup.

    A lookup with no file (``check`` without ``--file``) or with no name
    (``check --file`` without ``--group``, or without ``--wreath-l``) raises
    a QcwError that names the option that asked for the group.
    """
    groups = None

    def load(name: str | None, option: str = "--group"):
        nonlocal groups
        if path is None:
            raise QcwError(f"{option} needs --file")
        if name is None:
            raise QcwError(f"{option} is missing")
        if groups is None:
            with open(path, "r", encoding="utf-8") as handle:
                groups = parse_file(handle.read())
        for pres in groups:
            if pres.name == name:
                return pres
        raise QcwError(f"no group named {name!r} in {path} (found {[g.name for g in groups]})")

    return load


def cmd_quotient(args) -> int:
    pres = _group_loader(args.file)(args.group)
    params = SeriesParams.from_q(args.q)
    if args.level == 3:
        rec = group_record(third_quotient(pres, params, args.order_bound), args.order_bound)
    else:
        rec = second_quotient_record(pres, params, args.order_bound)
    report = {
        "command": "quotient",
        "file": args.file,
        "group": args.group,
        "level": args.level,
        "q": args.q,
        "result": rec,
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    pres = _group_loader(args.file)(args.group)
    params = SeriesParams.from_q(args.q)
    group = third_quotient(pres, params, args.order_bound)
    # H^2 is reported, so refuse its order before the generator columns exist
    check_h2_bound(group.order, args.h2_bound)
    action = to_action(group, args.order_bound)
    ctx = GroupCohomology(
        action, args.q, h2_bound=args.h2_bound, relators=third_quotient_relators(pres, params)
    )
    report = {
        "command": "cohomology",
        "file": args.file,
        "group": args.group,
        "q": args.q,
        "order": action.order,
        "h1": cohomology_record(ctx.h1_space()),
        "h2": cohomology_record(ctx.h2_space()),
        "decomposable_h2": cohomology_record(ctx.dec_space()),
        "pairing": ctx.pairing().to_record(),
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_milnor(args) -> int:
    params = SeriesParams.from_q(args.q)
    desc = parse_field(args.field, params)
    S = symbol_algebra(desc)
    report = {
        "command": "milnor",
        "field": desc.label(),
        "q": args.q,
        "symbols": S.to_record(),
        "pairing": S.pairing().to_record(),
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    params = SeriesParams.from_q(args.q)
    desc = parse_field(args.field, params)
    milnor_side = symbol_algebra(desc).pairing()
    pres = galois_model(desc)
    # every relator of a Galois model lies in F^(2, q), so G^[3, q] is read
    # off the relators' class-2 images: its order by one elimination over
    # Z/q (relator_order, which also refuses |E| over the order bound) and
    # its cup tensor by another (the relator lemma at relator_pairing), with
    # no ClassTwoGroup and no element or cochain of G
    order = relator_order(pres, params, args.order_bound)
    group_side = relator_pairing(pres, args.q)
    dims_match = (
        milnor_side.m == group_side.m
        and sorted(milnor_side.target_orders) == sorted(group_side.target_orders)
    )
    tensors_match = dims_match and pairings_equivalent(milnor_side, group_side)
    consistent = dims_match and tensors_match
    report = {
        "command": "compare",
        "field": desc.label(),
        "q": args.q,
        "verdict": CONSISTENT if consistent else INCONSISTENT,
        "milnor": {
            "dim1": milnor_side.m,
            "k2_invariants": list(milnor_side.target_orders),
            "mult": milnor_side.values.tolist(),
        },
        "cohomology": {
            "quotient_order": order,
            "dim1": group_side.m,
            "dec_invariants": list(group_side.target_orders),
            "mult": group_side.values.tolist(),
        },
        "dims_match": dims_match,
        "pairings_equivalent": tensors_match,
    }
    _emit(report, args.output)
    return EXIT_OK if consistent else EXIT_NOT_APPLICABLE


def _require_prime(params: SeriesParams, criterion: str) -> None:
    """The principle and wreath criteria are stated for q = p (realizability)."""
    if params.d > 1:
        raise QcwError(f"the {criterion} criterion needs a prime --q, not {params.q} = {params.p}^{params.d}")


def cmd_check(args) -> int:
    params = SeriesParams.from_q(args.q)
    load = _group_loader(args.file)
    verdicts = []
    if args.wreath_copies is not None:
        _require_prime(params, "wreath")
        if args.wreath_action == "cyclic":
            m = args.wreath_copies
            action = [tuple(range(1, m)) + (0,)] if m > 1 else [(0,)]
        elif args.wreath_action == "swap":
            if args.wreath_copies != 2:
                raise QcwError("swap action needs exactly 2 copies")
            action = [(1, 0)]
        else:
            try:
                action = [tuple(int(x) for x in args.wreath_action.split(","))]
            except ValueError:
                raise QcwError(
                    f"--wreath-action takes cyclic, swap or a permutation like 1,2,0, not {args.wreath_action!r}"
                ) from None
        spec = WreathSpec(
            k_pres=load(args.wreath_k, "--wreath-k"),
            k_cd=CdDescriptor(value=args.cd_k, provenance="user-supplied")
            if args.cd_k is not None
            else CdDescriptor.free(),
            k_top_cohomology_finite=True,
            l_pres=load(args.wreath_l, "--wreath-l"),
            l_cd=CdDescriptor(value=args.cd_l, provenance="user-supplied")
            if args.cd_l is not None
            else CdDescriptor.free(),
            copies=args.wreath_copies,
            action=action,
            k_torsion_free=not args.k_has_torsion,
            l_torsion_free=not args.l_has_torsion,
        )
        verdicts.append(wreath_construct(spec, params.p))
    elif args.dim_h1 is not None:
        if (args.cd is not None) == args.cd_infinite:
            raise QcwError("--dim-h1 needs exactly one of --cd and --cd-infinite")
        # --cd-infinite leaves args.cd at None, the infinite cd
        cd = CdDescriptor(value=args.cd, provenance="user-supplied")
        verdicts.append(h1_vs_cd_check(args.dim_h1, cd, params.p, args.torsion_free))
    else:
        if args.against and args.against_free:
            raise QcwError("--against and --against-free exclude each other")
        which = args.criterion
        principle = which in ("all", "principle") and (args.against or args.against_free)
        if principle:
            _require_prime(params, "principle")
        pres = load(args.group)
        if which in ("all", "third-series"):
            verdicts.append(relators_in_third_series(pres, params, args.order_bound))
        elif not principle:
            raise QcwError("--criterion principle needs --against or --against-free")
        if principle:
            # --against-free puts the free group of pres's rank first, and pres second
            first, second = (pres, load(args.against)) if args.against else (free_presentation(pres.rank), pres)
            verdicts.append(
                principle_check(first, second, params.p, args.order_bound, assert_realizable=args.assert_realizable)
            )
    report = {
        "command": "check",
        "q": args.q,
        "verdicts": [v.to_record() for v in verdicts],
    }
    _emit(report, args.output)
    found = any(v.verdict in POSITIVE_VERDICTS for v in verdicts)
    return EXIT_OK if found else EXIT_NOT_APPLICABLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qcw",
        description="third q-central quotients, their degree <= 2 cohomology, "
        "Milnor K mod q, and realizability checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_bound=True, h2_bound=False):
        """--q, --output and the bounds that the subcommand's cmd_* reads."""
        p.add_argument("--q", type=int, default=2, help="prime power modulus (default 2)")
        if order_bound:
            p.add_argument("--order-bound", type=int, default=DEFAULT_ORDER_BOUND)
        if h2_bound:
            p.add_argument("--h2-bound", type=int, default=DEFAULT_H2_BOUND)
        p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("quotient", help="compute G^[level, q] of a presented group")
    p.add_argument("file")
    p.add_argument("group")
    p.add_argument("--level", type=int, choices=[2, 3], default=3)
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("cohomology", help="H^1, H^2, decomposable H^2 of G^[3, q]")
    p.add_argument("file")
    p.add_argument("group")
    common(p, h2_bound=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("milnor", help="Milnor k1, k2 mod q of a field descriptor")
    p.add_argument("field")
    common(p, order_bound=False)
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("compare", help="Milnor side vs cohomology side, degree <= 2")
    p.add_argument("field")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="realizability criteria")
    p.add_argument("--file")
    p.add_argument("--group")
    p.add_argument("--against", help="second group name for the pairing principle")
    p.add_argument(
        "--against-free",
        action="store_true",
        help="compare against the free group of the same rank",
    )
    p.add_argument(
        "--criterion", choices=["all", "third-series", "principle"], default="all"
    )
    p.add_argument(
        "--assert-realizable",
        choices=["first", "second"],
        default=None,
        help="declare one side of the principle realizable; the verdict then names the other",
    )
    p.add_argument("--dim-h1", type=int, default=None, help="run the dimension test directly")
    p.add_argument("--cd", type=int, default=None)
    p.add_argument("--cd-infinite", action="store_true")
    p.add_argument("--torsion-free", action="store_true")
    p.add_argument("--wreath-k", help="group name of K for the wreath construction")
    p.add_argument("--wreath-l", help="group name of L")
    p.add_argument("--wreath-copies", dest="wreath_copies", type=int, default=None)
    p.add_argument(
        "--wreath-action",
        default="cyclic",
        help="'cyclic', 'swap', or an explicit permutation like 1,2,0",
    )
    p.add_argument("--cd-k", type=int, default=None, help="cd(K); defaults to 1 (free)")
    p.add_argument("--cd-l", type=int, default=None, help="cd(L); defaults to 1 (free)")
    p.add_argument("--k-has-torsion", action="store_true")
    p.add_argument("--l-has-torsion", action="store_true")
    common(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QcwError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
