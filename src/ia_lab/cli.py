"""Command-line front end binding the modules into reproducible experiments.

Every subcommand echoes its effective configuration as a JSON line on
stderr; together with the seed that echo fully determines the outputs.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channels import (DEFAULT_A_MAX, DEFAULT_A_MIN, check_magnitude_law,
                       generate_channels, load_channels, save_channels)
from .designed import DelayMatrix, check_delay_parity, simulate_delay_schedule
from .errors import IaLabError, ParameterError
from .evaluation import (MIN_FIT_SNR_DB, SchemeConfig, check_dof_point,
                         cognitive_dof, decompose_dof_point, estimate_dof,
                         estimate_o1_gap, in_dof_region, snr_grid, snr_sweep)
from .families import FAMILIES
from .receiver import check_alignment
from .schemes import save_scheme
from .verification import demonstrate_diagonal_infeasibility

SCHEME_DEFAULTS = {f.name: f.default for f in fields(SchemeConfig)}
DEFAULT_SEED = 0


@dataclass(frozen=True)
class RunConfig:
    """Echoed configuration of one CLI invocation."""

    command: str
    options: dict

    def echo(self) -> None:
        print(json.dumps({"config": asdict(self)}, sort_keys=True), file=sys.stderr)


def _float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _add_scheme_options(parser):
    parser.add_argument("--scheme", required=True, choices=tuple(FAMILIES))
    parser.add_argument("--k", type=int, default=None,
                        help="user count (default: the channel file's, else 3)")
    parser.add_argument("--m", type=int, default=None,
                        help="antennas per node (default: the channel file's, "
                             "else 2 for mimo, else 1)")
    # None marks a flag not given: the family may not read it (see
    # _family_flags)
    parser.add_argument("--n", type=int, default=None,
                        help=f"alignment order (default {SCHEME_DEFAULTS['n']}), "
                             "for the families that read it")
    parser.add_argument("--a-min", type=float, default=None,
                        help=f"smallest channel magnitude (default "
                             f"{SCHEME_DEFAULTS['a_min']}) when channels are drawn")
    parser.add_argument("--a-max", type=float, default=None,
                        help=f"largest channel magnitude (default "
                             f"{SCHEME_DEFAULTS['a_max']}) when channels are drawn")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"channel seed (default {DEFAULT_SEED}), for the "
                             "families that draw channels; sweep and dof derive "
                             "their trial seeds from it")


# what a channel file fixes, per flag it makes ineffective
_FILE_FIXES = {"a_min": "the magnitude law", "a_max": "the magnitude law",
               "seed": "the channels"}


def _family_flags(args) -> None:
    """Refuse a scheme flag the family does not read, and fill in the
    default of each one it reads; a channel file fixes the magnitude law and
    the channels. A sweep's seed names its trials, so sweep and dof always
    read it."""
    reads = FAMILIES[args.scheme].reads
    if args.command in ("sweep", "dof"):
        reads += ("seed",)
    defaults = {**SCHEME_DEFAULTS, "seed": DEFAULT_SEED}
    for dest in ("n", "a_min", "a_max", "seed"):
        flag = "--" + dest.replace("_", "-")
        given = getattr(args, dest) is not None
        if dest not in reads:
            if given:
                raise ParameterError(f"{args.scheme} does not read {flag}")
        elif dest in _FILE_FIXES and getattr(args, "channels", None) is not None:
            if given:
                raise ParameterError(
                    f"{flag} does not apply with --channels: the channel file "
                    f"fixes {_FILE_FIXES[dest]}")
        elif not given:
            setattr(args, dest, defaults[dest])


def _scheme_config(args, k=3, m=None) -> SchemeConfig:
    """The flags' configuration; ``k`` and ``m`` stand in for flags not given."""
    k = k if args.k is None else args.k
    m = m if args.m is None else args.m
    read = {dest: getattr(args, dest) for dest in ("n", "a_min", "a_max")
            if getattr(args, dest) is not None}
    return SchemeConfig(family=args.scheme, K=k,
                        M=FAMILIES[args.scheme].default_M if m is None else m, **read)


def _build(args):
    """Build (scheme, ext) against the channel file if one is given, taking K
    and M not given as flags from it, else from the seed."""
    if args.channels is None:
        return _scheme_config(args).build(args.seed)
    ch = load_channels(args.channels)
    return _scheme_config(args, ch.K, ch.M).build_on(ch)


def cmd_gen(args) -> int:
    ch = generate_channels(args.k, args.m, args.f, args.a_min, args.a_max, args.seed)
    save_channels(ch, args.out)
    print(json.dumps({"written": str(args.out), "K": ch.K, "M": ch.M, "F": ch.F,
                      "seed": ch.seed}))
    return 0


def cmd_precode(args) -> int:
    scheme, _ = _build(args)
    if args.out:
        save_scheme(scheme, args.out)
    print(json.dumps({"family": scheme.family, "K": scheme.K, "L": scheme.L,
                      "stream_counts": list(scheme.stream_counts),
                      "claimed_dof": float(scheme.claimed_dof),
                      "written": str(args.out) if args.out else None}))
    return 0


def cmd_verify(args) -> int:
    scheme, ext = _build(args)
    report = check_alignment(scheme, ext)
    print(report.to_json())
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    config = _scheme_config(args)
    table = snr_sweep(config, args.snr, args.trials, args.seed)
    table.write_csv(args.out)
    print(json.dumps({"written": str(args.out), "rows": len(table.records),
                      "failures": len(table.failures())}))
    return 0


def cmd_dof(args) -> int:
    config = _scheme_config(args)
    table = snr_sweep(config, args.snr, args.trials, args.seed)
    estimate = estimate_dof(table)
    summary = {
        "scheme": config.family,
        "claimed_dof": float(config.claimed_dof),
        "slope": estimate.slope,
        "half_width": estimate.half_width,
        "trials_used": estimate.trials_used,
        "failures": estimate.trials_failed,
        "snr_db": list(estimate.snr_db),
    }
    if table.snr_db[-1] - table.snr_db[0] >= MIN_FIT_SNR_DB - 1e-9:
        summary["gap_oscillation"] = estimate_o1_gap(
            table, float(config.claimed_dof)).oscillation
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print(json.dumps(summary))
    return 0


def cmd_region(args) -> int:
    point = args.point
    if len(point) != 3:
        print("a degrees-of-freedom point needs exactly 3 components", file=sys.stderr)
        return 2
    if not in_dof_region(point):
        print(json.dumps({"point": point, "in_region": False,
                          "reason": "a pairwise sum exceeds 1 or a component is negative"}))
        return 1
    weights = decompose_dof_point(point)
    print(json.dumps({"point": point, "in_region": True,
                      "weights": [float(w) for w in weights]}))
    return 0


def cmd_cognitive(args) -> int:
    print(cognitive_dof(args.case))
    return 0


def cmd_delay(args) -> int:
    matrix = DelayMatrix.from_csv(args.delays)
    if not check_delay_parity(matrix):
        print(json.dumps({"parity_valid": False}))
        return 1
    slots = args.slots
    if slots is None:
        slots = max(100, 2 * int(np.max(matrix.delays)))
        slots += slots % 2
    fractions = simulate_delay_schedule(matrix, slots)
    print(json.dumps({"parity_valid": True, "slots": slots,
                      "interference_free_fraction": [float(x) for x in fractions]}))
    return 0


def cmd_infeasible(args) -> int:
    if args.seeds < 1:
        raise ParameterError(f"need at least one seed, got {args.seeds}")
    deficient = 0
    control_full = 0
    ranks = set()
    for i in range(args.seeds):
        seed = args.seed + i
        diag_report = demonstrate_diagonal_infeasibility(args.m, seed)
        dense_report = demonstrate_diagonal_infeasibility(args.m, seed, dense=True)
        ranks.add(diag_report.receivers[0].joint_rank)
        deficient += int(diag_report.receivers[0].joint_rank < args.m)
        control_full += int(dense_report.receivers[0].joint_rank == args.m)
    print(json.dumps({"M": args.m, "seeds": args.seeds,
                      "diagonal_rank_deficient": deficient,
                      "dense_control_full_rank": control_full,
                      "joint_ranks_seen": sorted(ranks)}))
    ok = deficient == args.seeds and control_full == args.seeds
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ia-lab",
        description="Interference-alignment precoding experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and write a channel file")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--f", type=int, default=3, help="frequency slots")
    p.add_argument("--a-min", type=float, default=DEFAULT_A_MIN)
    p.add_argument("--a-max", type=float, default=DEFAULT_A_MAX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("precode", help="build a scheme and export it as JSON")
    _add_scheme_options(p)
    p.add_argument("--channels", default=None, help="channel file to build against")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_precode)

    p = sub.add_parser("verify", help="alignment report for one realization")
    _add_scheme_options(p)
    p.add_argument("--channels", default=None, help="channel file to verify against")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="Monte-Carlo SNR sweep to a rates CSV")
    _add_scheme_options(p)
    p.add_argument("--snr", type=_float_list, required=True,
                   help="comma-separated grid in dB")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dof", help="sweep and estimate the sum-rate slope")
    _add_scheme_options(p)
    p.add_argument("--snr", type=_float_list, default=[60.0, 70.0, 80.0])
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default=None, help="also write the summary JSON here")
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("region", help="decompose a DoF point over the corners")
    p.add_argument("--point", type=_float_list, required=True)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("cognitive", help="DoF under a cognitive-sharing case")
    p.add_argument("--case", type=int, required=True, choices=[1, 2, 3, 4])
    p.set_defaults(func=cmd_cognitive)

    p = sub.add_parser("delay", help="delay parity check and schedule simulation")
    p.add_argument("--delays", required=True, help="CSV with K rows of K integers")
    p.add_argument("--slots", type=int, default=None)
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("infeasible", help="diagonal-channel rank-collapse demo")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infeasible)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "scheme"):
            _family_flags(args)
        if getattr(args, "snr", None) is not None:
            args.snr = list(snr_grid(args.snr))
        if getattr(args, "point", None) is not None:
            check_dof_point(args.point)
        if getattr(args, "a_max", None) is not None:
            check_magnitude_law(args.a_min, args.a_max)
        options = {key: value for key, value in vars(args).items()
                   if key not in ("func", "command") and value is not None}
        RunConfig(command=args.command, options=options).echo()
        return args.func(args)
    except IaLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
