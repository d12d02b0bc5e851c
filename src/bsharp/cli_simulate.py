"""The ``simulate`` command: a fixed-step trajectory as CSV."""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain

from .cli import _add_ode_flags, _add_output, _emit, _load_system, _load_tableau
from .errors import NumericFailureError


def define(command: str, p: argparse.ArgumentParser) -> None:
    _add_output(p, ("text",))
    p.add_argument("--tableau", required=True, metavar="SPEC")
    _add_ode_flags(p, required=True)
    p.add_argument("--step", type=float, required=True, help="output step size h")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument(
        "--initial", required=True, help="initial point, comma-separated, e.g. 1,0"
    )
    p.add_argument(
        "--modified-order",
        type=int,
        default=None,
        metavar="K",
        dest="modified_order",
        help="integrate the order-K modified equation instead of the method",
    )
    p.add_argument(
        "--modifying-integrator",
        action="store_true",
        dest="modifying_integrator",
        help="with --modified-order: use the modifying-integrator field",
    )
    p.add_argument(
        "--reference",
        action="store_true",
        help="classical RK4 at h/100 on the original system",
    )
    p.set_defaults(func=cmd_simulate)


def cmd_simulate(args) -> int:
    if args.modifying_integrator and args.modified_order is None:
        args.subparser.error("--modifying-integrator requires --modified-order")
    if args.reference and args.modified_order is not None:
        args.subparser.error("--reference and --modified-order are mutually exclusive")
    if not (math.isfinite(args.step) and args.step > 0):
        args.subparser.error("--step must be finite and positive")
    if not (math.isfinite(args.t_max) and args.t_max > 0):
        args.subparser.error("--t-max must be finite and positive")
    if args.modified_order is not None and args.modified_order < 1:
        args.subparser.error("--modified-order must be at least 1")
    from .simulate import SimulationPlan, iterate_rows

    tab = _load_tableau(args.tableau)
    system = _load_system(args)
    try:
        initial = tuple(float(v) for v in args.initial.split(","))
    except ValueError:
        args.subparser.error(f"--initial must be comma-separated numbers, got {args.initial!r}")
    if not all(map(math.isfinite, initial)):
        args.subparser.error(f"--initial must be finite, got {args.initial!r}")

    if args.reference:
        mode = "reference"
    elif args.modified_order is not None:
        mode = "modifying" if args.modifying_integrator else "modified"
    else:
        mode = "direct"

    plan = SimulationPlan(
        tableau=tab,
        system=system,
        step=args.step,
        t_max=args.t_max,
        initial=initial,
        mode=mode,
        series_order=args.modified_order if args.modified_order is not None else 2,
    )

    rows = iterate_rows(plan)  # refuses a plan before any output
    header = "t," + ",".join(system.variables) + "\n"
    lines = (f"{t!r}," + ",".join(repr(v) for v in y) + "\n" for t, y in rows)
    try:
        _emit(args, chain((header,), lines))
    except NumericFailureError as exc:
        # the rows before the failure are written
        print(f"error: {exc} (last valid t = {exc.last_valid_t!r})", file=sys.stderr)
        return 4
    return 0
