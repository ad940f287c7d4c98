"""Command-line front end.

Every subcommand emits a machine-readable document that embeds a run
manifest (command, parameters, seed, precision, version, timestamp), so
any output can be reproduced from its own header.  Handlers return native
values; ``_render`` alone formats them, by these rules:

- JSON: a Fraction prints as "p/q", never a float; a ProbInterval as
  {lo, hi} in p/q; an OutwardInterval as {lo, hi} in 40-digit decimals
  rounded outward, so the printed interval still encloses; an
  ExtendedReal as "infinity" or its interval.  A ``rows`` table prints
  its CSV cells.
- CSV: one line per record, or one line of the data when a handler has
  no records.  An enclosure fills two columns, lo/hi for the field
  ``value`` and <field>_lo/<field>_hi otherwise; infinity fills both.  A
  bool prints as true/false, a tuple joins with commas and None is an
  empty cell.

``verify`` is no exception: one record per criterion (index, name,
passed, detail, seconds), and the document is emitted whether or not a
criterion fails.

Exit codes: 0 success, 2 usage or parse error (an unwritable --output
too, found before the command runs), 3 budget refusal or Monte Carlo
limit, 4 verification failure (stderr names the document's
first_failure).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
from datetime import datetime, timezone
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction

from . import __version__
from .checks import run_suite
from .deviations import (DEFAULT_BRACKET, DEFAULT_MDP_P, DEFAULT_TARGET_WIDTH, RateFunctionId,
                         legendre_numeric, mdp_curve, moment_growth_rate, pressure, rate)
from .expansion import DEFAULT_MAX_DIGITS, cylinder_endpoints, expand_rational, reconstruct
from .measure import (DEFAULT_CAP, ProbInterval, conditional_given_last,
                      conditional_probability, cylinder_measure,
                      marginal_exact, marginal_interval_dp, moment_interval)
from .montecarlo import (LOWER, RNG_ALGORITHM, UPPER, SampleConfig,
                         SampleLimitError, clt_report, estimate_event,
                         ldp_slope, lln_report)
from .numerics import ExtendedReal, OutwardInterval, default_precision
from .words import BudgetError, DEFAULT_BUDGET, WordFamily, count_words, enumerate_words

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

DECIMAL_DIGITS = 40


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        if "integer string conversion" in str(err):   # the input is too long to echo
            raise ValueError(f"an integer over Python's limit of {sys.get_int_max_str_digits()}"
                             " digits on integer strings (PYTHONINTMAXSTRDIGITS)") from None
        raise ValueError(f"not a rational number: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"not a comma-separated integer list: {text!r}")
    return values


# ---------------------------------------------------------------------------
# Command handlers: each returns (data, records or None).  Both hold native
# values; records are the CSV rows, and without them the data is the row.
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    exp = expand_rational(_fraction(args.x), max_digits=args.max_digits)
    return {"digits": exp.digits, "truncated": exp.truncated}, None


def _cmd_reconstruct(args):
    return {"value": reconstruct(_int_list(args.digits))}, None


def _cmd_cylinder(args):
    word = tuple(_int_list(args.digits))
    lo, hi = cylinder_endpoints(word)
    return {"lo": lo, "hi": hi, "measure": cylinder_measure(word)}, None


def _family(args) -> WordFamily:
    return WordFamily(args.n, args.m, args.mode)


def _cmd_count(args):
    return {"count": count_words(_family(args))}, None


def _cmd_enumerate(args):
    words = list(enumerate_words(_family(args), budget=args.limit))
    return {"count": len(words), "words": words}, [{"word": w} for w in words]


def _cmd_marginal(args):
    table = (marginal_exact if args.exact else marginal_interval_dp)(args.n, args.cap)
    rows = [{"k": k, "value": table.entries[k]} for k in range(1, args.cap + 1)]
    rows.append({"k": "tail", "value": table.tail})
    return {"n": args.n, "cap": args.cap,
            "kind": "exact" if args.exact else "interval", "rows": rows}, rows


def _cmd_conditional(args):
    if args.given_last:
        if args.prefix is not None:
            raise ValueError("--prefix does not apply with --given-last")
        if args.n is None or args.last is None:
            raise ValueError("--given-last needs --n and --last")
        p = conditional_given_last(args.n, args.last, args.next)
    else:
        if args.n is not None or args.last is not None:
            raise ValueError("--n and --last apply only with --given-last")
        if not args.prefix:
            raise ValueError("need --prefix (or --given-last with --n/--last)")
        p = conditional_probability(tuple(_int_list(args.prefix)), args.next)
    return {"p": p}, None


def _cmd_moment(args):
    return {"value": moment_interval(args.n, _fraction(args.theta), cap=args.cap)}, None


def _cmd_growth(args):
    table = moment_growth_rate(_fraction(args.theta), _int_list(args.n_list),
                               cap_schedule=args.cap)
    rows = [{"n": r.n, "cap": r.cap, "value": r.value} for r in table.rows]
    return {"theta": table.theta, "limit": table.limit, "rows": rows}, rows


def _cmd_pressure(args):
    return {"value": pressure(_fraction(args.theta))}, None


_RATE_KINDS = {
    "I": "I", "Ib": "I_b", "Iinf": "I_inf", "J": "J",
    "engel-moment-limit": "engel_moment_limit",
    "modified-moment-limit": "modified_moment_limit",
}


def _cmd_rate(args):
    rid = RateFunctionId(_RATE_KINDS[args.which], b=args.b)
    return {"value": rate(rid, _fraction(args.x))}, None


def _cmd_legendre(args):
    bracket = (_fraction(args.bracket_lo), _fraction(args.bracket_hi))
    value = legendre_numeric(pressure, _fraction(args.x), bracket=bracket,
                             target_width=_fraction(args.target_width))
    return {"value": value}, None


def _cmd_mdp(args):
    table = mdp_curve(_fraction(args.lam), _int_list(args.n_list),
                      p=_fraction(args.p), cap=args.cap)
    # an infeasible row has no value, so no lo/hi cells
    rows = [{"n": r.n, "feasible": r.feasible, "theta": r.theta,
             **({} if r.value is None else {"value": r.value})} for r in table.rows]
    return {"lambda": table.lam, "p": table.p,
            "speed_exponent": table.speed_exponent, "target": table.target,
            "rows": rows}, rows


_EVENT_RE = re.compile(r"^b(\d+)\s*(>=|<=|==?)\s*(\d+)$")


def _parse_event(text: str, depth: int) -> tuple[int, int, int | None]:
    """The event as the digit range (n, lo, hi) of lo <= b_n <= hi."""
    match = _EVENT_RE.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse event {text!r} (use e.g. 'b1>=2')")
    position, op, value = int(match.group(1)), match.group(2), int(match.group(3))
    if position < 1:
        raise ValueError("digit position must be >= 1")
    if position > depth:  # a certified prefix holds at most depth digits
        raise ValueError(f"digit position {position} exceeds the sampled depth --n {depth}")
    if op == ">=":
        return position, value, None
    if op == "<=":
        return position, 1, value  # every digit is >= 1
    return position, value, value


def _mc_config(args) -> SampleConfig:
    return SampleConfig(seed=args.seed, trials=args.trials, depth=args.n,
                        bits=args.bits)


# The mc flags that only one task reads, and that task.
_MC_TASK_FLAGS = {"eps": "ldp", "n_list": "ldp", "tail": "ldp", "event": "event"}


def _estimate(est) -> dict:
    return {"hits": est.hits, "trials": est.trials, "uncertified": est.uncertified,
            "p_hat": est.p_hat, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi}


def _cmd_mc(args):
    for dest, task in _MC_TASK_FLAGS.items():
        if getattr(args, dest) is not None and args.task != task:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} applies only to --task {task}")
    config = _mc_config(args)
    head = {"task": args.task, "rng": RNG_ALGORITHM}
    if args.task == "lln":
        return {**head, **dataclasses.asdict(lln_report(config))}, None
    if args.task == "clt":
        rep = clt_report(config)
        quantiles = [{"level": q, "empirical": emp, "normal": norm}
                     for q, emp, norm in rep.quantiles]
        return {**head, **dataclasses.asdict(rep), "quantiles": quantiles}, quantiles
    if args.task == "ldp":
        if args.eps is None or args.n_list is None:
            raise ValueError("mc --task ldp needs --eps and --n-list")
        if args.tail is None:
            args.tail = LOWER  # recorded in the manifest like a given flag
        rep = ldp_slope(_fraction(args.eps), _int_list(args.n_list), config,
                        tail=args.tail)
        rows = [{"n": r.n, **_estimate(r.estimate), "rate": r.rate} for r in rep.rows]
        return {**head, "eps": rep.eps, "tail": rep.tail, "slope": rep.slope,
                "intercept": rep.intercept, "rows": rows}, rows
    # task == "event"
    if not args.event:
        raise ValueError("mc --task event needs --event (e.g. 'b1>=2')")
    est = estimate_event(config, *_parse_event(args.event, args.n))
    return {**head, "event": args.event, **_estimate(est)}, None


def _cmd_verify(args):
    results = run_suite(args.suite)
    records = [dataclasses.asdict(res) for res in results]
    failed = next((res for res in results if not res.passed), None)
    first = None if failed is None else f"{failed.index} ({failed.name})"
    return {"suite": args.suite, "passed": failed is None, "first_failure": first,
            "criteria": records}, records


# ---------------------------------------------------------------------------
# Output assembly
# ---------------------------------------------------------------------------


def _manifest(args) -> dict:
    skip = {"func", "output", "format", "command"}
    params = {key: str(value) for key, value in sorted(vars(args).items())
              if key not in skip and value is not None}
    return {
        "command": args.command,
        "params": params,
        "seed": getattr(args, "seed", None),
        "precision": default_precision(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _decimal_str(value: Fraction, rounding) -> str:
    ctx = Context(prec=DECIMAL_DIGITS, rounding=rounding)
    return str(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _ends(value) -> tuple[str, str] | None:
    """The printed (lo, hi) of an enclosure, or None for any other value."""
    if isinstance(value, ExtendedReal):
        return ("infinity",) * 2 if value.is_infinite else _ends(value.value)
    if isinstance(value, ProbInterval):
        return str(value.lo), str(value.hi)
    if isinstance(value, OutwardInterval):
        return (_decimal_str(value.lo, ROUND_FLOOR),
                _decimal_str(value.hi, ROUND_CEILING))
    return None


def _json(value):
    if isinstance(value, ExtendedReal) and value.is_infinite:
        return "infinity"
    ends = _ends(value)
    if ends is not None:
        return dict(zip(("lo", "hi"), ends))
    if isinstance(value, dict):
        return {key: [_cells(r) for r in item] if key == "rows" else _json(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    return str(value) if isinstance(value, Fraction) else value


def _cells(record: dict) -> dict[str, str]:
    cells = {}
    for key, value in record.items():
        ends = _ends(value)
        if ends is not None:
            names = ("lo", "hi") if key == "value" else (f"{key}_lo", f"{key}_hi")
            cells.update(zip(names, ends))
        elif isinstance(value, bool):
            cells[key] = str(value).lower()
        elif isinstance(value, tuple):
            cells[key] = ",".join(map(str, value))
        else:
            cells[key] = "" if value is None else str(value)
    return cells


def _render(args, data: dict, records: list[dict] | None) -> str:
    manifest = _manifest(args)
    if args.format == "json":
        return json.dumps({"manifest": manifest, "data": _json(data)},
                          indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    for key in ("command", "seed", "precision", "version", "timestamp"):
        value = manifest[key]
        buffer.write(f"# {key}: {'' if value is None else value}\n")
    for key, value in manifest["params"].items():
        buffer.write(f"# param {key}: {value}\n")
    rows = [_cells(record) for record in ([data] if records is None else records)]
    fields = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _check_output(path: str):
    """Fail before any work when `path` cannot be opened for writing.

    Opening for append creates a missing file but truncates nothing, so an
    existing document survives a handler that fails; a file made here is
    removed again, and _emit writes the document once the handler is done.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as err:
        raise ValueError(str(err))
    if not existed:
        os.remove(path)


def _emit(args, text: str):
    if args.output:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as err:
            raise ValueError(str(err))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# let values like -1/2 or -0.5 follow a flag without being read as options
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _allow_negative_rationals(parser: argparse.ArgumentParser):
    parser._negative_number_matcher = _NEGATIVE_VALUE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecf", description="Engel continued fraction toolkit")
    _allow_negative_rationals(parser)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write the document here instead of stdout")
    # SUPPRESS defaults let the flags sit on either side of the subcommand
    # without the subparser default clobbering a globally supplied value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub_parser(name: str, **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        _allow_negative_rationals(p)
        return p

    p = sub_parser("expand", help="digit expansion of a rational")
    p.add_argument("--x", required=True)
    p.add_argument("--max-digits", type=int, default=DEFAULT_MAX_DIGITS)
    p.set_defaults(func=_cmd_expand)

    p = sub_parser("reconstruct", help="value of a digit word")
    p.add_argument("--digits", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub_parser("cylinder", help="endpoints and measure of a digit word")
    p.add_argument("--digits", required=True)
    p.set_defaults(func=_cmd_cylinder)

    for name in ("count", "enumerate"):
        p = sub_parser(name, help=f"{name} admissible words")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--mode", default="exact-last", choices=("exact-last", "last-at-most"))
        if name == "enumerate":
            p.add_argument("--limit", type=int, default=DEFAULT_BUDGET)
            p.set_defaults(func=_cmd_enumerate)
        else:
            p.set_defaults(func=_cmd_count)

    p = sub_parser("marginal", help="law of the n-th digit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_marginal)

    p = sub_parser("conditional", help="next-digit conditional probability")
    p.add_argument("--prefix")
    p.add_argument("--next", type=int, required=True)
    p.add_argument("--given-last", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--last", type=int)
    p.set_defaults(func=_cmd_conditional)

    p = sub_parser("moment", help="enclosure of E(b_n^theta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_moment)

    p = sub_parser("growth", help="(1/n) log E(b_n^theta) against its limit")
    p.add_argument("--theta", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_growth)

    p = sub_parser("pressure", help="log moment generating limit")
    p.add_argument("--theta", required=True)
    p.set_defaults(func=_cmd_pressure)

    p = sub_parser("rate", help="rate function values")
    p.add_argument("--which", choices=sorted(_RATE_KINDS), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--b", type=int)
    p.set_defaults(func=_cmd_rate)

    p = sub_parser("legendre", help="numeric Legendre transform of the pressure")
    p.add_argument("--x", required=True)
    p.add_argument("--bracket-lo", default=str(DEFAULT_BRACKET[0]))
    p.add_argument("--bracket-hi", default=str(DEFAULT_BRACKET[1]))
    p.add_argument("--target-width", default=str(DEFAULT_TARGET_WIDTH))
    p.set_defaults(func=_cmd_legendre)

    p = sub_parser("mdp", help="moderate deviation normalization rows")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--p", default=str(DEFAULT_MDP_P))
    p.add_argument("--n-list", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_mdp)

    p = sub_parser("mc", help="Monte Carlo reports")
    p.add_argument("--task", choices=("lln", "clt", "ldp", "event"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="digit depth")
    p.add_argument("--bits", type=int,
                   help="B: each uniform is resolved to B bits (default ceil(2.2 n^2)); "
                        "the float walk reads min(B, 53) of them")
    p.add_argument("--eps")
    p.add_argument("--tail", choices=(LOWER, UPPER), help=f"ldp only (default {LOWER})")
    p.add_argument("--n-list")
    p.add_argument("--event")
    p.set_defaults(func=_cmd_mc)

    p = sub_parser("verify", help="run the acceptance suites")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        data, records = args.func(args)
        _emit(args, _render(args, data, records))
        if data.get("first_failure"):
            sys.stderr.write(f"first failing criterion: {data['first_failure']}\n")
            return EXIT_VERIFY
        return EXIT_OK
    except BudgetError as err:
        sys.stderr.write(f"budget refused: {err}\n")
        return EXIT_BUDGET
    except SampleLimitError as err:
        sys.stderr.write(f"limit reached: {err}\n")
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
