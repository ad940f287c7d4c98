"""Command-line front end.

Every subcommand emits a machine-readable document that embeds a run
manifest (command, parameters, seed, precision, version, timestamp), so
any output can be reproduced from its own header.  Exactly representable
quantities are serialized as "p/q" strings, never floats; certified
enclosures carry their endpoints explicitly, decimal endpoints being
rounded outward.  Exit codes: 0 success, 2 usage or parse error, 3 budget
refusal, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from datetime import datetime, timezone
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction

from . import __version__
from .checks import run_suite
from .deviations import (RateFunctionId, legendre_numeric, mdp_curve,
                         moment_growth_rate, pressure, rate)
from .expansion import cylinder_endpoints, expand_rational, reconstruct
from .measure import (conditional_given_last, conditional_probability,
                      cylinder_measure, marginal_exact, marginal_interval_dp,
                      moment_interval)
from .montecarlo import (LOWER, RNG_ALGORITHM, UPPER, SampleConfig, clt_report,
                         estimate_event, ldp_slope, lln_report)
from .numerics import ExtendedReal, OutwardInterval, default_precision
from .words import BudgetError, DEFAULT_BUDGET, WordFamily, count_words, enumerate_words

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

DECIMAL_DIGITS = 40


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _CliError(f"not a rational number: {text!r}", EXIT_USAGE)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise _CliError(f"not a comma-separated integer list: {text!r}", EXIT_USAGE)


def _rat(value) -> str:
    return str(Fraction(value))


def _decimal_str(value: Fraction, rounding) -> str:
    ctx = Context(prec=DECIMAL_DIGITS, rounding=rounding)
    return str(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _outward(iv: OutwardInterval) -> dict:
    """Decimal endpoints rounded outward, so the printed interval still encloses."""
    return {"lo": _decimal_str(iv.lo, ROUND_FLOOR),
            "hi": _decimal_str(iv.hi, ROUND_CEILING)}


def _extended(value: ExtendedReal) -> dict | str:
    if value.is_infinite:
        return "infinity"
    return _outward(value.value)


def _extended_row(out: dict | str) -> dict:
    """The lo/hi CSV cells of an _extended value; infinity fills both."""
    if isinstance(out, dict):
        return {"lo": out["lo"], "hi": out["hi"]}
    return {"lo": out, "hi": out}


def _prob(iv) -> dict:
    return {"lo": _rat(iv.lo), "hi": _rat(iv.hi)}


# ---------------------------------------------------------------------------
# Command handlers: each returns (payload for JSON, rows for CSV)
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    exp = expand_rational(_fraction(args.x), max_digits=args.max_digits)
    payload = {"digits": list(exp.digits), "truncated": exp.truncated}
    row = {"digits": ",".join(map(str, exp.digits)),
           "truncated": str(exp.truncated).lower()}
    return payload, [row]


def _cmd_reconstruct(args):
    value = reconstruct(_int_list(args.digits))
    return {"value": _rat(value)}, [{"value": _rat(value)}]


def _cmd_cylinder(args):
    word = tuple(_int_list(args.digits))
    lo, hi = cylinder_endpoints(word)
    measure = cylinder_measure(word)
    payload = {"lo": _rat(lo), "hi": _rat(hi), "measure": _rat(measure)}
    return payload, [dict(payload)]


_MODE_ALIASES = {"exact": "exact-last", "at-most": "last-at-most"}


def _family(args) -> WordFamily:
    return WordFamily(args.n, args.m, _MODE_ALIASES.get(args.mode, args.mode))


def _cmd_count(args):
    value = count_words(_family(args))
    return {"count": value}, [{"count": str(value)}]


def _cmd_enumerate(args):
    words = list(enumerate_words(_family(args), budget=args.limit))
    payload = {"count": len(words), "words": [list(w) for w in words]}
    rows = [{"word": ",".join(map(str, w))} for w in words]
    return payload, rows


def _cmd_marginal(args):
    if args.exact:
        table = marginal_exact(args.n, args.cap)
    else:
        table = marginal_interval_dp(args.n, args.cap)
    rows = []
    for k in range(1, args.cap + 1):
        cell = table.entries[k]
        rows.append({"k": str(k), "lo": _rat(cell.lo), "hi": _rat(cell.hi)})
    rows.append({"k": "tail", "lo": _rat(table.tail.lo), "hi": _rat(table.tail.hi)})
    payload = {"n": args.n, "cap": args.cap,
               "kind": "exact" if args.exact else "interval", "rows": rows}
    return payload, rows


def _cmd_conditional(args):
    if args.given_last:
        if args.prefix is not None:
            raise _CliError("--prefix does not apply with --given-last", EXIT_USAGE)
        if args.n is None or args.last is None:
            raise _CliError("--given-last needs --n and --last", EXIT_USAGE)
        p = conditional_given_last(args.n, args.last, args.next)
    else:
        if args.n is not None or args.last is not None:
            raise _CliError("--n and --last apply only with --given-last", EXIT_USAGE)
        if not args.prefix:
            raise _CliError("need --prefix (or --given-last with --n/--last)", EXIT_USAGE)
        p = conditional_probability(tuple(_int_list(args.prefix)), args.next)
    return {"p": _rat(p)}, [{"p": _rat(p)}]


def _cmd_moment(args):
    enc = moment_interval(args.n, _fraction(args.theta), cap=args.cap)
    if isinstance(enc, ExtendedReal):
        payload = {"value": "infinity"}
        rows = [{"lo": "infinity", "hi": "infinity"}]
    else:
        payload = {"value": _prob(enc)}
        rows = [{"lo": _rat(enc.lo), "hi": _rat(enc.hi)}]
    return payload, rows


def _cmd_growth(args):
    table = moment_growth_rate(_fraction(args.theta), _int_list(args.n_list),
                               cap_schedule=args.cap)
    rows = []
    for r in table.rows:
        rows.append({"n": str(r.n), "cap": str(r.cap),
                     **_extended_row(_extended(r.value))})
    payload = {"theta": _rat(table.theta), "limit": _extended(table.limit),
               "rows": rows}
    return payload, rows


def _cmd_pressure(args):
    value = pressure(_fraction(args.theta))
    out = _extended(value)
    return {"value": out}, [_extended_row(out)]


_RATE_KINDS = {
    "I": "I", "Ib": "I_b", "Iinf": "I_inf", "J": "J", "Lambda": "pressure_Lambda",
    "engel-moment-limit": "engel_moment_limit",
    "modified-moment-limit": "modified_moment_limit",
}


def _cmd_rate(args):
    kind = _RATE_KINDS[args.which]
    rid = RateFunctionId(kind, b=args.b) if kind == "I_b" else RateFunctionId(kind)
    value = rate(rid, _fraction(args.x))
    out = _extended(value)
    return {"value": out}, [_extended_row(out)]


def _cmd_legendre(args):
    bracket = (_fraction(args.bracket_lo), _fraction(args.bracket_hi))
    value = legendre_numeric(pressure, _fraction(args.x), bracket=bracket,
                             target_width=_fraction(args.target_width))
    out = _extended(value)
    return {"value": out}, [_extended_row(out)]


def _cmd_mdp(args):
    table = mdp_curve(_fraction(args.lam), _int_list(args.n_list),
                      p=_fraction(args.p), cap=args.cap)
    rows = []
    for r in table.rows:
        row = {"n": str(r.n), "feasible": str(r.feasible).lower()}
        row.update({"theta_lo": _decimal_str(r.theta.lo, ROUND_FLOOR),
                    "theta_hi": _decimal_str(r.theta.hi, ROUND_CEILING)})
        if r.value is not None:
            out = _outward(r.value)
            row.update({"lo": out["lo"], "hi": out["hi"]})
        rows.append(row)
    payload = {"lambda": _rat(table.lam), "p": _rat(table.p),
               "speed_exponent": _rat(table.speed_exponent),
               "target": _rat(table.target), "rows": rows}
    return payload, rows


_EVENT_RE = re.compile(r"^b(\d+)\s*(>=|<=|==?)\s*(\d+)$")


def _parse_event(text: str):
    match = _EVENT_RE.match(text.strip())
    if not match:
        raise _CliError(f"cannot parse event {text!r} (use e.g. 'b1>=2')", EXIT_USAGE)
    position, op, value = int(match.group(1)), match.group(2), int(match.group(3))
    if position < 1:
        raise _CliError("digit position must be >= 1", EXIT_USAGE)

    def predicate(depth, expansion):
        if len(expansion.digits) < position:
            return None
        digit = expansion.digits[position - 1]
        if op == ">=":
            return digit >= value
        if op == "<=":
            return digit <= value
        return digit == value

    return predicate


def _mc_config(args) -> SampleConfig:
    return SampleConfig(seed=args.seed, trials=args.trials, depth=args.n,
                        bits=args.bits)


# The mc flags that only one task reads, and that task.
_MC_TASK_FLAGS = {"eps": "ldp", "n_list": "ldp", "tail": "ldp", "event": "event"}


def _cmd_mc(args):
    for dest, task in _MC_TASK_FLAGS.items():
        if getattr(args, dest) is not None and args.task != task:
            flag = "--" + dest.replace("_", "-")
            raise _CliError(f"{flag} applies only to --task {task}", EXIT_USAGE)
    config = _mc_config(args)
    if args.task == "lln":
        rep = lln_report(config)
        payload = {"task": "lln", "rng": RNG_ALGORITHM, "depth": rep.depth,
                   "trials": rep.trials, "certified": rep.certified,
                   "uncertified": rep.uncertified, "mean": rep.mean,
                   "stdev": rep.stdev}
        return payload, [{k: str(v) for k, v in payload.items()}]
    if args.task == "clt":
        rep = clt_report(config)
        quantiles = [{"level": q, "empirical": emp, "normal": norm}
                     for q, emp, norm in rep.quantiles]
        payload = {"task": "clt", "rng": RNG_ALGORITHM, "depth": rep.depth,
                   "trials": rep.trials, "certified": rep.certified,
                   "uncertified": rep.uncertified, "ks": rep.ks,
                   "median": rep.median, "quantiles": quantiles}
        rows = [{"level": str(q["level"]), "empirical": str(q["empirical"]),
                 "normal": str(q["normal"])} for q in quantiles]
        return payload, rows
    if args.task == "ldp":
        if args.eps is None or args.n_list is None:
            raise _CliError("mc --task ldp needs --eps and --n-list", EXIT_USAGE)
        if args.tail is None:
            args.tail = LOWER  # recorded in the manifest like a given flag
        rep = ldp_slope(_fraction(args.eps), _int_list(args.n_list), config,
                        tail=args.tail)
        rows = []
        for r in rep.rows:
            est = r.estimate
            rows.append({"n": str(r.n), "hits": str(est.hits),
                         "trials": str(est.trials),
                         "uncertified": str(est.uncertified),
                         "p_hat": _rat(est.p_hat), "ci_lo": _rat(est.ci_lo),
                         "ci_hi": _rat(est.ci_hi),
                         "rate": "" if r.rate is None else str(r.rate)})
        payload = {"task": "ldp", "rng": RNG_ALGORITHM, "eps": _rat(rep.eps),
                   "tail": rep.tail, "slope": rep.slope,
                   "intercept": rep.intercept, "slope_lo": rep.slope_lo,
                   "slope_hi": rep.slope_hi, "rows": rows}
        return payload, rows
    # task == "event"
    if not args.event:
        raise _CliError("mc --task event needs --event (e.g. 'b1>=2')", EXIT_USAGE)
    est = estimate_event(config, _parse_event(args.event))
    payload = {"task": "event", "rng": RNG_ALGORITHM, "event": args.event,
               "hits": est.hits, "trials": est.trials,
               "uncertified": est.uncertified, "p_hat": _rat(est.p_hat),
               "ci_lo": _rat(est.ci_lo), "ci_hi": _rat(est.ci_hi)}
    return payload, [{k: str(v) for k, v in payload.items()}]


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


def _render(args, payload, rows) -> str:
    manifest = _manifest(args)
    if args.format == "json":
        return json.dumps({"manifest": manifest, "data": payload},
                          indent=2, sort_keys=True) + "\n"
    buffer = io.StringIO()
    for key in ("command", "seed", "precision", "version", "timestamp"):
        value = manifest[key]
        buffer.write(f"# {key}: {'' if value is None else value}\n")
    for key, value in manifest["params"].items():
        buffer.write(f"# param {key}: {value}\n")
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    writer = csv.DictWriter(buffer, fieldnames=fields, restval="",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    lines = []
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        lines.append(f"{mark} criterion {res.index}: {res.name} "
                     f"({res.seconds:.1f}s) - {res.detail}")
    text = "\n".join(lines) + "\n"
    _emit(args, text)
    failures = [res for res in results if not res.passed]
    if failures:
        first = failures[0]
        sys.stderr.write(f"first failing criterion: {first.index} ({first.name})\n")
        return EXIT_VERIFY
    return EXIT_OK


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
    p.add_argument("--max-digits", type=int, default=64)
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
        p.add_argument("--mode", default="exact-last",
                       choices=("exact-last", "last-at-most", "exact", "at-most"))
        if name == "enumerate":
            p.add_argument("--limit", type=int, default=DEFAULT_BUDGET)
            p.set_defaults(func=_cmd_enumerate)
        else:
            p.set_defaults(func=_cmd_count)

    p = sub_parser("marginal", help="law of the n-th digit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--interval", action="store_true")
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
    p.add_argument("--cap", type=int, default=60)
    p.set_defaults(func=_cmd_moment)

    p = sub_parser("growth", help="(1/n) log E(b_n^theta) against its limit")
    p.add_argument("--theta", required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--cap", type=int, default=60)
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
    p.add_argument("--bracket-lo", default="-50")
    p.add_argument("--bracket-hi", default=str(Fraction(10**12 - 1, 10**12)))
    p.add_argument("--target-width", default="1/100000000")
    p.set_defaults(func=_cmd_legendre)

    p = sub_parser("mdp", help="moderate deviation normalization rows")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--p", default="3/4")
    p.add_argument("--n-list", required=True)
    p.add_argument("--cap", type=int, default=60)
    p.set_defaults(func=_cmd_mdp)

    p = sub_parser("mc", help="Monte Carlo reports")
    p.add_argument("--task", choices=("lln", "clt", "ldp", "event"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="digit depth")
    p.add_argument("--bits", type=int)
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
        if args.command == "verify":
            return _cmd_verify(args)
        payload, rows = args.func(args)
        _emit(args, _render(args, payload, rows))
        return EXIT_OK
    except BudgetError as err:
        sys.stderr.write(f"budget refused: {err}\n")
        return EXIT_BUDGET
    except _CliError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.code
    except (ValueError, ZeroDivisionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
