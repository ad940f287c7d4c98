"""The command handlers and the renderer of ``ecf`` before the serializer
was unified: the test oracle for the output of every subcommand.

Each handler here formats its own values and returns a JSON payload and
CSV rows in two hand-made shapes; ``_render`` writes them.  The current
handlers return native values, and ``ecfrac.cli._render`` alone formats
them.  For every input both must print the same document, byte for byte
apart from the timestamp.  Only argv is shared: ``ecfrac.cli._build_parser``
turns it into args.  The value tables, the value parsers, the argument
checks and the manifest are written out again here, so a wrong entry in
one of ``ecfrac.cli``'s tables prints a document that differs from this
one.  So is the count of ``mc --task event``, a loop over the trials' digit
enclosures that does not go through ``estimate_event``.
"""

import csv
import io
import json
import operator
import re
from datetime import datetime, timezone
from decimal import Context, Decimal, ROUND_CEILING, ROUND_FLOOR
from fractions import Fraction

from ecfrac import __version__, montecarlo
from ecfrac.deviations import (RateFunctionId, legendre_numeric, mdp_curve,
                               moment_growth_rate, pressure, rate)
from ecfrac.expansion import cylinder_endpoints, expand_rational, reconstruct
from ecfrac.measure import (conditional_given_last, conditional_probability,
                            cylinder_measure, marginal_exact,
                            marginal_interval_dp, moment_interval)
from ecfrac.montecarlo import (LOWER, RNG_ALGORITHM, SampleConfig, SampleLimitError,
                               clopper_pearson, clt_report, ldp_slope, lln_report)
from ecfrac.numerics import ExtendedReal, OutwardInterval, default_precision
from ecfrac.words import WordFamily, count_words, enumerate_words

DECIMAL_DIGITS = 40

RATE_KINDS = {
    "I": "I", "Ib": "I_b", "Iinf": "I_inf", "J": "J",
    "engel-moment-limit": "engel_moment_limit",
    "modified-moment-limit": "modified_moment_limit",
}

# The mc flags that only one task reads, and that task.
MC_TASK_FLAGS = {"eps": "ldp", "n_list": "ldp", "tail": "ldp", "event": "event"}

_COMPARE = {">=": operator.ge, "<=": operator.le, "==": operator.eq, "=": operator.eq}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}")


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part]
    if not values:
        raise ValueError(f"not a comma-separated integer list: {text!r}")
    return values


def _parse_event(text: str, depth: int):
    match = re.fullmatch(r"b(\d+)\s*(>=|<=|==|=)\s*(\d+)", text.strip())
    if match is None:
        raise ValueError(f"cannot parse event {text!r} (use e.g. 'b1>=2')")
    position, compare, value = int(match[1]), _COMPARE[match[2]], int(match[3])
    if position < 1:
        raise ValueError("digit position must be >= 1")
    if position > depth:
        raise ValueError(f"digit position {position} exceeds the sampled depth --n {depth}")
    return position, compare, value


def _event_counts(config: SampleConfig, position: int, compare, value: int):
    """(hits, certified) trial by trial: a trial's b_n decides the event
    when the comparison comes out the same for every integer of its float
    enclosure (tried at both ends and at the value clamped into it), and
    otherwise when the exact path reaches b_n."""
    hits = certified = 0
    *_, (_, b_lo, b_hi, _, _) = montecarlo._float_walk(config.seed, 0, config.trials,
                                                       position, config.bits)
    for index, ends in enumerate(zip(b_lo.tolist(), b_hi.tolist())):
        verdicts = {compare(b, value) for b in (*ends, min(max(value, ends[0]), ends[1]))}
        if len(verdicts) > 1:
            digits = montecarlo._exact_digits(config.seed, index, position, config.bits)
            if len(digits) < position:
                continue
            verdicts = {compare(digits[-1], value)}
        certified += 1
        hits += verdicts.pop()
    return hits, certified


def _family(args) -> WordFamily:
    return WordFamily(args.n, args.m, args.mode)


def _mc_config(args) -> SampleConfig:
    return SampleConfig(seed=args.seed, trials=args.trials, depth=args.n,
                        bits=args.bits)


def _manifest(args) -> dict:
    params = {}
    for key in sorted(vars(args)):
        value = getattr(args, key)
        if key not in ("func", "output", "format", "command") and value is not None:
            params[key] = str(value)
    return {"command": args.command, "params": params,
            "seed": getattr(args, "seed", None), "precision": default_precision(),
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


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


def _cmd_rate(args):
    kind = RATE_KINDS[args.which]
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


def _cmd_mc(args):
    for dest, task in MC_TASK_FLAGS.items():
        if getattr(args, dest) is not None and args.task != task:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} applies only to --task {task}")
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
            raise ValueError("mc --task ldp needs --eps and --n-list")
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
                   "intercept": rep.intercept, "rows": rows}
        return payload, rows
    # task == "event"
    if not args.event:
        raise ValueError("mc --task event needs --event (e.g. 'b1>=2')")
    hits, certified = _event_counts(config, *_parse_event(args.event, args.n))
    if not certified:
        raise SampleLimitError("no trial certified enough digits; raise bits")
    uncertified = config.trials - certified
    payload = {"task": "event", "rng": RNG_ALGORITHM, "event": args.event,
               "hits": hits, "trials": certified, "uncertified": uncertified,
               "p_hat": _rat(Fraction(hits, certified)),
               "ci_lo": _rat(clopper_pearson(hits, config.trials)[0]),
               "ci_hi": _rat(clopper_pearson(hits + uncertified, config.trials)[1])}
    return payload, [{k: str(v) for k, v in payload.items()}]


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


HANDLERS = {
    "expand": _cmd_expand, "reconstruct": _cmd_reconstruct,
    "cylinder": _cmd_cylinder, "count": _cmd_count,
    "enumerate": _cmd_enumerate, "marginal": _cmd_marginal,
    "conditional": _cmd_conditional, "moment": _cmd_moment,
    "growth": _cmd_growth, "pressure": _cmd_pressure, "rate": _cmd_rate,
    "legendre": _cmd_legendre, "mdp": _cmd_mdp, "mc": _cmd_mc,
}


def reference_document(args) -> str:
    """The document that the old handler and renderer print for args."""
    return _render(args, *HANDLERS[args.command](args))
