"""Command line for counting, verifying, and generating OPB instances.

Count results go to stdout as a single ``s mc <count>`` line; everything
else (a JSON report with status, configuration, and optional search
statistics) goes to stderr so pipelines can consume the count alone.

Exit codes: 0 success, 1 failed verification, 2 usage or parse error,
10 timeout, 20 memory budget exceeded.

Some options have environment fallbacks (PBTALLY_HEURISTIC,
PBTALLY_TIMEOUT, PBTALLY_MAX_CACHE_MB); explicit flags always win.
Budgets must be finite.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
import time

from .counter import (CounterConfig, MemoryBudgetExceeded, ModelCounter,
                      SolveTimeout, count_models)
from .formula import OpbParseError, parse_opb, parse_opb_file
from .generators import gen_auction, gen_knapsack, gen_sensor
from .oracle import ENUMERATION_LIMIT, brute_count

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 10
EXIT_MEMOUT = 20

HEURISTICS = ("vcis", "baseline")


#: an int of at most this many bits converts directly; 2,048 bits is 617
#: digits, under the smallest digit limit the interpreter allows (640)
_LEAF_BITS = 2048


def _decimal_digits(n: int) -> str:
    """``str(n)``, for an int of any size.

    ``str`` refuses an int with more digits than
    ``sys.get_int_max_str_digits()`` (4,300 by default), and lifting that
    limit would let ``int()`` take quadratic time on long input tokens.
    Here the int is split in binary and joined in ``decimal`` arithmetic,
    which has no such limit and multiplies in subquadratic time: 900,000
    digits take a fraction of a second.
    """
    powers = {}

    def join(m: int, bits: int) -> decimal.Decimal:
        # |m| < 2 ** bits, and m == high * 2 ** low_bits + low with 0 <= low
        if bits <= _LEAF_BITS:
            return decimal.Decimal(m)
        low_bits = bits >> 1
        high = m >> low_bits
        scale = powers.get(low_bits)
        if scale is None:
            scale = powers[low_bits] = decimal.Decimal(2) ** low_bits
        return join(high, bits - low_bits) * scale + join(m - (high << low_bits), low_bits)

    with decimal.localcontext() as ctx:
        # exact: no product or sum is ever rounded
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        return str(join(n, n.bit_length()))


def _report(payload: dict) -> None:
    """Print ``json.dumps(payload, sort_keys=True)`` on stderr.

    Top-level ints are written by :func:`_decimal_digits`, since ``json``
    writes an int through ``str`` and so fails on a count too long for it.
    """
    fields = ("%s: %s" % (json.dumps(key), _decimal_digits(value) if type(value) is int
                          else json.dumps(value, sort_keys=True))
              for key, value in sorted(payload.items()))
    print("{%s}" % ", ".join(fields), file=sys.stderr)


def _env_override(value, name: str, cast):
    if value is not None:
        return value
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError:
        raise ValueError("%s: cannot parse %r" % (name, raw)) from None


def _heuristic(raw: str) -> str:
    if raw not in HEURISTICS:
        raise ValueError(raw)
    return raw


def _read_formula(path: str):
    if path == "-":
        return parse_opb(sys.stdin.read())
    return parse_opb_file(path)


def _mb_to_bytes(mb: float) -> int:
    nbytes = mb * (1 << 20)
    if not math.isfinite(nbytes):
        raise ValueError("a budget in MB must be finite, got %r" % (mb,))
    return int(nbytes)


def _build_config(args, saturate_keys=None, heuristic=None) -> CounterConfig:
    # verify passes both; only count has the flags they would come from
    if heuristic is None:
        heuristic = _env_override(args.heuristic, "PBTALLY_HEURISTIC", _heuristic) or "vcis"
    if saturate_keys is None:
        saturate_keys = not args.no_key_saturation
    timeout = _env_override(args.timeout, "PBTALLY_TIMEOUT", float)
    cache_mb = _env_override(args.max_cache_mb, "PBTALLY_MAX_CACHE_MB", float)
    if cache_mb is None:
        cache_mb = 256.0
    memory_mb = getattr(args, "max_memory_mb", None)
    return CounterConfig(
        heuristic=heuristic,
        saturate_keys=saturate_keys,
        max_cache_bytes=_mb_to_bytes(cache_mb),
        max_memory_bytes=None if memory_mb is None else _mb_to_bytes(memory_mb),
        timeout_s=timeout,
    )


def _config_echo(config: CounterConfig) -> dict:
    return {
        "heuristic": config.heuristic,
        "saturate_keys": config.saturate_keys,
        "max_cache_bytes": config.max_cache_bytes,
        "max_memory_bytes": config.max_memory_bytes,
        "timeout_s": config.timeout_s,
    }


def _cmd_count(args) -> int:
    try:
        formula = _read_formula(args.file)
    except (OpbParseError, OSError) as exc:
        _report({"status": "error", "command": "count", "error": str(exc)})
        return EXIT_USAGE
    config = _build_config(args)
    started = time.monotonic()
    try:
        result = count_models(formula, config)
    except SolveTimeout as exc:
        _report({"status": "timeout", "command": "count", "file": args.file,
                 "error": str(exc), "config": _config_echo(config)})
        return EXIT_TIMEOUT
    except MemoryBudgetExceeded as exc:
        _report({"status": "memout", "command": "count", "file": args.file,
                 "error": str(exc), "config": _config_echo(config)})
        return EXIT_MEMOUT
    elapsed = time.monotonic() - started
    print("s mc " + _decimal_digits(result.count))
    payload = {
        "status": "counted",
        "command": "count",
        "file": args.file,
        "count": result.count,
        "num_vars": formula.num_vars,
        "num_constraints": len(formula.constraints),
        "config": _config_echo(config),
        "elapsed_s": round(elapsed, 6),
    }
    if args.stats:
        payload["stats"] = result.stats.as_dict()
    _report(payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        formula = _read_formula(args.file)
    except (OpbParseError, OSError) as exc:
        _report({"status": "error", "command": "verify", "error": str(exc)})
        return EXIT_USAGE
    if formula.num_vars > ENUMERATION_LIMIT:
        _report({"status": "error", "command": "verify",
                 "error": "verification enumerates all assignments and is "
                          "limited to %d variables, got %d"
                          % (ENUMERATION_LIMIT, formula.num_vars)})
        return EXIT_USAGE

    # each heuristic x key mode at the default, which counts small
    # components by enumeration, then the search alone
    runs = [("%s_%s" % (heuristic, "saturated" if saturate else "raw"),
             _build_config(args, saturate_keys=saturate, heuristic=heuristic))
            for heuristic in HEURISTICS for saturate in (True, False)]
    search_only = _build_config(args, saturate_keys=True, heuristic="vcis")
    search_only.leaf_cells = 0
    runs.append(("search_only", search_only))
    counts = {}
    for label, config in runs:
        counter = ModelCounter(formula, config)
        if not counts and args.corrupt_cache_after is not None:
            counter.cache.debug_corrupt_after = args.corrupt_cache_after
        try:
            result = counter.run()
        except SolveTimeout as exc:
            _report({"status": "timeout", "command": "verify",
                     "file": args.file, "error": str(exc)})
            return EXIT_TIMEOUT
        except MemoryBudgetExceeded as exc:
            _report({"status": "memout", "command": "verify",
                     "file": args.file, "error": str(exc)})
            return EXIT_MEMOUT
        counts[label] = result.count
    counts["exhaustive"] = brute_count(formula).count

    values = set(counts.values())
    passed = len(values) == 1
    payload = {
        "status": "pass" if passed else "fail",
        "command": "verify",
        "file": args.file,
        "counts": counts,
    }
    _report(payload)
    if passed:
        print("s verify PASS mc %d" % counts["exhaustive"])
        return EXIT_OK
    print("s verify FAIL")
    return EXIT_VERIFY_FAIL


def _cmd_generate(args) -> int:
    if args.family == "knapsack":
        text = gen_knapsack(items=args.items, dims=args.dims,
                            max_coeff=args.max_coeff,
                            capacity_fraction=args.capacity_fraction,
                            seed=args.gen_seed)
    elif args.family == "auction":
        text = gen_auction(bids=args.bids, items=args.auction_items,
                           max_price=args.max_price,
                           revenue_fraction=args.revenue_fraction,
                           max_bundle=args.max_bundle, seed=args.gen_seed)
    else:
        text = gen_sensor(sensors=args.sensors, targets=args.targets,
                          max_cover=args.max_cover, cost_aware=args.cost_aware,
                          max_cost=args.max_cost,
                          budget_fraction=args.budget_fraction,
                          redundancy_rate=args.redundancy_rate,
                          seed=args.gen_seed)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            _report({"status": "error", "command": "generate", "error": str(exc)})
            return EXIT_USAGE
    return EXIT_OK


def _add_count_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="OPB input path, or - for stdin")
    parser.add_argument("--heuristic", choices=HEURISTICS, default=None,
                        help="branching heuristic (default vcis)")
    parser.add_argument("--no-key-saturation", action="store_true",
                        help="store raw residual degrees in cache keys")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget for the count")
    parser.add_argument("--max-cache-mb", type=float, default=None, metavar="MB",
                        help="component cache budget (default 256)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbtally",
        description="Exact model counter for pseudo-Boolean (OPB) formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count the models of one instance")
    _add_count_options(p_count)
    p_count.add_argument("--max-memory-mb", type=float, default=None, metavar="MB",
                         help="abort with exit code 20 above this accounted footprint")
    p_count.add_argument("--stats", action="store_true",
                         help="include search statistics in the stderr report")
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser(
        "verify",
        help="recount under five configurations plus exhaustive enumeration")
    p_verify.add_argument("file", help="OPB input path, or - for stdin")
    p_verify.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                          help="wall-clock budget per configuration")
    p_verify.add_argument("--max-cache-mb", type=float, default=None, metavar="MB")
    p_verify.add_argument("--corrupt-cache-after", type=int, default=None,
                          metavar="N", help="test hook: corrupt the Nth cache "
                          "store of the first run; verification must then fail")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="emit a seeded benchmark instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    g_knap = gen_sub.add_parser("knapsack", help="multi-dimensional knapsack")
    g_knap.add_argument("--items", type=int, default=20)
    g_knap.add_argument("--dims", type=int, default=2)
    g_knap.add_argument("--max-coeff", type=int, default=10)
    g_knap.add_argument("--capacity-fraction", type=float, default=0.5)

    g_auct = gen_sub.add_parser("auction", help="combinatorial auction")
    g_auct.add_argument("--bids", type=int, default=12)
    g_auct.add_argument("--items", type=int, default=8, dest="auction_items")
    g_auct.add_argument("--max-price", type=int, default=20)
    g_auct.add_argument("--revenue-fraction", type=float, default=0.3)
    g_auct.add_argument("--max-bundle", type=int, default=4)

    g_sens = gen_sub.add_parser("sensor", help="sensor placement coverage")
    g_sens.add_argument("--sensors", type=int, default=10)
    g_sens.add_argument("--targets", type=int, default=12)
    g_sens.add_argument("--max-cover", type=int, default=4)
    g_sens.add_argument("--cost-aware", action="store_true")
    g_sens.add_argument("--max-cost", type=int, default=10)
    g_sens.add_argument("--budget-fraction", type=float, default=0.5)
    g_sens.add_argument("--redundancy-rate", type=float, default=0.25)

    for g in (g_knap, g_auct, g_sens):
        g.add_argument("--seed", type=int, default=0, dest="gen_seed")
        g.add_argument("-o", "--output", default="-",
                       help="output path (default stdout)")
        g.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _report({"status": "error", "command": args.command, "error": str(exc)})
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
