"""Batch command-line surface.

Exit codes: 0 success, 1 domain/internal error, 2 parse error, 3 cross-check
mismatch, 4 capacity error, 5 sweep violation.  An element cap that is not an
integer (COMPSERIES_ELEMENT_CAP=abc) exits 2; a cap <= 0, from the variable or
from --element-cap, exits 1, and so does ``verify --order-cap`` <= 0.
``bound N`` with floor(log2 N) above ``config.BOUND_LOG2_CAP`` exits 4, and
so does ``count`` of a spec whose order is that large, or whose cyclic order
or prime is too large to factor; a spec whose integers alone show it that
large exits 4 before anything is built.
``enumerate`` streams its chains.  A reader that closes stdout's pipe early
ends any command with exit 0; a write error on an ``--output`` file exits 1.
Counts are serialized as decimal strings of any length, so arbitrary
precision survives JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
import time
from decimal import Decimal

from . import bounds, catalog, config, formulas, group_core, lattice, series
from .errors import CapacityError, DomainError, SpecParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_CAPACITY = 4
EXIT_VIOLATION = 5


# ---------------------------------------------------------------------------
# result cache (enabled by COMPSERIES_CACHE)


def _cache_dir():
    return os.environ.get("COMPSERIES_CACHE") or None


def _source_digest():
    """SHA-256 of the package's own ``.py`` sources: a count cached by other code misses."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(f"{name}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def _cache_path(key):
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return os.path.join(_cache_dir(), digest + ".json")


def cache_get(key):
    if not _cache_dir():
        return None
    path = _cache_path(key)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError("the entry is not a JSON object")
        if payload.get("cache_key") != key:
            return None
        if not isinstance(payload["report"], dict):
            raise TypeError("its report is not a JSON object")
        return payload["report"]
    except (FileNotFoundError, NotADirectoryError):
        return None
    except (json.JSONDecodeError, KeyError, TypeError, OSError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def cache_put(key, report):
    d = _cache_dir()
    if not d:
        return
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump({"cache_key": key, "report": report}, fh)
        os.replace(tmp, _cache_path(key))
    except OSError as exc:
        print(f"warning: result not cached in {d}: {exc}", file=sys.stderr)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# helpers


def _load_group(args):
    """(canonical name, source, GroupTable, spec-or-None) from --group / --group-file.

    ``source`` identifies the group for the result cache: the canonical spec,
    or the SHA-256 of the group file's bytes, so a rewritten file misses.
    """
    if getattr(args, "group_file", None):
        with open(args.group_file, "rb") as fh:
            data = fh.read()
        try:
            payload = json.loads(data)
        except ValueError as exc:  # bad JSON or bytes, or an integer too long to convert
            raise SpecParseError(f"malformed JSON input: {exc}") from None
        try:
            points = payload["points"]
            gens = payload["generators"]
        except (TypeError, KeyError) as exc:
            raise SpecParseError(f"group file missing field: {exc}")
        if not _is_int(points):
            raise SpecParseError("group file field 'points' must be an integer")
        if not (
            isinstance(gens, list)
            and all(isinstance(g, list) and all(map(_is_int, g)) for g in gens)
        ):
            raise SpecParseError(
                "group file field 'generators' must be a list of lists of integers"
            )
        G = group_core.build_from_generators(points, gens)
        source = "file-sha256:" + hashlib.sha256(data).hexdigest()
        return f"file:{args.group_file}", source, G, None
    if not getattr(args, "group", None):
        raise SpecParseError("one of --group or --group-file is required")
    spec = catalog.parse_spec(args.group)
    name = catalog.print_spec(spec)
    return name, name, None, spec  # realized lazily; formula modes may not need it


def _is_int(x):
    """True for a JSON integer; JSON true and false load as bool, not int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _decimal(value):
    """Decimal string of the int ``value``, of any length.

    str() refuses ints of more than 4300 digits (sys.int_max_str_digits);
    Decimal converts exactly and prints an exponent-0 value as plain digits.
    """
    return str(Decimal(value))


def _emit(report, args):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _emit_plain(report)


def _emit_plain(report, out=None):
    out = out or sys.stdout

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{indent}{k}:", file=out)
                    walk(v, indent + "  ")
                else:
                    print(f"{indent}{k}: {v}", file=out)
        elif isinstance(obj, list):
            for v in obj:
                # a nested list, such as one subgroup's members, stays on one line
                walk(json.dumps(v) if isinstance(v, list) else v, indent)
        else:
            print(f"{indent}{obj}", file=out)

    walk(report)


def _stdout_to_devnull():
    """Point stdout at os.devnull once its reader has closed the pipe.

    What stdout still buffers, flushed at exit too, then goes nowhere.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _base_report(command, inputs, t0):
    return {
        "command": command,
        "inputs": inputs,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
        "cache_hit": False,
    }


# ---------------------------------------------------------------------------
# commands


def _formula_count(spec):
    """(count, tag) via the closed forms, or None when no formula applies."""
    if spec is None or not catalog.is_abelian_spec(spec):
        return None
    parts = catalog.abelian_prime_partitions(spec)
    fac = formulas.Factorization(tuple((p, sum(es)) for p, es in parts.items()))
    if catalog.is_cyclic_spec(spec):
        return formulas.count_cyclic(fac), "formula:cyclic"
    if catalog.is_elem_sylow_spec(spec):
        return formulas.count_abelian_elem_sylow(fac), "formula:elementary-sylow"
    return None


def cmd_count(args):
    t0 = time.monotonic()
    name, source, G, spec = _load_group(args)
    if spec is not None:
        bounds.capped_log2(spec.order(), "|G|")  # count(G) <= bound(|G|)
    key = None  # the sources are read only when there is a cache to key
    if _cache_dir():
        key = (
            f"count|{source}|mode={args.mode}|cross={args.cross_check}"
            f"|cap={args.element_cap}|src={_source_digest()}"
        )
    cached = cache_get(key)
    if cached is not None:
        cached = dict(cached)
        cached["cache_hit"] = True
        cached["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
        _emit(cached, args)
        return EXIT_OK

    formula = _formula_count(spec)
    want_formula = args.mode == "formula" or (args.mode == "auto" and formula)
    want_brute = args.mode == "brute" or (args.mode == "auto" and not formula)
    if args.cross_check:
        want_formula = want_brute = True
    if want_formula and formula is None:
        raise DomainError(
            f"no closed-form count applies to {name} "
            "(formulas cover cyclic, elementary abelian, and abelian groups "
            "with elementary abelian Sylow subgroups)"
        )
    values = {}
    if want_formula:
        values[formula[1]] = formula[0]
    if want_brute:
        if G is None:
            G = catalog.realize(spec)
        values["brute-force"] = series.count_series(G).value
    report = _base_report("count", {"group": name, "mode": args.mode}, t0)
    report["result"] = {
        "count": _decimal(next(iter(values.values()))),
        "method": "+".join(values.keys()),
        "by_method": {k: _decimal(v) for k, v in values.items()},
    }
    if len(set(values.values())) > 1:
        report["result"]["mismatch"] = True
        _emit(report, args)
        return EXIT_MISMATCH
    cache_put(key, report)
    _emit(report, args)
    return EXIT_OK


def _chain_lines(G, limit):
    """One JSON text line per composition series of G: its term orders and member lists.

    Each line equals ``json.dumps({"orders": ..., "subgroups": ...})`` plus a
    newline.  It is a fold: each non-trivial term's order and member texts,
    encoded once per mask, are joined onto the texts of the terms above it on
    the walk.  At the trivial term the whole line is built by one f-string,
    so each line's bytes are copied once, not once per join and once more
    to wrap them; the trivial group's one line is fixed.
    """
    texts = {}

    def extend(term, above):
        if term.mask == 1:
            if above is None:  # G itself is trivial
                return '{"orders": [1], "subgroups": [[0]]}\n'
            return f'{{"orders": [1, {above[0]}], "subgroups": [[0], {above[1]}]}}\n'
        text = texts.get(term.mask)
        if text is None:
            text = texts[term.mask] = (str(term.order), json.dumps(term.members))
        if above is None:
            return text
        return f"{text[0]}, {above[0]}", f"{text[1]}, {above[1]}"

    return series.fold_series(G, extend, limit)


def cmd_enumerate(args):
    """Write each chain as the walk reaches it, so memory stays bounded.

    A reader that closes the pipe early (``| head``) ends the walk normally.
    On stdout each line is flushed as it is written, so ``chains`` counts the
    lines the OS has taken, not those still in the buffer.
    """
    t0 = time.monotonic()
    name, _, G, spec = _load_group(args)
    if G is None:
        G = catalog.realize(spec)
    lines = _chain_lines(G, args.limit)
    if args.output:
        sink = open(args.output, "w")
        report_stream = sys.stdout
    else:
        sink = sys.stdout
        report_stream = sys.stderr
    written = 0
    try:
        # the file is closed, and its last buffer written, inside the try
        with sink if args.output else contextlib.nullcontext():
            for line in lines:
                sink.write(line)
                if not args.output:
                    sink.flush()
                written += 1
    except BrokenPipeError as exc:
        if args.output:  # a write error on the file, not a reader gone
            raise OSError(f"{args.output}: {exc}") from None
        _stdout_to_devnull()
    report = _base_report("enumerate", {"group": name, "limit": args.limit}, t0)
    report["result"] = {"chains": written}
    if args.json:
        print(json.dumps(report), file=report_stream)
    else:
        _emit_plain(report, out=report_stream)
    return EXIT_OK


def cmd_bound(args):
    t0 = time.monotonic()
    value = bounds.bound(args.n)
    report = _base_report("bound", {"n": args.n}, t0)
    report["result"] = {"bound": _decimal(value)}
    _emit(report, args)
    return EXIT_OK


def cmd_sweep(args):
    t0 = time.monotonic()
    res = bounds.sweep_theorem_43(args.max_n, per_order=args.per_order)
    report = _base_report("sweep", {"max_n": args.max_n}, t0)
    report["result"] = res.to_json_obj()
    _emit(report, args)
    return EXIT_VIOLATION if res.violations else EXIT_OK


def cmd_verify(args):
    from .verification import run_verify

    t0 = time.monotonic()
    config.check_positive_cap(args.order_cap, "--order-cap")
    rows = run_verify(args.order_cap)
    report = _base_report("verify", {"order_cap": args.order_cap}, t0)
    report["result"] = {
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in rows
        ],
        "failed": sum(not r.ok for r in rows),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            print(f"{r.name:<{width}}  {r.status:<7}  {r.detail}")
        print(f"\n{len(rows)} checks, {report['result']['failed']} failed")
    return EXIT_OK if report["result"]["failed"] == 0 else EXIT_ERROR


def cmd_catalog_list(args):
    t0 = time.monotonic()
    entries = [
        {"spec": name, "order": spec.order()}
        for name, spec in catalog.standard_roster(args.max_order)
    ]
    report = _base_report("catalog list", {"max_order": args.max_order}, t0)
    report["result"] = {"groups": entries}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for e in entries:
            print(f"{e['order']:>6}  {e['spec']}")
    return EXIT_OK


def cmd_lattice(args):
    t0 = time.monotonic()
    name, _, G, spec = _load_group(args)
    if G is None:
        G = catalog.realize(spec)
    if args.what == "subgroups":
        subs = lattice.all_subgroups(G)
    elif args.what == "normal":
        subs = lattice.normal_subgroups(G)
    else:
        subs = lattice.maximal_normal_subgroups(G)
    report = _base_report("lattice", {"group": name, "what": args.what}, t0)
    result = {"count": len(subs), "orders": subs.orders()}
    if G.order <= 64:
        result["members"] = [list(s.members) for s in subs]
    report["result"] = result
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compseries",
        description="Exact composition-series counting for small finite groups.",
    )
    parser.add_argument(
        "--element-cap",
        type=int,
        default=None,
        help="override the element cap (default: COMPSERIES_ELEMENT_CAP or 4096)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_group_args(p):
        p.add_argument("--group", help="group spec, e.g. Z360, E(2,6), A5xA5")
        p.add_argument(
            "--group-file",
            help="JSON file {points: int, generators: [[...]]} of permutation generators",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("count", help="count distinct composition series")
    add_group_args(p)
    p.add_argument("--mode", choices=["auto", "formula", "brute"], default="auto")
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="run both formula and brute force; exit 3 on mismatch",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list composition series as JSON lines")
    add_group_args(p)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--output", help="write chains to this file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bound", help="evaluate the global upper bound")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="exhaustive order sweep against the bound")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--per-order", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="oracle-vs-formula verification suite")
    p.add_argument("--order-cap", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="catalog operations")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    pl = csub.add_parser("list", help="list the standard group roster")
    pl.add_argument("--max-order", type=int, default=4096)
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_catalog_list)

    p = sub.add_parser("lattice", help="subgroup lattice queries")
    add_group_args(p)
    p.add_argument(
        "--what",
        choices=["subgroups", "normal", "maximal-normal"],
        required=True,
    )
    p.set_defaults(func=cmd_lattice)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.element_cap is None:
            args.element_cap = config.element_cap()
        else:
            config.check_positive_cap(args.element_cap, "--element-cap")
        # every cap check of the call, the oracle's included, reads the flag
        with config.element_cap_in_force(args.element_cap):
            code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout took what it wanted (`| head`) and left
        _stdout_to_devnull()
        return EXIT_OK
    except SpecParseError as exc:
        pos = f" at position {exc.position}" if exc.position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
