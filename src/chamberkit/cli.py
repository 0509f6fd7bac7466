"""Command-line surface: deterministic JSON reports over the chamber,
weight, strata and series machinery, plus census persistence and a
cross-module verification suite.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import cache
from . import hypersimplex as hs
from . import series as se
from . import strata as st
from . import weights as wt
from .ratutil import format_rational, parse_int, parse_vector

SCHEMA_VERSION = 1


class _CliError(Exception):
    """Input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _int(text):
    """argparse type of the integer options: parse_int, with the message
    argparse gives for type=int."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _fmt_vec(v):
    return [format_rational(x) for x in v]


def _parse_vec(text):
    try:
        return parse_vector(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError("bad rational vector %r: %s" % (text, exc))


def _parse_partition(text):
    try:
        return wt.parse_partition(text)
    except ValueError as exc:
        raise _CliError("bad partition %r: %s" % (text, exc))


def _point_cell(text, n=None, interior_only=False):
    """The point parsed from text, the complex of D(n) (n the point's length
    by default) and the cell holding the point."""
    point = _parse_vec(text)
    if n is None:
        n = len(point)
        if not 4 <= n <= hs.MAX_CHAMBER_N:
            raise _CliError("--point has %d coordinates; a point of D(n) has "
                            "n coordinates, 4 <= n <= %d"
                            % (n, hs.MAX_CHAMBER_N))
    elif n != len(point):
        raise _CliError("--n %d disagrees with the point length %d"
                        % (n, len(point)))
    cc = hs.chamber_complex(n, interior_only=interior_only)
    try:
        return point, cc, cc.locate(point)
    except LookupError as exc:
        raise _CliError(str(exc))


def _cert(check, value, expected):
    return {"check": check, "value": value, "expected": expected,
            "pass": value == expected}


def _braces(items):
    return "{%s}" % ",".join(map(str, items))


def _report(command, inputs, results, certificates, notes):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "certificates": certificates,
        "notes": notes,
    }


def _render(report, fmt):
    if fmt == "json":
        return _json_text(report, "") + "\n"
    lines = []
    _table_rows("", report, lines)
    return "\n".join(lines) + "\n"


# The JSON report is the text of json.dumps(report, sort_keys=True,
# indent=2), byte for byte.  With an indent, json leaves its C encoder for a
# pure-Python one (some 15 ms for a chamber listing, and a reference cycle
# per call), so the layout is written here and the leaves are escaped by
# json's C functions.
_json_quote = json.encoder.encode_basestring_ascii
# floats, subclasses of the scalar types and anything json cannot encode
# (its TypeError) go to json's own C encoder
_json_other = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _json_quote, None, ": ", ", ",
    True, False, True)
_JSON_SCALARS = {
    str: _json_quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_STR_ONLY = {str}


def _json_key(key):
    """A dict key as json writes it: str keys quoted, the scalar keys json
    accepts written as JSON and then quoted."""
    if isinstance(key, str):
        return _json_quote(key)
    if key is None or isinstance(key, (int, float)):
        return _json_quote(_json_text(key, ""))
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % key.__class__.__name__)


def _json_text(obj, indent):
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, its
    closing bracket at indent.  A module-level recursion, so that no
    reference cycle is left behind per rendered report.  A `_Listing` is
    written from the text it stores for that indent, rendered here the first
    time."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if type(obj) is _Listing:
        text = obj.texts.get(indent)
        if text is None:
            text = obj.texts[indent] = _json_text(list(obj), indent)
        return text
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == _STR_ONLY:
            items = map(_json_quote, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            scalar = _JSON_SCALARS.get(type(value))
            items.append("%s: %s" % (
                _json_key(key),
                scalar(value) if scalar is not None
                else _json_text(value, inner)))
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    return "".join(_json_other(obj, 0))


def _table_rows(prefix, obj, lines):
    """Append the table rows of obj, keyed under prefix, to lines.  A
    module-level function, not a closure that calls itself, so that no
    reference cycle is left behind per rendered report."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            _table_rows(prefix + "." + str(k) if prefix else str(k), obj[k], lines)
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            lines.append("%s: %s" % (prefix, " ".join(map(str, obj))))
        else:
            for i, x in enumerate(obj):
                _table_rows("%s[%d]" % (prefix, i), x, lines)
    else:
        lines.append("%s: %s" % (prefix, obj))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (inputs, results, certificates, notes)


def _chamber_json(cc, ch):
    return {
        "id": ch.id,
        "dim": ch.dim,
        "signs": ch.signs,
        "witness": _fmt_vec(ch.witness),
        "on_boundary": ch.on_boundary,
        "zero_walls": [h.label for h in ch.zero_walls(cc.arrangement)],
    }


class _Listing(list):
    """Report entries that never change, with their JSON text per indent
    (`texts`), which `_json_text` fills the first time it writes them."""
    __slots__ = ("texts",)

    def __init__(self, entries):
        super().__init__(entries)
        self.texts = {}


@cache.cached
def _listing(n, interior_only):
    """The --list entries of a complex, built once per process, and their
    JSON text, rendered once per process for each depth a report puts them
    at.  Reports share the list and only read it."""
    cc = hs.chamber_complex(n, interior_only=interior_only)
    return _Listing(_chamber_json(cc, ch) for ch in cc.chambers)


def _dim_counts(cc):
    """Cells by dimension (string keys) and their Euler sum."""
    counts = cc.counts_by_dim
    return ({str(d): c for d, c in counts.items()},
            sum((-1) ** d * c for d, c in counts.items()))


def _cmd_chambers(args):
    cc = hs.chamber_complex(args.n, interior_only=args.interior_only)
    counts, euler = _dim_counts(cc)
    expected = (-1) ** (args.n - 1) if args.interior_only else 1
    results = {"n": args.n, "counts_by_dim": counts,
               "total": len(cc.chambers)}
    if args.list:
        results["chambers"] = _listing(args.n, args.interior_only)
    if args.locate is not None:
        _, _, ch = _point_cell(args.locate, args.n, args.interior_only)
        results["located"] = _chamber_json(cc, ch)
    return ({"n": args.n, "interior_only": args.interior_only}, results,
            [_cert("euler-characteristic", euler, expected)], [])


def _cmd_admissible(args):
    polys = hs.enumerate_admissible(args.n)
    rejected = hs.rejected_cut_families(args.n)
    results = {
        "n": args.n,
        "accepted": [{"id": p.id, "kind": p.kind, "dim": p.dim}
                     for p in polys],
        "rejected_cut_families": [p.id for p in rejected],
        "counts": {
            "FULL": sum(1 for p in polys if p.kind == "FULL"),
            "SECTION": sum(1 for p in polys if p.kind == "SECTION"),
            "CUTS": sum(1 for p in polys if p.kind == "CUTS"),
        },
    }
    certs = [_cert("full-present", results["counts"]["FULL"], 1)]
    return {"n": args.n}, results, certs, []


def _cmd_omega(args):
    point, cc, ch = _point_cell(args.point)
    ids = hs.omega_set(ch)
    results = {
        "n": cc.n,
        "chamber": _chamber_json(cc, ch),
        "omega": list(ids),
    }
    certs = [_cert("full-member", "FULL" in ids, not ch.on_boundary)]
    return {"point": _fmt_vec(point)}, results, certs, []


def _cmd_stability(args):
    entries = _parse_vec(args.weights)
    lin = wt.Linearisation(entries)
    results = {"n": lin.n, "weights": _fmt_vec(lin.entries)}
    certs = []
    if args.partition is not None:
        part = _parse_partition(args.partition)
        status, block, total = wt.stability_report(lin, part)
        results["partition"] = str(part)
        results["status"] = status
        certs.append({"check": "worst-block",
                      "value": {"block": _braces(block),
                                "total": format_rational(total)},
                      "pass": True})
    cls = wt.classify_linearisation(lin)
    results["classification"] = {
        "kind": cls.kind,
        "witness": list(cls.witness) if cls.witness else None,
    }
    if args.profile:
        prof = wt.semistable_profile(lin)
        results["semistable_profile"] = [str(p) for p in prof]
    return ({"weights": _fmt_vec(entries),
             "partition": args.partition}, results, certs, [])


def _cmd_xi(args):
    point, cc, ch = _point_cell(args.point, args.n)
    if ch.on_boundary:
        raise _CliError("xi is defined on interior chambers only")
    pairs, image, covers = wt._xi_pass(ch)
    results = {
        "n": cc.n,
        "chamber": _chamber_json(cc, ch),
        "zero_pairs": len(pairs),
        "xi_size": len(image),
        "xi_cells": list(image),
    }
    certs = [{"check": "dimension-dichotomy",
              "value": {"dim": ch.dim, "xi_size": len(image)},
              "pass": (len(image) == 1) == (ch.dim == cc.n - 1)}]
    if len(pairs) <= 2:
        results["facet_cover_count"] = covers
    return {"point": _fmt_vec(point)}, results, certs, []


_LM_NOTE = {
    "topic": "lm-point-strata",
    "computed": 13,
    "alternatives_seen": [10, 14],
    "certificate": "euler identity: chi(open) + sum over strata = (n-2)!; "
                   "2 - 9 + points = 6 forces points = 13",
}


def _lm_notes(space, n):
    return [_LM_NOTE] if space == "lm" and n == 5 else []


_FACTOR_ORDER_NOTE = {
    "topic": "divisor-factor-order",
    "computed": {"F4xF5": 10, "F5xF4": 5, "F6": 1},
    "alternatives_seen": ["ten F5xF4 with five F4xF5"],
    "certificate": "factor pairing F_{r+1} x F_{n-r+1} for |I| = r, fixed by "
                   "the reduction-divisor census",
}

_SIGN_NOTE = {
    "topic": "osp-sign-convention",
    "computed": "(-1)^k over ordered partitions into k blocks",
    "alternatives_seen": ["(-1)^(n - sum n_i), identically +1"],
    "certificate": "direct-inverse oracle equality on random series",
}


@lru_cache(maxsize=None)
def _census_payload(space, n):
    """One space's census results and certificate, tallied once per n."""
    st._check_range(n, 4, st.MAX_CENSUS_N)
    census = st.dm_valence_census(n) if space == "dm" else st.lm_census(n)
    by_grade, by_type, total, chi = st.tally(census)
    if space == "dm":
        grade, cert = "by_codim", _cert("chi-fibration", chi, st.chi_mbar(n))
    else:
        grade = "by_dim"
        cert = _cert("chi-permutohedral", chi, factorial(n - 2))
    return {
        grade: {str(k): v for k, v in sorted(by_grade.items())},
        "by_type": dict(sorted(by_type.items())),
        "total": total,
        "chi": chi,
    }, [cert]


def _cmd_strata(args):
    results = {"space": args.space, "n": args.n}
    # a listing is capped below the census, so its guard speaks first
    if args.list:
        if args.space == "dm":
            results["strata"] = [
                {"splits": [_braces(s) for s in t.splits],
                 "codim": t.codim, "type": t.type_string()}
                for t in st.dm_strata(args.n)]
        else:
            items = []
            for c in st.lm_strata(args.n):
                item = {
                    "blocks": [_braces(b) for b in c.blocks],
                    "clusters": ["|".join(map(_braces, cls))
                                 for cls in c.clusters],
                    "dim": c.dim,
                    "type": c.type_string(),
                    "outgrowth": (None if c.is_open()
                                  else st.classify_outgrowth(c)),
                }
                items.append(item)
            results["strata"] = items
    results["census"], certs = _census_payload(args.space, args.n)
    return ({"space": args.space, "n": args.n}, results, certs,
            _lm_notes(args.space, args.n))


def _cmd_divisors(args):
    a = _parse_vec(args.from_weights)
    b = _parse_vec(args.to_weights)
    divs = st.reduction_divisors(a, b)
    by_size = {}
    for d in divs:
        by_size[len(d.i_set)] = by_size.get(len(d.i_set), 0) + 1
    results = {
        "n": len(a),
        "count": len(divs),
        "by_i_size": {str(k): v for k, v in sorted(by_size.items())},
        "divisors": [{"I": list(d.i_set), "J": list(d.j_set),
                      "type": d.type_string()} for d in divs],
    }
    certs = []
    notes = []
    n = len(a)
    heavy_light = (all(x == 1 for x in a) and b[0] == b[1] == 1
                   and len(set(b[2:])) == 1)
    # The wonderful census counts the divisors only while the light points
    # together weigh at most 1.
    if heavy_light and 5 <= n <= 7 and (n - 2) * b[2] <= 1:
        certs.append(_cert("wonderful-total",
                           sum(st.wonderful_divisor_census(n).values()),
                           len(divs)))
        if n == 7:
            notes.append(_FACTOR_ORDER_NOTE)
    return {"from": _fmt_vec(a), "to": _fmt_vec(b)}, results, certs, notes


def _cmd_invert(args):
    coeffs = _parse_vec(args.coeffs)
    order = args.order if args.order is not None else len(coeffs) - 1
    if order + 1 < len(coeffs):
        raise _CliError("--order smaller than the given coefficient list")
    f = se.ExpSeries(coeffs).truncated(order)
    if args.mode == "mult":
        direct = se.mult_inverse_direct(f)
        census = (se.mult_inverse_permutohedral(f)
                  if order <= se.MAX_PERM_ORDER else None)
    else:
        direct = se.comp_inverse_direct(f)
        census = se.comp_inverse_strata(f)
    if args.method == "strata" and census is None:
        raise _CliError("census route unavailable at order %d" % order)
    results = {
        "mode": args.mode,
        "order": order,
        "input": _fmt_vec(f.coeffs),
        "direct": _fmt_vec(direct.coeffs),
    }
    certs = []
    notes = []
    if census is not None:
        results["census"] = _fmt_vec(census.coeffs)
        certs.append(_cert("oracle-match", census == direct, True))
        if args.mode == "mult":
            notes.append(_SIGN_NOTE)
    results["coefficients"] = (results["direct"] if args.method == "direct"
                               else results["census"])
    return ({"mode": args.mode, "method": args.method,
             "coeffs": args.coeffs, "order": order}, results, certs, notes)


# ---------------------------------------------------------------------------
# verification suite


def _verify_chambers(n, rng, certs):
    cc = hs.chamber_complex(min(n, 5))
    counts, euler = _dim_counts(cc)
    certs.append(_cert("chamber-euler", euler, 1))
    if cc.n == 5:
        certs.append(_cert("chamber-counts-n5", counts,
                           {"0": 20, "1": 110, "2": 240, "3": 225, "4": 76}))
    sample = rng.sample(cc.chambers, min(10, len(cc.chambers)))
    ok = all(cc.arrangement.signs_at(ch.witness) == ch.signs for ch in sample)
    certs.append(_cert("witness-signs", ok, True))
    polys = hs.enumerate_admissible(cc.n)
    if cc.n == 5:
        kinds = [sum(1 for p in polys if p.kind == k)
                 for k in ("FULL", "SECTION", "CUTS")]
        certs.append(_cert("admissible-counts-n5", kinds, [1, 10, 35]))
    interior = [ch for ch in cc.chambers if not ch.on_boundary]
    omega_ok = all(hs.omega_set(ch) for ch in
                   rng.sample(interior, min(6, len(interior))))
    certs.append(_cert("omega-nonempty-interior", omega_ok, True))


def _verify_weights(n, rng, certs):
    lin = wt.Linearisation([Fraction(1, 2), Fraction(2, 3), Fraction(5, 18),
                            Fraction(5, 18), Fraction(5, 18)])
    status, block, total = wt.stability_report(
        lin, wt.parse_partition("{1,2}|{3}|{4}|{5}"))
    ok = (status == wt.UNSTABLE and block == (1, 2)
          and total == Fraction(7, 6))
    certs.append({"check": "stability-example",
                  "value": {"status": status, "total": format_rational(total)},
                  "pass": ok})
    cc = hs.chamber_complex(5)
    tops = [c for c in cc.chambers if c.dim == 4 and not c.on_boundary]
    sample = rng.sample(tops, 6)
    ok = all(len(wt.xi(c)) == 1 for c in sample)
    certs.append(_cert("xi-unique-top-cells", ok, True))
    example_point = (Fraction(3, 5), Fraction(1, 3), Fraction(2, 5),
                   Fraction(1, 3), Fraction(1, 3))
    ch = cc.locate(example_point)
    pairs, image, covers = wt._xi_pass(ch)
    certs.append({"check": "xi-facet-example",
                  "value": {"dim": ch.dim, "xi": len(image),
                            "covers": covers},
                  "pass": ch.dim == 3 and len(pairs) == 1
                  and len(image) >= 2 and covers == 2})
    fine = wt.fine_chambers(4)
    certs.append(_cert("fine-chambers-n4", len(fine), 27))


def _verify_strata(n, rng, certs):
    for m in range(4, min(n, 6) + 1):
        chi = sum(st.chi_stratum(t.valences()) for t in st.dm_strata(m))
        certs.append(_cert("dm-chi-%d" % m, chi, st.chi_mbar(m)))
        certs.append(_cert("lm-chi-%d" % m, st.tally(st.lm_census(m))[3],
                           factorial(m - 2)))
    certs.append(_cert("lm-point-labels-n5",
                       st.lm_point_label_census_n5()["total"], 13))
    for m in (5, 6, 7):
        eps = Fraction(1, 2 * (m - 2))
        divs = st.reduction_divisors((1,) * m, (1, 1) + (eps,) * (m - 2))
        certs.append(_cert("wonderful-vs-reduction-%d" % m,
                           sum(st.wonderful_divisor_census(m).values()),
                           len(divs)))


def _verify_series(n, rng, certs):
    ok = True
    for _ in range(3):
        coeffs = [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(6)]
        s = se.ExpSeries(coeffs)
        ok = ok and se.mult_inverse_permutohedral(s) == se.mult_inverse_direct(s)
    certs.append(_cert("mult-oracle-match", ok, True))
    ok = True
    for _ in range(3):
        coeffs = [0, 1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(4)]
        s = se.ExpSeries(coeffs)
        ok = ok and se.comp_inverse_strata(s) == se.comp_inverse_direct(s)
    certs.append(_cert("comp-oracle-match", ok, True))
    euler_ok = all(se.euler_interior(m) == (-1) ** m for m in range(7))
    certs.append(_cert("euler-interior-law", euler_ok, True))


_SUITES = {
    "chambers": _verify_chambers,
    "weights": _verify_weights,
    "strata": _verify_strata,
    "series": _verify_series,
}


def _cmd_verify(args):
    rng = random.Random(args.seed)
    certs = []
    suites = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    for name in suites:
        _SUITES[name](args.n, rng, certs)
    passed = sum(1 for c in certs if c["pass"])
    results = {
        "suites": list(suites),
        "checks": len(certs),
        "passed": passed,
        "all_green": passed == len(certs),
    }
    return ({"suite": args.suite, "n": args.n, "seed": args.seed},
            results, certs, [])


# ---------------------------------------------------------------------------
# census persistence


def save_census(path, space, n):
    results, certs = _census_payload(space, n)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "space": space,
        "n": n,
        "census": results,
        "certificates": certs,
    }
    with open(path, "w") as fh:
        fh.write(_render(payload, "json"))
    return payload


def load_census(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise _CliError("census file %r is not JSON: %s" % (path, exc))
    if not isinstance(payload, dict):
        raise _CliError("census file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise _CliError("unsupported census schema version: %r" % (version,))
    for key in ("space", "n", "census"):
        if key not in payload:
            raise _CliError("census file missing field %r" % key)
    return payload


def _cmd_census(args):
    if args.save is None and args.check is None:
        raise _CliError("census needs --save PATH or --check PATH")
    if args.save is not None and args.check is not None:
        raise _CliError("census takes --save PATH or --check PATH, not both")
    inputs = {"space": args.space, "n": args.n}
    notes = _lm_notes(args.space, args.n)
    if args.save is not None:
        payload = save_census(args.save, args.space, args.n)
        results = {"saved": args.save, "census": payload["census"]}
        return inputs, results, [], notes
    payload = load_census(args.check)
    if payload["space"] != args.space or payload["n"] != args.n:
        raise _CliError("census file is for --space %s --n %r"
                        % (payload["space"], payload["n"]))
    fresh, _certs = _census_payload(args.space, args.n)
    match = fresh == payload["census"]
    results = {"checked": args.check, "match": match}
    return inputs, results, [_cert("census-match", match, True)], notes


# ---------------------------------------------------------------------------
# argument wiring


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every request reuses it."""
    parser = _Parser(prog="chamberkit",
                     description="exact chamber, stability, strata and "
                                 "series computations")
    parser.add_argument("--format", choices=("json", "table"),
                        default="json")
    parser.add_argument("--out", help="also write the JSON report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chambers")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--interior-only", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--locate", metavar="POINT")
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("admissible")
    p.add_argument("--n", type=_int, required=True)
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("omega")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("stability")
    p.add_argument("--weights", required=True)
    p.add_argument("--partition")
    p.add_argument("--profile", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("xi")
    p.add_argument("--n", type=_int)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("strata")
    p.add_argument("--space", choices=("dm", "lm"), required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("divisors")
    p.add_argument("--from", dest="from_weights", required=True)
    p.add_argument("--to", dest="to_weights", required=True)
    p.set_defaults(func=_cmd_divisors)

    p = sub.add_parser("invert")
    p.add_argument("--mode", choices=("mult", "comp"), required=True)
    p.add_argument("--method", choices=("direct", "strata"),
                   default="direct")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--order", type=_int)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify")
    p.add_argument("--suite",
                   choices=("all",) + tuple(_SUITES), default="all")
    p.add_argument("--n", type=_int, default=5)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census")
    p.add_argument("--space", choices=("dm", "lm"), required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--save", metavar="PATH")
    p.add_argument("--check", metavar="PATH")
    p.set_defaults(func=_cmd_census)

    return parser


def run(argv):
    args = _build_parser().parse_args(argv)
    builds = cache.builds
    inputs, results, certs, notes = args.func(args)
    report = _report(args.command, inputs, results, certs, notes)
    text = _render(report, args.format)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text if args.format == "json"
                     else _render(report, "json"))
    if cache.builds != builds:
        # This request filled a per-process cache: freeze what it built,
        # so that full collections in later requests do not walk it again.
        cache.settle()
    return text, 0 if all(c["pass"] for c in certs) else 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        text, code = run(argv)
    except (_CliError, ValueError, OSError) as exc:
        sys.stdout.write(json.dumps(
            {"schema_version": SCHEMA_VERSION, "error": str(exc)},
            sort_keys=True) + "\n")
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
