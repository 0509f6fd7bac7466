"""Command-line surface: deterministic JSON reports over the chamber,
weight, strata and series machinery, plus census persistence and a
cross-module verification suite.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from math import factorial

from . import hypersimplex as hs
from . import series as se
from . import strata as st
from . import weights as wt
from .ratutil import format_rational, parse_vector

SCHEMA_VERSION = 1


class _CliError(Exception):
    """Input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _fmt_frac(x):
    return format_rational(Fraction(x))


def _fmt_vec(v):
    return [_fmt_frac(x) for x in v]


def _parse_vec(text):
    try:
        return parse_vector(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError("bad rational vector %r: %s" % (text, exc))


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
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(prefix + "." + str(k) if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            if all(not isinstance(x, (dict, list)) for x in obj):
                lines.append("%s: %s" % (prefix, " ".join(map(str, obj))))
            else:
                for i, x in enumerate(obj):
                    walk("%s[%d]" % (prefix, i), x)
        else:
            lines.append("%s: %s" % (prefix, obj))

    walk("", report)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (inputs, results, certificates, notes,
# exit_code)


def _chamber_json(cc, ch):
    return {
        "id": ch.id,
        "dim": ch.dim,
        "signs": ch.signs,
        "witness": _fmt_vec(ch.witness),
        "on_boundary": ch.on_boundary,
        "zero_walls": [h.label for h in ch.zero_walls(cc.arrangement)],
    }


def _cmd_chambers(args):
    cc = hs.chamber_complex(args.n, interior_only=args.interior_only)
    counts = {}
    for ch in cc.chambers:
        counts[ch.dim] = counts.get(ch.dim, 0) + 1
    euler = sum((-1) ** d * c for d, c in counts.items())
    expected = (-1) ** (args.n - 1) if args.interior_only else 1
    results = {
        "n": args.n,
        "counts_by_dim": {str(d): counts[d] for d in sorted(counts)},
        "total": len(cc.chambers),
    }
    if args.list:
        results["chambers"] = [_chamber_json(cc, ch) for ch in cc.chambers]
    if args.locate:
        point = _parse_vec(args.locate)
        try:
            ch = cc.locate(point)
        except (ValueError, LookupError) as exc:
            raise _CliError(str(exc))
        results["located"] = _chamber_json(cc, ch)
    certs = [{"check": "euler-characteristic", "value": euler,
              "expected": expected, "pass": euler == expected}]
    code = 0 if all(c["pass"] for c in certs) else 2
    return ({"n": args.n, "interior_only": args.interior_only},
            results, certs, [], code)


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
    certs = [{"check": "full-present", "value": results["counts"]["FULL"],
              "expected": 1, "pass": results["counts"]["FULL"] == 1}]
    code = 0 if all(c["pass"] for c in certs) else 2
    return {"n": args.n}, results, certs, [], code


def _cmd_omega(args):
    point = _parse_vec(args.point)
    n = len(point)
    cc = hs.chamber_complex(n)
    try:
        ch = cc.locate(point)
    except (ValueError, LookupError) as exc:
        raise _CliError(str(exc))
    ids = hs.omega_set(ch)
    results = {
        "n": n,
        "chamber": _chamber_json(cc, ch),
        "omega": list(ids),
    }
    certs = [{"check": "full-member", "value": "FULL" in ids,
              "expected": not ch.on_boundary,
              "pass": ("FULL" in ids) == (not ch.on_boundary)}]
    code = 0 if all(c["pass"] for c in certs) else 2
    return {"point": _fmt_vec(point)}, results, certs, [], code


def _cmd_stability(args):
    entries = _parse_vec(args.weights)
    try:
        lin = wt.Linearisation(entries)
    except ValueError as exc:
        raise _CliError(str(exc))
    results = {"n": lin.n, "weights": _fmt_vec(lin.entries)}
    certs = []
    if args.partition:
        try:
            part = wt.parse_partition(args.partition)
        except ValueError as exc:
            raise _CliError(str(exc))
        status, block, total = wt.stability_report(lin, part)
        results["partition"] = str(part)
        results["status"] = status
        certs.append({"check": "worst-block",
                      "value": {"block": "{%s}" % ",".join(map(str, block)),
                                "total": _fmt_frac(total)},
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
             "partition": args.partition}, results, certs, [], 0)


def _cmd_xi(args):
    point = _parse_vec(args.point)
    if args.n is not None and args.n != len(point):
        raise _CliError("--n disagrees with the point length")
    n = len(point)
    cc = hs.chamber_complex(n)
    try:
        ch = cc.locate(point)
    except (ValueError, LookupError) as exc:
        raise _CliError(str(exc))
    if ch.on_boundary:
        raise _CliError("xi is defined on interior chambers only")
    image = wt.xi(ch)
    k = ch.wall_incidence(cc.arrangement)
    results = {
        "n": n,
        "chamber": _chamber_json(cc, ch),
        "zero_pairs": k,
        "xi_size": len(image),
        "xi_cells": list(image),
    }
    certs = [{"check": "dimension-dichotomy",
              "value": {"dim": ch.dim, "xi_size": len(image)},
              "pass": (len(image) == 1) == (ch.dim == n - 1)}]
    if k <= 2:
        results["facet_cover_count"] = wt.facet_cover_count(ch, k)
    code = 0 if all(c["pass"] for c in certs) else 2
    return {"point": _fmt_vec(point)}, results, certs, [], code


_LM_NOTE = {
    "topic": "lm-point-strata",
    "computed": 13,
    "alternatives_seen": [10, 14],
    "certificate": "euler identity: chi(open) + sum over strata = (n-2)!; "
                   "2 - 9 + points = 6 forces points = 13",
}

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


def _census_payload(space, n):
    if space == "dm":
        st._check_tree_n(n)
        by_codim = {}
        by_type = {}
        chi = 0
        for (codim, vals), count in st.dm_valence_census(n).items():
            by_codim[codim] = by_codim.get(codim, 0) + count
            ts = st._type_string(vals)
            by_type[ts] = by_type.get(ts, 0) + count
            chi += count * st.chi_stratum(vals)
        return {
            "by_codim": {str(k): v for k, v in sorted(by_codim.items())},
            "by_type": dict(sorted(by_type.items())),
            "total": sum(by_codim.values()),
            "chi": chi,
        }, [{"check": "chi-fibration", "value": chi,
             "expected": st.chi_mbar(n), "pass": chi == st.chi_mbar(n)}]
    census = st.lm_census(n)
    return {
        "by_dim": {str(k): v for k, v in sorted(census.by_dim.items())},
        "by_type": dict(sorted(census.by_type.items())),
        "total": census.total,
        "chi": census.chi,
    }, [{"check": "chi-permutohedral", "value": census.chi,
         "expected": factorial(n - 2), "pass": census.chi == factorial(n - 2)}]


def _cmd_strata(args):
    try:
        results, certs = _census_payload(args.space, args.n)
    except ValueError as exc:
        raise _CliError(str(exc))
    results = {"space": args.space, "n": args.n, "census": results}
    notes = []
    if args.space == "lm" and args.n == 5:
        notes.append(_LM_NOTE)
    if args.list:
        if args.space == "dm":
            results["strata"] = [
                {"splits": ["{%s}" % ",".join(map(str, s)) for s in t.splits],
                 "codim": t.codim, "type": t.type_string()}
                for t in st.dm_strata(args.n).trees]
        else:
            items = []
            for c in st.lm_strata(args.n):
                item = {
                    "blocks": ["{%s}" % ",".join(map(str, b))
                               for b in c.blocks],
                    "clusters": ["|".join("{%s}" % ",".join(map(str, cl))
                                          for cl in cls)
                                 for cls in c.clusters],
                    "dim": c.dim,
                    "type": c.type_string(),
                    "outgrowth": (None if c.is_open()
                                  else st.classify_outgrowth(c)),
                }
                items.append(item)
            results["strata"] = items
    code = 0 if all(c["pass"] for c in certs) else 2
    return ({"space": args.space, "n": args.n},
            results, certs, notes, code)


def _cmd_divisors(args):
    a = _parse_vec(args.from_weights)
    b = _parse_vec(args.to_weights)
    try:
        divs = st.reduction_divisors(a, b)
    except ValueError as exc:
        raise _CliError(str(exc))
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
    if heavy_light and 5 <= n <= 7:
        wc = st.wonderful_divisor_census(n)
        certs.append({"check": "wonderful-total", "value": wc.total,
                      "expected": len(divs), "pass": wc.total == len(divs)})
        if n == 7:
            notes.append(_FACTOR_ORDER_NOTE)
    code = 0 if all(c["pass"] for c in certs) else 2
    return ({"from": _fmt_vec(a), "to": _fmt_vec(b)},
            results, certs, notes, code)


def _cmd_invert(args):
    coeffs = _parse_vec(args.coeffs)
    order = args.order if args.order is not None else len(coeffs) - 1
    if order + 1 < len(coeffs):
        raise _CliError("--order smaller than the given coefficient list")
    try:
        f = se.ExpSeries(coeffs).truncated(order)
    except ValueError as exc:
        raise _CliError(str(exc))
    try:
        if args.mode == "mult":
            direct = se.mult_inverse_direct(f)
            census = (se.mult_inverse_permutohedral(f)
                      if order <= se.MAX_PERM_ORDER else None)
        else:
            direct = se.comp_inverse_direct(f)
            census = (se.comp_inverse_strata(f)
                      if order <= se.MAX_STRATA_ORDER else None)
    except ValueError as exc:
        raise _CliError(str(exc))
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
        certs.append({"check": "oracle-match",
                      "value": census == direct, "expected": True,
                      "pass": census == direct})
        if args.mode == "mult":
            notes.append(_SIGN_NOTE)
    results["coefficients"] = (results["direct"] if args.method == "direct"
                               else results["census"])
    code = 0 if all(c["pass"] for c in certs) else 2
    return ({"mode": args.mode, "method": args.method,
             "coeffs": args.coeffs, "order": order},
            results, certs, notes, code)


# ---------------------------------------------------------------------------
# verification suite


def _verify_chambers(n, rng, certs):
    cc = hs.chamber_complex(min(n, 5))
    counts = {}
    for ch in cc.chambers:
        counts[ch.dim] = counts.get(ch.dim, 0) + 1
    euler = sum((-1) ** d * c for d, c in counts.items())
    certs.append({"check": "chamber-euler", "value": euler,
                  "expected": 1, "pass": euler == 1})
    if cc.n == 5:
        certs.append({"check": "chamber-counts-n5",
                      "value": {str(d): counts[d] for d in sorted(counts)},
                      "expected": {"0": 20, "1": 110, "2": 240, "3": 225,
                                   "4": 76},
                      "pass": counts == {0: 20, 1: 110, 2: 240, 3: 225,
                                         4: 76}})
    sample = rng.sample(cc.chambers, min(10, len(cc.chambers)))
    ok = all(cc.arrangement.signs_at(ch.witness) == ch.signs for ch in sample)
    certs.append({"check": "witness-signs", "value": ok, "expected": True,
                  "pass": ok})
    polys = hs.enumerate_admissible(cc.n)
    if cc.n == 5:
        kinds = [sum(1 for p in polys if p.kind == k)
                 for k in ("FULL", "SECTION", "CUTS")]
        certs.append({"check": "admissible-counts-n5", "value": kinds,
                      "expected": [1, 10, 35], "pass": kinds == [1, 10, 35]})
    interior = [ch for ch in cc.chambers if not ch.on_boundary]
    omega_ok = all(hs.omega_set(ch, polys) for ch in
                   rng.sample(interior, min(6, len(interior))))
    certs.append({"check": "omega-nonempty-interior", "value": omega_ok,
                  "expected": True, "pass": omega_ok})


def _verify_weights(n, rng, certs):
    lin = wt.Linearisation([Fraction(1, 2), Fraction(2, 3), Fraction(5, 18),
                            Fraction(5, 18), Fraction(5, 18)])
    status, block, total = wt.stability_report(
        lin, wt.parse_partition("{1,2}|{3}|{4}|{5}"))
    ok = (status == wt.UNSTABLE and block == (1, 2)
          and total == Fraction(7, 6))
    certs.append({"check": "stability-example",
                  "value": {"status": status, "total": _fmt_frac(total)},
                  "pass": ok})
    cc = hs.chamber_complex(5)
    tops = [c for c in cc.chambers if c.dim == 4 and not c.on_boundary]
    sample = rng.sample(tops, 6)
    ok = all(len(wt.xi(c)) == 1 for c in sample)
    certs.append({"check": "xi-unique-top-cells", "value": ok,
                  "expected": True, "pass": ok})
    example_point = (Fraction(3, 5), Fraction(1, 3), Fraction(2, 5),
                   Fraction(1, 3), Fraction(1, 3))
    ch = cc.locate(example_point)
    image = wt.xi(ch)
    certs.append({"check": "xi-facet-example",
                  "value": {"dim": ch.dim, "xi": len(image),
                            "covers": wt.facet_cover_count(ch, 1)},
                  "pass": ch.dim == 3 and len(image) >= 2
                  and wt.facet_cover_count(ch, 1) == 2})
    fine = wt.fine_chambers(4)
    certs.append({"check": "fine-chambers-n4", "value": len(fine),
                  "expected": 27, "pass": len(fine) == 27})


def _verify_strata(n, rng, certs):
    for m in range(4, min(n, 6) + 1):
        chi = st.dm_strata(m).chi_strata_sum()
        certs.append({"check": "dm-chi-%d" % m, "value": chi,
                      "expected": st.chi_mbar(m),
                      "pass": chi == st.chi_mbar(m)})
        lm = st.lm_census(m).chi
        certs.append({"check": "lm-chi-%d" % m, "value": lm,
                      "expected": factorial(m - 2),
                      "pass": lm == factorial(m - 2)})
    labels = st.lm_point_label_census_n5()
    certs.append({"check": "lm-point-labels-n5", "value": labels["total"],
                  "expected": 13, "pass": labels["total"] == 13})
    for m in (5, 6, 7):
        eps = Fraction(1, 2 * (m - 2))
        divs = st.reduction_divisors((1,) * m, (1, 1) + (eps,) * (m - 2))
        wc = st.wonderful_divisor_census(m)
        certs.append({"check": "wonderful-vs-reduction-%d" % m,
                      "value": wc.total, "expected": len(divs),
                      "pass": wc.total == len(divs)})


def _verify_series(n, rng, certs):
    ok = True
    for _ in range(3):
        coeffs = [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(6)]
        s = se.ExpSeries(coeffs)
        ok = ok and se.mult_inverse_permutohedral(s) == se.mult_inverse_direct(s)
    certs.append({"check": "mult-oracle-match", "value": ok,
                  "expected": True, "pass": ok})
    ok = True
    for _ in range(3):
        coeffs = [0, 1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(4)]
        s = se.ExpSeries(coeffs)
        ok = ok and se.comp_inverse_strata(s) == se.comp_inverse_direct(s)
    certs.append({"check": "comp-oracle-match", "value": ok,
                  "expected": True, "pass": ok})
    euler_ok = all(se.euler_interior(m) == (-1) ** m for m in range(7))
    certs.append({"check": "euler-interior-law", "value": euler_ok,
                  "expected": True, "pass": euler_ok})


def _cmd_verify(args):
    rng = random.Random(args.seed)
    certs = []
    suites = (("chambers", "weights", "strata", "series")
              if args.suite == "all" else (args.suite,))
    runners = {
        "chambers": _verify_chambers,
        "weights": _verify_weights,
        "strata": _verify_strata,
        "series": _verify_series,
    }
    for name in suites:
        runners[name](args.n, rng, certs)
    passed = sum(1 for c in certs if c["pass"])
    results = {
        "suites": list(suites),
        "checks": len(certs),
        "passed": passed,
        "all_green": passed == len(certs),
    }
    code = 0 if passed == len(certs) else 2
    return ({"suite": args.suite, "n": args.n, "seed": args.seed},
            results, certs, [], code)


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
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return payload


def load_census(path):
    with open(path) as fh:
        payload = json.load(fh)
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
    if not args.save and not args.check:
        raise _CliError("census needs --save PATH or --check PATH")
    notes = []
    if args.space == "lm" and args.n == 5:
        notes.append(_LM_NOTE)
    if args.save:
        payload = save_census(args.save, args.space, args.n)
        results = {"saved": args.save, "census": payload["census"]}
        return ({"space": args.space, "n": args.n}, results, [], notes, 0)
    payload = load_census(args.check)
    if payload["space"] != args.space or payload["n"] != args.n:
        raise _CliError("census file is for --space %s --n %r"
                        % (payload["space"], payload["n"]))
    fresh, _certs = _census_payload(args.space, args.n)
    match = fresh == payload["census"]
    certs = [{"check": "census-match", "value": match, "expected": True,
              "pass": match}]
    results = {"checked": args.check, "match": match}
    return ({"space": args.space, "n": args.n}, results, certs, notes,
            0 if match else 2)


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    parser = _Parser(prog="chamberkit",
                     description="exact chamber, stability, strata and "
                                 "series computations")
    parser.add_argument("--format", choices=("json", "table"),
                        default="json")
    parser.add_argument("--out", help="also write the JSON report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chambers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--interior-only", action="store_true")
    p.add_argument("--list", action="store_true")
    p.add_argument("--locate", metavar="POINT")
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("admissible")
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--n", type=int)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("strata")
    p.add_argument("--space", choices=("dm", "lm"), required=True)
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--order", type=int)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify")
    p.add_argument("--suite",
                   choices=("all", "chambers", "weights", "strata",
                            "series"), default="all")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census")
    p.add_argument("--space", choices=("dm", "lm"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--save", metavar="PATH")
    p.add_argument("--check", metavar="PATH")
    p.set_defaults(func=_cmd_census)

    return parser


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    inputs, results, certs, notes, code = args.func(args)
    report = _report(args.command, inputs, results, certs, notes)
    text = _render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return text, code


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
