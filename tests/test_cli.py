import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shlex
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chamberkit import cache
from chamberkit import cli
from chamberkit import weights as wt
from chamberkit.cli import _build_parser, _render, _report, main, run
from chamberkit.hypersimplex import enumerate_admissible
from chamberkit.ratutil import parse_int, parse_vector
from chamberkit.strata import dm_strata, permutohedron_faces

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_json(argv):
    text, code = run(argv)
    return json.loads(text), code


def test_stability_example():
    report, code = run_json(["stability", "--weights",
                             "1/2,2/3,5/18,5/18,5/18",
                             "--partition", "{1,2}|{3}|{4}|{5}"])
    assert code == 0
    assert report["results"]["status"] == "UNSTABLE"
    cert = report["certificates"][0]
    assert cert["value"] == {"block": "{1,2}", "total": "7/6"}
    assert report["results"]["classification"]["kind"] == "TYPICAL"


def test_stability_profile_flag():
    report, code = run_json(["stability", "--weights", "1/2,1/2,1/2,1/2",
                             "--profile"])
    assert code == 0
    assert len(report["results"]["semistable_profile"]) == 10


def test_divisors_example():
    report, code = run_json(["divisors", "--from", "1,1,1,1,1,1,1",
                             "--to", "1,1,1/20,1/20,1/20,1/20,1/20"])
    assert code == 0
    assert report["results"]["count"] == 16
    assert report["results"]["by_i_size"] == {"3": 10, "4": 5, "5": 1}
    assert any(c["check"] == "wonderful-total" and c["pass"]
               for c in report["certificates"])
    assert [n["topic"] for n in report["notes"]] == ["divisor-factor-order"]


@pytest.mark.parametrize("to", ["1,1,1,1,1", "1,1,1/3,1/3,1/3,1/3",
                                "1,1,1/4,1/4,1/4,1/4,1/4"])
def test_divisors_heavy_light_beyond_wonderful(to):
    # light points weighing more than 1 together: no wonderful certificate
    n = to.count(",") + 1
    report, code = run_json(["divisors", "--from", ",".join(["1"] * n),
                             "--to", to])
    assert code == 0
    assert report["certificates"] == []
    assert report["notes"] == []


@pytest.mark.parametrize("n", [5, 6, 7])
def test_divisors_heavy_light_wonderful_certificate(n):
    # eps <= 1/(n - 2): the certificate is attached and passes
    for eps in ("1/%d" % (n - 2), "1/%d" % (4 * (n - 2))):
        report, code = run_json(["divisors", "--from", ",".join(["1"] * n),
                                 "--to", ",".join(["1", "1"] + [eps] * (n - 2))])
        assert code == 0
        assert [(c["check"], c["pass"]) for c in report["certificates"]] == \
            [("wonderful-total", True)]


@pytest.mark.parametrize("argv,digest", [
    ("chambers --n 5 --list",
     "2acede5cad964904dbffad7af4107704afd0dea969aab2cafb7c1ad62fb3ed87"),
    ("chambers --n 6 --interior-only --list",
     "5f1f8012da34f9cd63e29fc5b5a55fb9a3c70bee0248be438b6e7ffd08bd7096"),
])
def test_chamber_listing_reports_pinned(argv, digest):
    # sha256 of the report text before the bit-parallel finish of the build;
    # the first request builds and renders the listing, the second reuses
    # its stored text
    cli._listing.cache_clear()
    for _ in range(2):
        text, code = run(argv.split())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_warm_listing_is_rendered_once(monkeypatch):
    # a warm --list request writes the stored text of the listing: the
    # renderer's calls do not grow with its 53 (n = 4) or 671 (n = 5) entries
    real = cli._json_text
    calls = []

    def counting(obj, indent):
        calls.append(obj)
        return real(obj, indent)

    counts = []
    for n in ("4", "5"):
        argv = ["chambers", "--n", n, "--list"]
        text = run(argv)
        monkeypatch.setattr(cli, "_json_text", counting)
        del calls[:]
        assert run(argv) == text
        monkeypatch.setattr(cli, "_json_text", real)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 20


def test_listing_text_at_other_depths(tmp_path):
    listing = cli._listing(5, False)
    plain = list(listing)
    for tree, copy in ((listing, plain),
                       ({"a": [{"b": listing}]}, {"a": [{"b": plain}]}),
                       ([listing, {"c": listing}], [plain, {"c": plain}])):
        for _ in range(2):
            assert _render(tree, "json") == _oracle(tree) == _oracle(copy)
            assert _render(tree, "table") == _render(copy, "table")
    # --format table lists the rows of the plain entries, and --out writes
    # the JSON report
    argv = ["chambers", "--n", "5", "--list"]
    args = _build_parser().parse_args(argv)
    report = _report(args.command, *args.func(args))
    report["results"]["chambers"] = plain
    path = tmp_path / "report.json"
    assert run(["--format", "table", "--out", str(path)] + argv) == \
        (_render(report, "table"), 0)
    assert path.read_text() == _oracle(report)


@pytest.mark.parametrize("n,digest", [
    (4, "c223e7177061173a9365a17afcb7a28df0c5d635de73eb5e2de47949c66e3254"),
    (5, "9101a3b7e4c877ebc9f275edf91a73566e06122704df3fe58ecedce3c4e731f3"),
    (6, "e89fb76ce8b7bca30bd089ff5aac511efec9c36a449d41c874212b89e519a87c"),
])
def test_admissible_reports_pinned(n, digest):
    # sha256 of the report text before the wall list moved into hypersimplex;
    # the SECTION and CUTS entries come in wall order
    text, code = run(["admissible", "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


_MULT_COEFFS = "1,1/2,-2/3,3/4,-4/5,5/6,-6/7,7/8,-8/9,9/10".split(",")


def _mult_argv(order):
    return ("invert --mode mult --method strata --coeffs %s --order %d"
            % (",".join(_MULT_COEFFS[:order + 1]), order))


def _divisors_argv(n):
    return ("divisors --from %s --to 1,1,%s"
            % (",".join(["1"] * n), ",".join(["1/%d" % (n - 2)] * (n - 2))))


@pytest.mark.parametrize("argv,digest", [
    ("strata --space dm --n 4",
     "b7bbeec1222dd81c8d1f54bed44592bcd035afd731ceaaa8488f33167c693193"),
    ("strata --space dm --n 4 --list",
     "bee7bbb3db4c7ccb104251811f08b6c2647df25103932b38d5f3e7a2786091bb"),
    ("strata --space dm --n 5",
     "94167ca4fdaa443022f3e9b00003940ef631856ea1efd6e71b67cbe3e8697ac0"),
    ("strata --space dm --n 5 --list",
     "55f83c9e9be33b3b07ebde47e117ba4644d832c151c03bd8970169ac24002977"),
    ("strata --space dm --n 6",
     "cca8b084a5fc8bf702c8c4bd8c97e02e7ce3815f4ef0d7741e7e5ce20f159b6d"),
    ("strata --space dm --n 6 --list",
     "6c7008d5630b84b1f63df85ae32112f2ed2ffb45bd875c3efa8529791b1f22ee"),
    ("strata --space dm --n 7",
     "0fa4652061e06df79b41184f0a5f8e2cca2a6f77fd55094fcdf030dd8a4589b9"),
    ("strata --space dm --n 7 --list",
     "82dde6088d40914d1e80f312a08b2968beae32b9f99b2e1bda9bf23d512153c3"),
    ("strata --space dm --n 8",
     "42e6f91599cae8e047bc23ef42d72ea4149bb5aa6787a50c5cf4078578220486"),
    ("strata --space dm --n 8 --list",
     "69aaf896f3e4c129d4516d6112933f0d64f13a6aeeb1628bd09d5e838c274165"),
    ("census --space dm --n 8 --save PATH",
     "7c5a28ed65e6099d005a35f9ec4a1de07ed479ecf529a83d8bebb133e348e440"),
    (_divisors_argv(5),
     "c3fd442018d99d526ab6e45091aa171acfed70a5c78f36ad7ac9d5ab3ab49a00"),
    (_divisors_argv(6),
     "de18bb5cc556d7f936a0f9eb8430ffa9783bc0447fc92345023f0a674bece3b3"),
    (_divisors_argv(7),
     "19a71c4237bb843632df676d664ad6b447ef41cbcc4c3f2c07fdbf3e752d09a8"),
    ("strata --space lm --n 4",
     "a9cf3890b57132b1f526ba6e498c0254a397c7a4d293a8940872f6ee5b6ea8ee"),
    ("strata --space lm --n 4 --list",
     "f169cb84a94a83a9c3fdbd9f9ba3ed9df9f67ea171e4aa519328a5ca3547f751"),
    ("strata --space lm --n 5",
     "fd0c397d3163bd5796786bdaed6ab2f9936d0293cfc3e09361e57d6ddeadc328"),
    ("strata --space lm --n 5 --list",
     "ffe31c3e21ea13eded3aa8b4f28febb2e95f7a40aaf3d7b892b04bdc3f46301b"),
    ("strata --space lm --n 6",
     "b7a779e466eebe10d0fecfe7f8d3da2591d9901b7114fa4f81bffc00afdfb350"),
    ("strata --space lm --n 6 --list",
     "1c576bab3dd6c3b246181349a2530207c7d0b2f94338d6e1920bbdae5924681e"),
    ("strata --space lm --n 7",
     "434f4ff35ab744bc6e9ae8987692ee92d0d63a6a8cd090a1f32e5f1a2f5fb348"),
    ("strata --space lm --n 7 --list",
     "0e389a72bb7becceeaaa82993e15b36750d618e723f8e5ae327fe39b40c76d58"),
    ("strata --space lm --n 8",
     "d7ed56c4c4407abc362b83f9b80350a3ea283af9f912178bb4a119f3c76b3f5a"),
    ("strata --space lm --n 8 --list",
     "50bc6cab13efcad1116b612cc3ef24a2e7ba33025563a912c03add4d9d50b734"),
    ("census --space lm --n 8 --save PATH",
     "f906fca45599685705ce84fb00bdc684c6552bf9cdf2148499d6a06e80211468"),
    (_mult_argv(2),
     "8c014bd0afdf998650e2a9900aa4f28bb63d1cbf9f6d341139c4a79ed975043c"),
    (_mult_argv(3),
     "515493369c64729603fcfdfdfbf94856c7e1189cd2936972be9b54cadc0bd5d7"),
    (_mult_argv(4),
     "1f82c7eae97bbf17edb26d68b11afaadf3ae2479d7897689a88798709d761570"),
    (_mult_argv(5),
     "37101ccca5ce8102e6ed74fda6645ca76538af8687f25ee9acd403cd9b9e77c4"),
    (_mult_argv(6),
     "8a5597606e7dbc9420fc27132a5f3914840a1bcd95ae146ddf78afb10850d207"),
    (_mult_argv(7),
     "13fe112bf041582aaf8b82812eb7d77c35e6995e78b51bd02ebd7b1979f2941b"),
    (_mult_argv(8),
     "6bfb2de690262c4609921027d6f56de1d67495b36a441955b47c027abb9a7f37"),
    (_mult_argv(9),
     "3789664bf5906c2029b7370bf269ac2c218f2ed099b8565fa96e24a2fc51b650"),
])
def test_census_reports_pinned(argv, digest, tmp_path):
    # sha256 of the report text as printed while the chain census walked
    # every chain and the face census every composition (lm and invert
    # rows), and while each strata function kept its own size guard (dm and
    # divisors rows); for --save, of the file written
    path = tmp_path / "census.json"
    text, code = run(argv.replace("PATH", str(path)).split())
    assert code == 0
    if "--save" in argv:
        text = path.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The README point, then seeded points of D(4) and of D(5) on 0, 1 and 2
# subset-sum walls.
_PIN_POINTS = ("3/5,1/3,2/5,1/3,1/3",
               "1/2,9/32,11/16,17/32", "12/17,13/14,1/14,5/17",
               "5/12,5/12,7/12,7/12",
               "56/75,8/15,16/75,12/25,2/75", "12/29,6/29,11/29,1/4,3/4",
               "5/6,1/6,85/234,55/117,1/6")
_LOCATE_N6 = ("3/7,11/63,22/63,13/63,26/63,3/7",
              "1/3,27/74,11/37,2/3,17/74,4/37",
              "1/3,5/51,6/17,2/3,1/3,11/51")
_COMP_COEFFS = ("0,1,1/2,1/3,1/4", "0,1,-3/4,5/2,-7/9,1/6,-2,4/5")
_PROFILE_N7 = ",".join(["2/7"] * 7)
_PROFILE_N9 = "1/2,1/2,1/2,1/8,1/8,1/16,1/16,1/16,1/16"

_QUERY_PINS = [
    ("xi --point " + _PIN_POINTS[0],
     "0edec73a4682ed70e12daa09af0b704e4b15b90b142309319d089c6142bd960f"),
    ("omega --point " + _PIN_POINTS[0],
     "b97fb49c59ec6b587a5dec0483f8a89c24649bdfc8476eb1cf4eedb36c9e6b76"),
    ("xi --point " + _PIN_POINTS[1],
     "c6ee3c0504481498babe8a6a0222c562ad524fb27787371741abffaa47377c1c"),
    ("omega --point " + _PIN_POINTS[1],
     "47630dc2cea1caaa69f938aa2bdc0a4e409e1dfd81b419d29593ad84b5a48054"),
    ("xi --point " + _PIN_POINTS[2],
     "c2c664cb952280443d21282eacdc6114db9a9352a84de84717153cc997bf11e4"),
    ("omega --point " + _PIN_POINTS[2],
     "6965b8360c3a02474b6f1d91c322492c07f9a22edaa6e5c8a48f669a793a151b"),
    ("xi --point " + _PIN_POINTS[3],
     "fadc5b7622833f90ab9cc85c4efd7423509bc2beab6ae466181ee0e65a70eeba"),
    ("omega --point " + _PIN_POINTS[3],
     "c998fae45774b2cb84fb4c088ba1bd9316e027f38134b4372a13e8333f104eac"),
    ("xi --point " + _PIN_POINTS[4],
     "4ed3cf2896814094f818a4e31e3926083533287022939bc3918fc5255a997251"),
    ("omega --point " + _PIN_POINTS[4],
     "0f8484206eb4ff3bd0a9efe3a7db188f001df7f78083d98cb03d9abdbcb0dca8"),
    ("xi --point " + _PIN_POINTS[5],
     "0ab50109d880ebf1b73b5fcb842bcf0622e692074594134905c615adaf1d3951"),
    ("omega --point " + _PIN_POINTS[5],
     "e0cdc5b39d7d35a1b5dcb0373c0a0c3bb7767124a314c3aae88afb9504675653"),
    ("xi --point " + _PIN_POINTS[6],
     "6fed9831070195222874bdd95826fc6a56ee9b7a9a4d0c4e2d3751a2d2439a49"),
    ("omega --point " + _PIN_POINTS[6],
     "4f07a56df4f1a33c3fbef928de350cdecf2d71d461f25c169fa9826227e6d302"),
    ("chambers --n 6 --interior-only --locate " + _LOCATE_N6[0],
     "1c649dca993875d9d3f36ab33f53b123163abf8a78cbfc1e7eb7aa45da36db4c"),
    ("chambers --n 6 --interior-only --locate " + _LOCATE_N6[1],
     "a7d2a1ff1bcdcb8655a676280507fe0248fa2a7a69c03414ec58947a612fdc24"),
    ("chambers --n 6 --interior-only --locate " + _LOCATE_N6[2],
     "4a177e66f56fd99685115d60ba226f766de2401e74df89c5c1019e3e4b5559ff"),
    ("stability --profile --weights " + _PROFILE_N7,
     "cc147737d51c101781c4435a36fcb9cf1859987177a117d879ecb2bf88850fcb"),
    ("stability --profile --weights " + _PROFILE_N9,
     "3524d3150094c12114e289a9f4bebaf5c08465ee36b9ef6039854380d094769b"),
] + [
    ("invert --mode comp --method direct --coeffs %s --order %d"
     % (_COMP_COEFFS[i // 4], 9 + i % 4), digest)
    for i, digest in enumerate((
        "20f084685a6d0dbcd044497ea41a4364658948fcea6d674dc59bb98a5b0745fa",
        "ba47f38fa3496fd2e57514ec276d877b67df0fbb4552b0800e1c0bf9e07973ed",
        "9c52488a5c5eaf8caabf3762c86a16eeed0b43d5dbc3f52e7c838361d47d599b",
        "817c692e7ad1cb0ae43c2927bbe85eb28e9d84014aec74525c9bad02fa6b10ec",
        "bed1f5193813f66fa270b1b0d22316238387e877bb1f7d3d3efd7d836686265d",
        "aa6f24f3d97117acbfbe6373d3b2eecbc9109bb5c6d34f81110c63dbde8c6e05",
        "fd8f68fececde921eeefa4a6797a5c44b0aae1468303ba78416c395ae06eb052",
        "119299583b07b2cf341e30a089e4fe92b1c9d7065bf127480a4a2e08e555cb5d"))
]


def _stdout_digest(argv):
    """sha256 of what main prints for argv, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("argv,digest", _QUERY_PINS)
def test_query_reports_pinned(argv, digest):
    # sha256 of stdout as printed while point tests took Fraction dot
    # products, the witnesses were formatted through Fraction twice and the
    # direct compositional inverse re-composed the series for every order
    assert _stdout_digest(argv.split()) == (digest, 0)


@pytest.mark.parametrize("first,first_code", [
    ("--format table chambers --n 4", 0),
    ("--out PATH chambers --n 4", 0),
    ("chambers --n 4 --list", 0),
    ("strata --space lm --n 5 --list", 0),
    ("stability --weights 1/2,1/2,1/2,1/2 --profile", 0),
    ("stability --weights 1/2,1/2", 1),
])
def test_parser_reuse_changes_nothing(first, first_code, tmp_path,
                                      monkeypatch):
    # one parser serves every request of a process; no request may leave
    # anything behind in it for the next
    assert _build_parser() is _build_parser()
    path = tmp_path / "report.json"
    argv = first.replace("PATH", str(path)).split()
    assert _stdout_digest(argv)[1] == first_code
    plain, digest = _QUERY_PINS[0]
    assert _stdout_digest(plain.split()) == (digest, 0)
    reused = _stdout_digest(["chambers", "--n", "4"])
    fresh = _build_parser.__wrapped__()
    assert vars(_build_parser().parse_args(plain.split())) == \
        vars(fresh.parse_args(plain.split()))
    monkeypatch.setattr("chamberkit.cli._build_parser", lambda: fresh)
    assert _stdout_digest(["chambers", "--n", "4"]) == reused


def test_cached_counts_misses_only():
    @cache.cached
    def square(x):
        return x * x

    start = cache.builds
    assert (square(3), square(3), square(4)) == (9, 9, 16)
    assert cache.builds - start == 2
    assert square.cache_info().hits == 1


def test_run_freezes_the_heap_after_a_build_only():
    # a request that fills a per-process cache collects and freezes what is
    # alive, so that later full collections skip it; a warm one does not
    argv = ["invert", "--mode", "mult", "--method", "strata",
            "--coeffs", "1,1,1/2,1/3", "--order", "3"]
    text, code = run(argv)
    builds, frozen = cache.builds, gc.get_freeze_count()
    assert run(argv) == (text, code)
    assert cache.builds == builds and gc.get_freeze_count() <= frozen
    permutohedron_faces.cache_clear()
    assert run(argv) == (text, code)
    assert cache.builds > builds
    misses = permutohedron_faces.cache_info().misses
    built = permutohedron_faces(2)  # the census the request built
    assert permutohedron_faces.cache_info().misses == misses
    # frozen objects are in no generation of the collector
    assert gc.is_tracked(built)
    assert not any(o is built for o in gc.get_objects())


def test_invert_comp_strata():
    for order in ("6", "12"):
        report, code = run_json(["invert", "--mode", "comp", "--method",
                                 "strata", "--coeffs", "0,1,1,1",
                                 "--order", order])
        assert code == 0
        assert report["results"]["direct"] == report["results"]["census"]
        assert report["results"]["coefficients"] == report["results"]["census"]
        assert report["certificates"][0]["check"] == "oracle-match"
        assert report["certificates"][0]["pass"]


def test_invert_mult_both_vectors():
    report, code = run_json(["invert", "--mode", "mult", "--method",
                             "strata", "--coeffs", "1,1,1,1", "--order", "8"])
    assert code == 0
    assert report["results"]["direct"] == report["results"]["census"]
    assert any(n["topic"] == "osp-sign-convention" for n in report["notes"])


def test_xi_example():
    report, code = run_json(["xi", "--point", "3/5,1/3,2/5,1/3,1/3"])
    assert code == 0
    res = report["results"]
    assert res["chamber"]["dim"] == 3
    assert res["chamber"]["zero_walls"] == ["sum{1,3}=1"]
    assert res["zero_pairs"] == 1
    assert res["xi_size"] >= 2
    assert res["facet_cover_count"] == 2


@pytest.mark.parametrize("point", [_PIN_POINTS[0], _PIN_POINTS[4]])
def test_xi_report_runs_the_local_cone_once(monkeypatch, point):
    # the README point, on one wall, and a point of D(5) on none: xi, the
    # zero pairs and the facet covers come from one local cone
    calls = []
    cone = wt._local_cone

    def counted(vectors):
        calls.append(vectors)
        return cone(vectors)

    monkeypatch.setattr(wt, "_local_cone", counted)
    assert run(["xi", "--point", point])[1] == 0
    assert len(calls) == 1


def test_omega_example():
    report, code = run_json(["omega", "--point", "3/5,1/3,2/5,1/3,1/3"])
    assert code == 0
    ids = report["results"]["omega"]
    assert "FULL" in ids and "SECTION{1,3}" in ids


def test_chambers_census_and_locate():
    report, code = run_json(["chambers", "--n", "4",
                             "--locate", "1/2,1/2,1/2,1/2"])
    assert code == 0
    assert report["results"]["counts_by_dim"] == \
        {"0": 7, "1": 18, "2": 20, "3": 8}
    assert report["results"]["located"]["dim"] == 0
    assert report["certificates"][0]["pass"]


def test_admissible_counts():
    report, code = run_json(["admissible", "--n", "5"])
    assert code == 0
    assert report["results"]["counts"] == {"FULL": 1, "SECTION": 10,
                                           "CUTS": 35}
    assert len(report["results"]["rejected_cut_families"]) == 10


def test_strata_reports():
    report, code = run_json(["strata", "--space", "dm", "--n", "5"])
    assert code == 0
    assert report["results"]["census"]["by_codim"] == {"0": 1, "1": 10,
                                                       "2": 15}
    report, code = run_json(["strata", "--space", "lm", "--n", "5",
                             "--list"])
    assert code == 0
    assert report["results"]["census"]["by_dim"] == {"0": 13, "1": 9, "2": 1}
    assert [n["topic"] for n in report["notes"]] == ["lm-point-strata"]
    strata = report["results"]["strata"]
    assert len(strata) == 23
    assert sum(1 for s in strata if s["outgrowth"] is None) == 1


@pytest.mark.parametrize("space,total", [("dm", 188666182784),
                                         ("lm", 25928015368)])
def test_census_reaches_n13(space, total, tmp_path, capsys):
    # counted, not listed, so the census runs past the listing cap of 8
    report, code = run_json(["strata", "--space", space, "--n", "13"])
    assert code == 0 and report["results"]["census"]["total"] == total
    for n in ("13", "14"):
        assert main(["strata", "--space", space, "--n", n, "--list"]) == 1
        assert _one_error(capsys) == "n must be an integer with 4 <= n <= 8"
    path = str(tmp_path / "census13.json")
    assert run_json(["census", "--space", space, "--n", "13",
                     "--save", path])[1] == 0
    report, code = run_json(["census", "--space", space, "--n", "13",
                             "--check", path])
    assert code == 0 and report["results"]["match"]


def test_dm_census_report_matches_trees():
    # the report counts by recursion; the explicit trees must agree
    for n in range(4, 8):
        census = run_json(["strata", "--space", "dm", "--n", str(n)])[0]
        trees = dm_strata(n)
        assert census["results"]["census"] == {
            "by_codim": {str(k): v for k, v in sorted(trees.by_codim.items())},
            "by_type": dict(sorted(trees.by_type.items())),
            "total": trees.total,
            "chi": trees.chi_strata_sum(),
        }


def test_verify_suite():
    report, code = run_json(["verify", "--suite", "strata", "--n", "5"])
    assert code == 0
    assert report["results"]["all_green"]


def test_byte_determinism():
    a = run(["strata", "--space", "lm", "--n", "5", "--list"])
    b = run(["strata", "--space", "lm", "--n", "5", "--list"])
    assert a == b
    a = run(["verify", "--suite", "series", "--seed", "7"])
    b = run(["verify", "--suite", "series", "--seed", "7"])
    assert a == b


def test_table_format():
    text, code = run(["--format", "table", "chambers", "--n", "4"])
    assert code == 0
    assert "results.total: 53" in text


def test_input_errors(capsys):
    assert main(["stability", "--weights", "junk"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "error" in out
    assert main(["stability", "--weights", "1/2,1/2"]) == 1
    capsys.readouterr()
    assert main(["chambers", "--n", "3"]) == 1
    assert _one_error(capsys) == "n must be an integer >= 4"
    assert main(["invert", "--mode", "comp", "--coeffs", "0,1,1",
                 "--order", "1"]) == 1
    assert main(["census", "--space", "dm", "--n", "5"]) == 1
    assert main(["xi", "--point", "1,1,0,0,0"]) == 1
    assert main(["strata", "--space", "dm", "--n", "5", "--census"]) == 1
    assert main(["strata", "--space", "dm", "--n", "14"]) == 1
    capsys.readouterr()
    assert main(["strata", "--space", "dm", "--n", "9", "--list"]) == 1
    assert _one_error(capsys) == "n must be an integer with 4 <= n <= 8"
    assert main(["invert", "--mode", "comp", "--method", "strata",
                 "--coeffs", "0,1", "--order", "13"]) == 1
    assert main(["nonsense"]) == 1


def test_size_caps_divisors_and_stability(capsys):
    # n = 16 walks every subset and finishes; n = 17 is refused up front
    ones = ",".join(["1"] * 16)
    assert main(["divisors", "--from", ones, "--to", ones]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["count"] == 0
    ones += ",1"
    assert main(["divisors", "--from", ones, "--to", ones]) == 1
    assert _one_error(capsys) == "reduction divisors guarded to n <= 16"
    # even numerators over 17 never sum to 1: typical, so no early exit
    typical = ",".join(["2/17"] * 15 + ["4/17"])
    assert main(["stability", "--weights", typical]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["classification"]["kind"] == "TYPICAL"
    assert main(["stability", "--weights", ",".join(["2/17"] * 17)]) == 1
    assert _one_error(capsys) == "classification guarded to n <= 16"


def test_invert_order_checked_before_padding(capsys):
    start = time.perf_counter()
    assert main(["invert", "--mode", "mult", "--coeffs", "1,1",
                 "--order", "1000000"]) == 1
    assert time.perf_counter() - start < 0.05
    assert _one_error(capsys) == "order capped at 12"


def _failing_report(monkeypatch, target, fake, argv):
    """Report and exit code with one library function replaced."""
    monkeypatch.setattr(target, fake)
    report, code = run_json(argv)
    assert set(report) == {"schema_version", "command", "inputs", "results",
                           "certificates", "notes"}
    return report, code


def test_failed_certificate_exits_2(monkeypatch):
    report, code = _failing_report(
        monkeypatch, "chamberkit.hypersimplex.enumerate_admissible",
        lambda n: [p for p in enumerate_admissible(n) if p.kind != "FULL"],
        ["admissible", "--n", "5"])
    assert code == 2
    assert report["results"]["counts"] == {"FULL": 0, "SECTION": 10,
                                           "CUTS": 35}
    assert report["certificates"] == [{"check": "full-present", "value": 0,
                                       "expected": 1, "pass": False}]

    report, code = _failing_report(
        monkeypatch, "chamberkit.strata.chi_mbar", lambda n: 0,
        ["strata", "--space", "dm", "--n", "5"])
    assert code == 2
    assert report["results"]["census"]["by_codim"] == {"0": 1, "1": 10,
                                                       "2": 15}
    assert [c["pass"] for c in report["certificates"]] == [False]

    report, code = _failing_report(
        monkeypatch, "chamberkit.series.comp_inverse_strata", lambda f: f,
        ["invert", "--mode", "comp", "--coeffs", "0,1,1", "--order", "4"])
    assert code == 2
    assert report["results"]["coefficients"] == report["results"]["direct"]
    assert report["results"]["census"] == ["0", "1", "1", "0", "0"]
    assert [c["pass"] for c in report["certificates"]] == [False]


def _one_error(capsys):
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert "error" in report
    return report["error"]


def test_out_writes_the_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["--out", str(path), "chambers", "--n", "4"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert path.read_text() == stdout
    assert json.loads(stdout)["results"]["total"] == 53
    # under --format table the file holds the same bytes as the JSON stdout
    path.unlink()
    assert main(["--format", "table"] + argv) == 0
    assert "results.total: 53" in capsys.readouterr().out
    assert path.read_text() == stdout


def test_chamber_guard_n7(capsys):
    assert main(["chambers", "--n", "7"]) == 1
    _one_error(capsys)
    assert main(["omega", "--point", ",".join(["2/7"] * 7)]) == 1
    _one_error(capsys)


@pytest.mark.parametrize("command", ["xi", "omega"])
def test_point_length_errors_name_the_point(command, capsys):
    for k in (3, 7):
        assert main([command, "--point", ",".join(["2/%d" % k] * k)]) == 1
        assert _one_error(capsys) == (
            "--point has %d coordinates; a point of D(n) has n coordinates, "
            "4 <= n <= 6" % k)
    if command == "xi":
        assert main(["xi", "--n", "5", "--point", "1/2,1/2,1/2,1/2"]) == 1
        assert _one_error(capsys) == "--n 5 disagrees with the point length 4"


def test_parse_vector_rejects_empty_fields(capsys):
    for text in ("1,,2", "1,2,", ",1,2"):
        with pytest.raises(ValueError):
            parse_vector(text)
    assert parse_vector(" 1, 2 ") == (1, 2)
    assert main(["invert", "--mode", "mult", "--coeffs", "1,,2"]) == 1
    _one_error(capsys)


def test_parse_vector_reads_only_sign_and_ascii_digits(capsys):
    # int() alone would read "1_0" as 10 and "\u0663" as 3
    for text in ("1_0/2_0,1/2", "\u0663/\u0664,1/2", "1 / 2", "0x10"):
        with pytest.raises(ValueError):
            parse_vector(text)
    assert parse_vector(" +1/-2,-3/4 ") == (Fraction(-1, 2), Fraction(-3, 4))
    assert main(["stability", "--weights", "1_0/20,1/2,1/2,1/2"]) == 1
    assert _one_error(capsys) == (
        "bad rational vector '1_0/20,1/2,1/2,1/2': "
        "rationals must be given exactly as p/q, got '1_0/20'")


def test_integer_inputs_read_only_sign_and_ascii_digits(capsys):
    # int() alone would read "\u0665" as 5 and "1_0" as 10
    for text in ("1_0", "\u0665", "1 0", "0x10", "", "+"):
        with pytest.raises(ValueError):
            parse_int(text)
    assert parse_int(" -7 ") == -7 and parse_int("+12") == 12
    assert main(["chambers", "--n", "\u0665"]) == 1
    assert _one_error(capsys) == "argument --n: invalid int value: '\u0665'"
    assert main(["verify", "--suite", "series", "--seed", "1_0"]) == 1
    assert _one_error(capsys) == "argument --seed: invalid int value: '1_0'"
    assert main(["stability", "--weights", "1/2,1/2,1/2,1/2",
                 "--partition", "{\u0661,2}|{3}|{4}"]) == 1
    assert _one_error(capsys) == (
        "bad partition '{\u0661,2}|{3}|{4}': "
        "invalid literal for int() with base 10: '\u0661'")
    # inputs int() rejected keep their message; whitespace stays allowed
    assert main(["invert", "--mode", "mult", "--coeffs", "1,1",
                 "--order", "x"]) == 1
    assert _one_error(capsys) == "argument --order: invalid int value: 'x'"
    report, code = run_json(["stability", "--weights", "1/2,1/2,1/2,1/2",
                             "--partition", "{ 1 ,2}|{3}|{4}"])
    assert code == 0 and report["results"]["partition"] == "{1,2}|{3}|{4}"
    report, code = run_json(["chambers", "--n", " 4 "])
    assert code == 0 and report["inputs"]["n"] == 4


def test_input_errors_name_their_input(tmp_path, capsys):
    argv = ["stability", "--weights", "1/2,1/2,1/2,1/2", "--partition"]
    for text, reason in (
            ("{a,2}|{3}|{4}", "invalid literal for int() with base 10: 'a'"),
            ("1,2|{3}|{4}", "malformed partition block: '1,2'"),
            ("{1,2}|{2,3}|{4}", "blocks must disjointly cover 1..n")):
        assert main(argv + [text]) == 1
        assert _one_error(capsys) == "bad partition %r: %s" % (text, reason)
    # an empty value is an input, not an absent option
    assert main(argv + [""]) == 1
    assert _one_error(capsys) == (
        "bad partition '': malformed partition block: ''")
    assert main(["chambers", "--n", "4", "--locate", ""]) == 1
    assert _one_error(capsys) == (
        "bad rational vector '': empty field in rational vector ''")
    assert main(["--out", "", "chambers", "--n", "4"]) == 1
    assert _one_error(capsys) == (
        "[Errno 2] No such file or directory: ''")
    census = ["census", "--space", "dm", "--n", "5"]
    assert main(census + ["--save", ""]) == 1
    assert _one_error(capsys) == (
        "[Errno 2] No such file or directory: ''")
    assert main(census + ["--save", "", "--check", "x"]) == 1
    assert _one_error(capsys) == (
        "census takes --save PATH or --check PATH, not both")
    path = tmp_path / "census.txt"
    path.write_text("not json\n")
    assert main(["census", "--space", "dm", "--n", "5", "--check",
                 str(path)]) == 1
    assert _one_error(capsys) == (
        "census file %r is not JSON: Expecting value: line 1 column 1 "
        "(char 0)" % str(path))


def test_interior_only_locate_names_the_boundary(capsys):
    argv = ["chambers", "--n", "5", "--interior-only", "--locate"]
    assert main(argv + ["1,1,0,0,0"]) == 1
    assert _one_error(capsys) == (
        "point lies on the boundary of D(5) (x3=0, x4=0, x5=0, x1=1, x2=1), "
        "which the interior-only complex leaves out")
    assert main(argv + ["1/2,1/2,1/2,1/2,0"]) == 1
    assert _one_error(capsys) == (
        "point lies on the boundary of D(5) (x5=0), "
        "which the interior-only complex leaves out")
    # the full complex holds the boundary point, as a 0-cell
    report, code = run_json(["chambers", "--n", "5", "--locate", "1,1,0,0,0"])
    assert code == 0 and report["results"]["located"]["dim"] == 0


# one request of every subcommand
_EVERY_COMMAND = [
    "chambers --n 4 --list --locate 1/2,1/2,1/2,1/2",
    "admissible --n 4",
    "omega --point " + _PIN_POINTS[0],
    "stability --weights 1/2,1/2,1/2,1/2 --partition {1,2}|{3}|{4} --profile",
    "xi --point " + _PIN_POINTS[0],
    "strata --space lm --n 5 --list",
    "divisors --from 1,1,1,1,1 --to 1,1,1/3,1/3,1/3",
    "invert --mode comp --method strata --coeffs 0,1,1/2,1/3 --order 6",
    "verify --suite series",
    "census --space lm --n 5 --check GOLDEN/lm_strata_5.json",
]


def _every_command_argv(command):
    return command.replace("GOLDEN", GOLDEN).split()


def test_every_command_is_listed_once():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(a.split()[0] for a in _EVERY_COMMAND) == sorted(sub.choices)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", _EVERY_COMMAND)
def test_warm_report_leaves_no_reference_cycle(argv, fmt):
    # a warm request leaves nothing for the cyclic collector: with it off,
    # a full collection afterwards finds no garbage
    argv = ["--format", fmt] + _every_command_argv(argv)
    text, code = run(argv)
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == (text, code)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _oracle(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", _EVERY_COMMAND)
def test_render_matches_json_module_on_every_command(argv):
    args = _build_parser().parse_args(_every_command_argv(argv))
    report = _report(args.command, *args.func(args))
    assert _render(report, "json") == _oracle(report)


# strings and keys with non-ASCII text, quotes, backslashes and control
# characters; str-keyed and int-keyed dicts (json cannot sort the two kinds
# of key together)
_RENDER_TEXT = st.text(st.one_of(st.characters(),
                                 st.sampled_from('"\\/\x00\x1f\x7f\n\t')),
                       max_size=6)
_RENDER_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9),
    st.integers(-10 ** 30, 10 ** 30), _RENDER_TEXT,
    st.lists(_RENDER_TEXT, max_size=4))
_RENDER_TREES = st.recursive(_RENDER_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(_RENDER_TEXT, kids, max_size=4),
    st.dictionaries(st.integers(-3, 3), kids, max_size=3)), max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_RENDER_TREES)
def test_render_matches_json_module(tree):
    assert _render(tree, "json") == _oracle(tree)
    assert _render({"a": [tree, [[]], {"b": {}}]}, "json") == \
        _oracle({"a": [tree, [[]], {"b": {}}]})


class _Label(str):
    pass


def test_render_hands_other_leaves_to_json():
    # floats, subclasses of the scalar types and the keys json accepts are
    # written as json writes them; what json refuses raises its TypeError
    tree = {"f": [1.5, -0.0, 1e300, float("nan"), float("-inf")],
            "s": _Label("x\u00e9"), "t": [_Label("a"), "b"],
            "k": {1.5: 0, 2: 1}, "z": {None: 1}, "b": {True: [], False: ()}}
    assert _render(tree, "json") == _oracle(tree)
    for bad in ({"x": Fraction(1, 2)}, [object()], {(1, 2): 0}, {1: 0, "a": 1}):
        with pytest.raises(TypeError) as ours:
            _render(bad, "json")
        with pytest.raises(TypeError) as theirs:
            _oracle(bad)
        assert str(ours.value) == str(theirs.value)


def test_census_check_rejects_non_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]\n")
    assert main(["census", "--space", "dm", "--n", "5", "--check",
                 str(path)]) == 1
    _one_error(capsys)


def test_census_check_rejects_non_integer_n(tmp_path, capsys):
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"schema_version": 1, "space": "dm",
                                "n": "six", "census": {}}))
    assert main(["census", "--space", "dm", "--n", "6", "--check",
                 str(path)]) == 1
    assert _one_error(capsys) == "census file is for --space dm --n 'six'"


def test_census_roundtrip(tmp_path):
    path = str(tmp_path / "dm5.json")
    report, code = run_json(["census", "--space", "dm", "--n", "5",
                             "--save", path])
    assert code == 0
    report, code = run_json(["census", "--space", "dm", "--n", "5",
                             "--check", path])
    assert code == 0 and report["results"]["match"]

    doctored = json.load(open(path))
    doctored["census"]["total"] = 27
    json.dump(doctored, open(path, "w"))
    report, code = run_json(["census", "--space", "dm", "--n", "5",
                             "--check", path])
    assert code == 2 and not report["results"]["match"]

    doctored["schema_version"] = 99
    json.dump(doctored, open(path, "w"))
    assert main(["census", "--space", "dm", "--n", "5", "--check", path]) == 1


def test_census_save_with_check_is_refused(tmp_path, capsys):
    path = tmp_path / "lm5.json"
    assert main(["census", "--space", "lm", "--n", "5", "--save", str(path),
                 "--check", os.path.join(GOLDEN, "lm_strata_5.json")]) == 1
    assert _one_error(capsys) == \
        "census takes --save PATH or --check PATH, not both"
    assert not path.exists()
    assert main(["census", "--space", "lm", "--n", "5"]) == 1
    assert _one_error(capsys) == "census needs --save PATH or --check PATH"


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_README = os.path.join(_ROOT, "README.md")


def _readme_commands():
    """Every chamberkit line of the README's sh blocks, as argv lists."""
    commands = []
    in_sh = False
    for line in open(_README).read().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("chamberkit "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(_ROOT)
    commands = _readme_commands()
    assert len(commands) == 10
    for argv in commands:
        if "--save" in argv:
            argv[argv.index("--save") + 1] = str(tmp_path / "saved.json")
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        if argv[0] == "verify":
            assert report["results"]["checks"] == 20
    assert "`verify` re-runs twenty internal identities" in open(_README).read()


# one command per note topic of the CLI; each must emit its note
_NOTE_COMMANDS = {
    "lm-point-strata": ["strata", "--space", "lm", "--n", "5"],
    "divisor-factor-order": ["divisors", "--from", "1,1,1,1,1,1,1",
                             "--to", "1,1,1/10,1/10,1/10,1/10,1/10"],
    "osp-sign-convention": ["invert", "--mode", "mult", "--method", "strata",
                            "--coeffs", "1,1/2,1/3,1/4"],
}


def test_note_topics_named_in_readme():
    # every note the CLI can attach is named in README's "Report format"
    text = open(_README).read()
    section = text[text.index("### Report format"):]
    section = section[:section.index("\n#", 1)]
    topics = {v["topic"] for v in vars(cli).values()
              if isinstance(v, dict) and "topic" in v}
    assert topics == set(_NOTE_COMMANDS)
    for topic, argv in _NOTE_COMMANDS.items():
        assert "`%s`" % topic in section, topic
        report, code = run_json(argv)
        assert code == 0
        assert topic in [n["topic"] for n in report["notes"]], argv


def test_golden_lm5():
    path = os.path.join(GOLDEN, "lm_strata_5.json")
    report, code = run_json(["census", "--space", "lm", "--n", "5",
                             "--check", path])
    assert code == 0 and report["results"]["match"]
    payload = json.load(open(path))
    assert payload["census"]["by_dim"]["0"] == 13
    assert payload["certificates"][0]["check"] == "chi-permutohedral"


# ---------------------------------------------------------------------------
# Fuzzing argv over the parser's own vocabulary: every input ends in one JSON
# object on stdout and exit code 0, 1 or 2, never in a traceback.

# verify is slow even on valid input.  -h prints help text and --format table
# a key/value listing instead of a JSON report; --out and --save write files.
_FUZZ_SKIP_COMMANDS = {"verify"}
_FUZZ_SKIP_OPTIONS = {"-h", "--help", "--format", "--out", "--save"}


def _fuzz_vocabulary():
    """Subcommand -> its option actions, read from the CLI parser."""
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings
                   and not set(a.option_strings) & _FUZZ_SKIP_OPTIONS]
            for name, p in sub.choices.items()
            if name not in _FUZZ_SKIP_COMMANDS}


_FUZZ_COMMANDS = _fuzz_vocabulary()
_FUZZ_INTS = st.sampled_from(["-1", "0", "3", "4", "5", "x", ""])
_FUZZ_ENTRIES = st.sampled_from(["0", "1", "-1", "1/2", "1/3", "2/3", "2/5",
                                 "3/5", "1/6", "1/0", "x", "", "nan", "1e2"])
_FUZZ_TEXT = st.one_of(
    st.lists(_FUZZ_ENTRIES, max_size=5).map(",".join),
    st.sampled_from(["1/2,1/2,1/2,1/2", "3/5,1/3,2/5,1/3,1/3", "0,1,1",
                     "1,1,1,1,1", "1,1,1/3,1/3,1/3", "{1,2}|{3}|{4}|{5}",
                     "{1}|{1}", "{}", "{1,x}", "|"]))


def _fuzz_values(action):
    if action.nargs == 0:
        return st.just([])
    if action.choices:
        values = st.sampled_from(sorted(action.choices) + ["bogus"])
    else:
        values = _FUZZ_INTS if action.type is int else _FUZZ_TEXT
    return values.map(lambda v: [v])


@st.composite
def _fuzz_argv(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    actions = _FUZZ_COMMANDS[name]
    # required options mostly present, so that most inputs reach the handler
    chosen = [] if draw(st.integers(0, 9)) == 0 else [
        a for a in actions if a.required]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=3))
    argv = [name]
    for action in chosen:
        argv.append(draw(st.sampled_from(action.option_strings)))
        argv += draw(_fuzz_values(action))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_fuzz_argv())
def test_cli_fuzz_one_json_object(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    if code != 1:
        failed = any(not c["pass"] for c in report["certificates"])
        assert (code == 2) == failed
