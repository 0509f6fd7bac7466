import argparse
import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from chamberkit.cli import _build_parser, main, run
from chamberkit.ratutil import parse_vector
from chamberkit.strata import dm_strata

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
    assert main(["strata", "--space", "dm", "--n", "9"]) == 1
    assert main(["invert", "--mode", "comp", "--method", "strata",
                 "--coeffs", "0,1", "--order", "13"]) == 1
    assert main(["nonsense"]) == 1


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
    assert path.read_text() == capsys.readouterr().out
    assert json.loads(path.read_text())["results"]["total"] == 53
    assert main(["--format", "table"] + argv) == 0
    assert "results.total: 53" in capsys.readouterr().out
    assert json.loads(path.read_text())["results"]["total"] == 53


def test_chamber_guard_n7(capsys):
    assert main(["chambers", "--n", "7"]) == 1
    _one_error(capsys)
    assert main(["omega", "--point", ",".join(["2/7"] * 7)]) == 1
    _one_error(capsys)


def test_parse_vector_rejects_empty_fields(capsys):
    for text in ("1,,2", "1,2,", ",1,2"):
        with pytest.raises(ValueError):
            parse_vector(text)
    assert parse_vector(" 1, 2 ") == (1, 2)
    assert main(["invert", "--mode", "mult", "--coeffs", "1,,2"]) == 1
    _one_error(capsys)


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
    assert isinstance(json.loads(out.getvalue()), dict)
