import hashlib
import json
import time
from fractions import Fraction

import pytest
from conftest import fresh_python

from newtonkit.cli import _SUBCOMMANDS, run
from newtonkit.kottwitz import enumerate_bgmu
from newtonkit.rootdata import build_datum, fundamental_coweights


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _payload(out):
    doc = json.loads(out)
    return doc["status"], doc["payload"]


def test_hasse_subcommand(capsys):
    code, out = _capture(capsys, ["hasse", "--w", "2", "--p", "3"])
    assert code == 0
    status, payload = _payload(out)
    assert status == "ok"
    assert payload["hasse_number"] == 8
    assert payload["schema"] == "newtonkit/1"


def test_bgmu_subcommand(capsys):
    code, out = _capture(capsys, ["bgmu", "--type", "C", "--rank", "2", "--node", "2"])
    assert code == 0
    _, payload = _payload(out)
    assert len(payload["elements"]) == 3
    assert payload["mubar"] == ["1/2", "1/2"]


def test_maximal_subcommand(capsys):
    code, out = _capture(
        capsys,
        ["maximal", "--type", "B", "--rank", "3", "--node", "1", "--exclude-top"],
    )
    assert code == 0
    _, payload = _payload(out)
    assert payload["maximal"] == [["1/2", "1/2", "0/1"]]


def test_leq_subcommand_with_oracle(capsys):
    code, out = _capture(
        capsys,
        ["leq", "--type", "C", "--rank", "2",
         "--x", '["1/2", "0"]', "--y", '["1/2", "1/2"]', "--verify"],
    )
    assert code == 0
    _, payload = _payload(out)
    assert payload["leq"] is True and payload["hull_oracle"] is True


def test_slopes_and_degrees_subcommands(capsys):
    code, out = _capture(capsys, ["slopes", "--nu", '["1/2", "0"]', "--dim", "4"])
    assert code == 0
    _, payload = _payload(out)
    assert payload["slopes"] == ["1/1", "1/2", "0/1"]
    profile = json.dumps({k: payload[k] for k in ("slopes", "mults", "polarized")})
    code, out = _capture(capsys, ["degrees", "--profile", profile])
    assert code == 0
    _, payload = _payload(out)
    assert payload["d"] == ["1/1", "2/1", "2/1"]
    assert payload["delta"] == "1/8"
    code, out = _capture(capsys, ["uniqueness", "--profile", profile, "--i", "2"])
    assert code == 0
    _, payload = _payload(out)
    assert payload["unique"] is True


def test_mepsilon_and_lambdag(capsys):
    code, out = _capture(
        capsys, ["mepsilon", "--full", '["0", "0", "1", "1"]', "--p", "3"]
    )
    assert code == 0
    _, payload = _payload(out)
    assert payload["valuation"] == "3/1" and payload["count"] == "27"
    code, out = _capture(capsys, ["lambdag", "--t", '["0", "1"]', "--s", "1"])
    assert code == 0
    _, payload = _payload(out)
    assert payload["valuation"] == "1/1"


def test_usage_error_exit_code(capsys):
    assert run(["not-a-command"]) == 1
    assert run([]) == 1


def test_domain_error_exit_code(capsys):
    code, out = _capture(capsys, ["datum", "--type", "B", "--rank", "1"])
    assert code == 2
    status, payload = _payload(out)
    assert status == "error"
    assert "rank" in payload["error"]


def test_rank_9_is_refused(capsys):
    # the Kottwitz walk keeps 2^rank masks, so the CLI caps the rank at 8
    for argv in (["datum", "--type", "A", "--rank", "9"],
                 ["bgmu", "--type", "A", "--rank", "9", "--node", "5"]):
        code, out = _capture(capsys, argv)
        assert code == 2
        status, payload = _payload(out)
        assert status == "error" and "rank cap 8" in payload["error"]


def test_input_file(tmp_path, capsys):
    doc = {"type": "C", "rank": 2, "node": 2}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _capture(capsys, ["bgmu", "--in", str(path)])
    assert code == 0
    _, payload = _payload(out)
    assert len(payload["elements"]) == 3


def test_input_file_not_an_object_or_with_unknown_keys(tmp_path, capsys):
    for doc in ([2, 3], {"w": 2, "p": 3, "bogus": 1}):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = _capture(capsys, ["hasse", "--in", str(path)])
        assert code == 2
        status, payload = _payload(out)
        assert status == "error" and "--in file" in payload["error"]


def test_hasse_huge_p_is_a_domain_error(capsys):
    code, out = _capture(capsys, ["hasse", "--w", "1", "--p", "1" + "0" * 399 + "7"])
    assert code == 2
    status, payload = _payload(out)
    assert status == "error" and "p must be below" in payload["error"]


def test_hasse_huge_w_is_a_domain_error(capsys):
    # 3^10000 - 1 has 4772 digits, over the 4300-digit limit; w = 10^9 is
    # rejected before the power is taken
    for w in ("10000", "1000000000"):
        start = time.monotonic()
        code, out = _capture(capsys, ["hasse", "--w", w, "--p", "3"])
        assert code == 2 and time.monotonic() - start < 5
        status, payload = _payload(out)
        assert status == "error" and "4300 digits" in payload["error"]


def test_bgmu_e8_returns(capsys):
    code, out = _capture(capsys, ["bgmu", "--type", "E8", "--rank", "8", "--node", "8"])
    assert code == 0
    _, payload = _payload(out)
    assert len(payload["elements"]) == 37


def test_datum_output_labels_and_tables(capsys):
    code, out = _capture(capsys, ["datum", "--type", "E7", "--rank", "7"])
    assert code == 0
    _, payload = _payload(out)
    assert payload["special_roots"] == [7]
    assert "alpha_1" in payload["labeling"]["note"]
    code, out = _capture(
        capsys, ["--table", "datum", "--type", "C", "--rank", "2"]
    )
    assert code == 0
    assert "payload.type" in out and '"C"' in out


def test_output_bytes_deterministic(capsys):
    _, out1 = _capture(capsys, ["bgmu", "--type", "C", "--rank", "2", "--node", "2"])
    _, out2 = _capture(capsys, ["bgmu", "--type", "C", "--rank", "2", "--node", "2"])
    assert out1 == out2


def test_inputs_that_would_run_for_minutes_return_promptly(capsys):
    cases = [
        # an exponent string would build a 200-million-digit integer
        (["leq", "--type", "A", "--rank", "1", "--x", '["1e200000000","0"]',
          "--y", '["1","0"]'], 2),
        # 400 entries: over twice the rank cap 8, the radical has 20100 roots
        (["mepsilon", "--full", json.dumps(["0"] * 400)], 2),
        # every height below h_2 = 10^12 + 2 used to be tested
        (["uniqueness", "--profile",
          '{"slopes":["1","1/2","0"],"mults":[1000000000000,2,1000000000000]}',
          "--i", "2"], 0),
    ]
    for argv, expected in cases:
        start = time.monotonic()
        code, out = _capture(capsys, argv)
        assert code == expected and time.monotonic() - start < 5, argv
        status, payload = _payload(out)
        assert status == ("ok" if expected == 0 else "error")
    assert payload == {"schema": "newtonkit/1", "unique": True, "violating_height": None}
    code, out = _capture(capsys, ["mepsilon", "--full", json.dumps(["0"] * 16)])
    assert code == 0 and _payload(out)[1]["valuation"] == "0/1"


def test_mepsilon_count_is_bounded_by_digits(capsys):
    # valuation 1.5e8: 3^150000000 used to be built before str() refused it
    start = time.monotonic()
    code, out = _capture(capsys, ["mepsilon", "--full", '["0","0","50000000","50000000"]',
                                  "--p", "3"])
    assert code == 2 and time.monotonic() - start < 5
    status, payload = _payload(out)
    assert status == "error" and "4300 digits" in payload["error"]
    # 3^9012 has 4300 digits and is printed; 3^9013 has 4301
    code, out = _capture(capsys, ["mepsilon", "--full", '["9012","0"]', "--shape", "gl"])
    assert code == 0 and _payload(out)[1]["count"] == str(3 ** 9012)
    code, out = _capture(capsys, ["mepsilon", "--full", '["9013","0"]', "--shape", "gl"])
    assert code == 2 and "4300 digits" in _payload(out)[1]["error"]


def test_profile_multiplicities_and_polarized_must_be_typed(capsys):
    # int() read 2.9 as 2 and true as 1, and bool("no") is true
    for doc in ('{"slopes":["1","0"],"mults":[2.9,1]}',
                '{"slopes":["1","0"],"mults":[true,1]}',
                '{"slopes":["1","0"],"mults":[1,1],"polarized":"no"}'):
        for argv in (["degrees", "--profile", doc], ["uniqueness", "--profile", doc, "--i", "1"]):
            code, out = _capture(capsys, argv)
            assert code == 2 and _payload(out)[0] == "error", argv
    # JSON integers and digit strings are still read
    code, out = _capture(capsys, ["degrees", "--profile",
                                  '{"slopes":["1","0"],"mults":[2,"1"],"polarized":false}'])
    assert code == 0 and _payload(out)[1]["heights"] == [2, 3]


def test_mepsilon_upper_radical(capsys):
    code, out = _capture(capsys, ["mepsilon", "--full", "[1,1,0,0]", "--upper"])
    assert code == 0 and _payload(out)[1]["count"] == "27"
    # a negative pairing names the root in rationals, not in Fraction reprs
    code, out = _capture(capsys, ["mepsilon", "--full", "[0,0,1,1]", "--upper"])
    assert code == 2 and "Fraction(" not in out
    assert _payload(out)[1]["error"].endswith("with the radical root (1, 0, 0, -1)")
    # --upper chooses between the two Siegel radicals; --shape gl has one
    code, out = _capture(capsys, ["mepsilon", "--full", "[1,1,0,0]", "--upper", "--shape", "gl"])
    assert code == 2 and _payload(out)[1]["error"] == "--upper applies to --shape siegel only"


def test_sigma_is_neither_a_flag_nor_an_input_key(tmp_path, capsys):
    # every datum is split: --sigma is gone, so it is an unknown flag
    for argv in (["datum", "--type", "A", "--rank", "3"],
                 ["bgmu", "--type", "A", "--rank", "3", "--node", "1"],
                 ["maximal", "--type", "A", "--rank", "3", "--node", "1"],
                 ["leq", "--type", "A", "--rank", "3", "--x", "[0,0,0,0]", "--y", "[0,0,0,0]"]):
        assert run([*argv, "--sigma", "flip"]) == 1, argv[0]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error"), argv[0]
    # and an --in file naming it has an unknown key
    code, (status, payload) = _run_with_file(tmp_path, capsys, ["bgmu"],
                                             {"type": "A", "rank": 3, "node": 1, "sigma": "flip"})
    assert (code, status) == (2, "error") and "unknown keys ['sigma']" in payload["error"]


def test_mepsilon_full_must_fit_its_shape(capsys):
    # the Siegel shape halved the length, so ["1"] and [] both printed count 1
    for full, shape in (('["1"]', "siegel"), ('["0","0","1"]', "siegel"),
                        ("[]", "siegel"), ("[]", "gl")):
        code, out = _capture(capsys, ["mepsilon", "--full", full, "--shape", shape])
        assert code == 2 and "--full must be non-empty" in _payload(out)[1]["error"]
    code, out = _capture(capsys, ["mepsilon", "--full", '["1"]', "--shape", "gl"])
    assert code == 0 and _payload(out)[1]["count"] == "1"


def test_mepsilon_shape_is_siegel_or_gl(tmp_path, capsys):
    # on the command line an unknown shape is a usage error
    assert run(["mepsilon", "--full", '["1","0"]', "--shape", "bogus"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error") and "--shape" in err and "bogus" in err
    # in an --in file it stays a domain error
    code, (status, payload) = _run_with_file(tmp_path, capsys, ["mepsilon"],
                                             {"full": ["1", "0"], "shape": "bogus"})
    assert (code, status) == (2, "error") and "--in file" in payload["error"]
    assert "invalid choice" in payload["error"] and "bogus" in payload["error"]


def test_mepsilon_p_must_be_a_prime(capsys):
    for p in ("0", "1", "-3", "4", "2", "3317044064679887385961981"):
        code, out = _capture(capsys, ["mepsilon", "--full", '["1","0"]', "--shape", "gl",
                                      "--p", p])
        assert code == 2 and _payload(out)[0] == "error", p
    code, out = _capture(capsys, ["mepsilon", "--full", '["1","0"]', "--shape", "gl",
                                  "--p", "5"])
    assert code == 0 and _payload(out)[1]["count"] == "5"


def test_lambdag_p_must_be_a_prime(capsys):
    for p in ("1", "4", "9"):
        code, out = _capture(capsys, ["lambdag", "--t", '["0","1"]', "--s", "1", "--p", p])
        assert code == 2 and _payload(out)[0] == "error", p
    code, out = _capture(capsys, ["lambdag", "--t", '["0","1"]', "--s", "1", "--p", "5"])
    assert code == 0 and _payload(out)[1]["valuation"] == "1/1"


def test_lambdag_names_an_empty_first_block(capsys):
    code, out = _capture(capsys, ["lambdag", "--t", "[]"])
    assert code == 2
    assert _payload(out) == ("error", {"error": "first-block valuations must be non-empty",
                                       "schema": "newtonkit/1"})


def test_verify_all_with_a_failing_check_exits_2(monkeypatch, capsys):
    import newtonkit.verify

    def failing():
        yield "x", False

    monkeypatch.setattr(newtonkit.verify, "CHECKS", (failing,))
    code, out = _capture(capsys, ["verify-all"])
    assert code == 2 and len(out.splitlines()) == 1
    status, payload = _payload(out)
    assert status == "ok" and payload["all_pass"] is False and payload["failures"] == 1
    assert payload["checks"] == [{"name": "x", "pass": False}]


def test_input_file_that_is_not_utf8_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff\xfe{")
    code, out = _capture(capsys, ["hasse", "--in", str(path)])
    assert code == 2 and "--in file" in _payload(out)[1]["error"]


def test_every_subcommand_without_its_arguments_fails_cleanly(capsys):
    for name, (_, specs) in _SUBCOMMANDS.items():
        if not specs:  # verify-all takes no arguments
            continue
        code = run([name])
        captured = capsys.readouterr()
        assert code in (1, 2) and "Traceback" not in captured.err, name
        if code == 2:
            assert len(captured.out.splitlines()) == 1, name
            assert _payload(captured.out)[0] == "error", name
        else:
            assert captured.out == "" and captured.err.startswith("usage error"), name


_PAIR = '{"slopes":["1","0"],"mults":[1,1]}'


@pytest.mark.parametrize("argv, missing", [
    (["datum", "--rank", "3"], "--type is"),
    (["bgmu", "--type", "A", "--rank", "3"], "--node is"),
    (["maximal", "--type", "A", "--rank", "2"], "--node is"),
    (["leq", "--type", "A", "--rank", "2", "--x", "[0,0,0]"], "--y is"),
    (["slopes", "--nu", '["1/2","0"]'], "--dim is"),
    (["degrees"], "--profile is"),
    (["uniqueness", "--profile", _PAIR], "--i is"),
    (["mepsilon", "--p", "5"], "--full is"),
    (["lambdag", "--s", "1"], "--t is"),
    (["hasse"], "--w and --p are"),
    (["bgmu"], "--type, --rank and --node are"),
])
def test_a_missing_required_flag_is_named(capsys, argv, missing):
    code, out = _capture(capsys, argv)
    assert code == 2
    assert _payload(out) == ("error", {"error": f"{missing} required (flags or --in file)",
                                       "schema": "newtonkit/1"})


def test_the_input_file_can_supply_a_required_flag(tmp_path, capsys):
    code, (status, payload) = _run_with_file(tmp_path, capsys,
                                             ["bgmu", "--type", "C", "--rank", "2"], {"node": 2})
    assert (code, status) == (0, "ok") and payload["mubar"] == ["1/2", "1/2"]
    code, (status, payload) = _run_with_file(tmp_path, capsys, ["hasse", "--w", "2"], {})
    assert (code, status, payload["error"]) == (2, "error", "--p is required (flags or --in file)")


def _run_with_file(tmp_path, capsys, argv, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _capture(capsys, [*argv, "--in", str(path)])
    return code, _payload(out)


def test_input_file_keys_act_as_their_flags(tmp_path, capsys):
    # keys whose flag has a default are applied, not dropped
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["mepsilon"],
                                        {"full": ["0", "0", "1", "1"], "p": 5})
    assert code == 0 and payload["count"] == "125"
    for doc in ({"full": ["1", "0"], "shape": "gl"}, {"full": ["0", "1"], "shape": "gl"}):
        flags = ["--full", json.dumps(doc["full"]), "--shape", "gl"]
        assert _run_with_file(tmp_path, capsys, ["mepsilon"], doc) == \
            _payload_of(capsys, ["mepsilon", *flags])
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["datum"],
                                        {"type": "D", "rank": 4, "labeling": "paper"})
    assert code == 0 and payload["labeling"]["requested"] == "paper"
    # a switch takes true or false
    doc = {"type": "C", "rank": 3, "node": 3}
    with_top = _run_with_file(tmp_path, capsys, ["maximal"], {**doc, "exclude_top": False})
    without = _run_with_file(tmp_path, capsys, ["maximal"], {**doc, "exclude-top": True})
    assert with_top == _payload_of(capsys, ["maximal", "--type", "C", "--rank", "3",
                                            "--node", "3"])
    assert without == _payload_of(capsys, ["maximal", "--type", "C", "--rank", "3",
                                           "--node", "3", "--exclude-top"])
    assert with_top != without
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["hasse"],
                                        {"w": 2, "p": 3, "table": False})
    assert code == 0 and payload["hasse_number"] == 8


def _payload_of(capsys, argv):
    code, out = _capture(capsys, argv)
    return code, _payload(out)


def test_input_file_values_are_checked_like_flags(tmp_path, capsys):
    for argv, doc in ((["hasse"], {"w": True, "p": 5}),
                      (["hasse"], {"w": 2.5, "p": 5}),
                      (["bgmu"], {"type": "A", "rank": 2.9, "node": 1}),
                      (["datum"], {"type": "A", "rank": 2, "labeling": "nonsense"}),
                      (["maximal"], {"type": "C", "rank": 3, "node": 3, "exclude_top": "no"}),
                      (["maximal"], {"type": "C", "rank": 3, "node": 3, "exclude_top": 1})):
        code, (status, payload) = _run_with_file(tmp_path, capsys, argv, doc)
        assert code == 2 and status == "error" and "--in file" in payload["error"], doc


def test_command_line_wins_over_the_input_file(tmp_path, capsys):
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["hasse", "--p", "3"],
                                        {"w": 2, "p": 5})
    assert code == 0 and payload["hasse_number"] == 8
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["hasse", "--p", "5"],
                                        {"w": 2, "p": 3})
    assert code == 0 and payload["hasse_number"] == 24
    code, (_, payload) = _run_with_file(tmp_path, capsys, ["bgmu", "--rank", "2"],
                                        {"type": "C", "rank": 3, "node": 2})
    assert code == 0 and len(payload["elements"]) == 3


def test_input_file_keys_must_name_an_argument_exactly(tmp_path, capsys):
    for argv, doc in ((["bgmu"], {"ty": "C", "rank": 2, "node": 2}),
                      (["hasse"], {"h": True}),
                      (["hasse"], {"help": True}),
                      (["hasse"], {"in": "other.json"}),
                      (["bgmu"], {"type": "C", "rank": 2, "node": 2, "labeling": "paper"})):
        code, (status, payload) = _run_with_file(tmp_path, capsys, argv, doc)
        assert code == 2 and "unknown keys" in payload["error"], doc


def test_sequences_must_be_json_arrays_of_rationals(capsys):
    for argv in (["mepsilon", "--full", '"0011"'],
                 ["leq", "--type", "A", "--rank", "1", "--x", '"10"', "--y", '"01"'],
                 ["slopes", "--nu", '"10"', "--dim", "4"],
                 ["lambdag", "--t", '"01"'],
                 ["degrees", "--profile", '{"slopes":"10","mults":"12"}'],
                 ["degrees", "--profile", '{"slopes":["1","0"],"mults":"12"}'],
                 ["leq", "--type", "A", "--rank", "1", "--x", "[true,false]",
                  "--y", "[true,false]"],
                 ["mepsilon", "--full", "[false,false,true,true]"]):
        code, (status, _) = _payload_of(capsys, argv)
        assert code == 2 and status == "error", argv


_ZERO_PROFILE = '{"slopes":["1/0","0"],"mults":[1,1]}'


@pytest.mark.parametrize("argv, key, value", [
    (["leq", "--type", "A", "--rank", "1", "--y", '["0","0"]'], "x", '["1/0","0"]'),
    (["leq", "--type", "A", "--rank", "1", "--x", '["0","0"]'], "y", '["0","-1/0"]'),
    (["slopes", "--dim", "4"], "nu", '["1/0","0"]'),
    (["degrees"], "profile", _ZERO_PROFILE),
    (["uniqueness", "--i", "1"], "profile", _ZERO_PROFILE),
    (["mepsilon"], "full", '["0","0","1/0","1"]'),
    (["lambdag"], "t", '["0","1/0"]'),
    (["lambdag", "--t", '["0","1"]'], "s", "1/0"),
])
def test_a_zero_denominator_is_named(tmp_path, capsys, argv, key, value):
    # Fraction("1/0") raises ZeroDivisionError, whose text was "Fraction(1, 0)"
    bad = "-1/0" if "-1/0" in value else "1/0"
    want = (2, ("error", {"error": f"zero denominator in {bad!r}", "schema": "newtonkit/1"}))
    assert _payload_of(capsys, [*argv, f"--{key}", value]) == want
    assert _run_with_file(tmp_path, capsys, argv, {key: value}) == want


DEEP = "[" * 50_000  # deeper than the JSON decoder recurses


def _assert_nesting_error(code, out, err):
    assert code == 2 and "Traceback" not in err
    status, payload = _payload(out)
    assert status == "error" and "nested too deeply" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["leq", "--type", "A", "--rank", "1", "--x", DEEP, "--y", '["0","0"]'],
    ["leq", "--type", "A", "--rank", "1", "--x", '["0","0"]', "--y", DEEP],
    ["slopes", "--nu", DEEP, "--dim", "4"],
    ["mepsilon", "--full", DEEP],
    ["lambdag", "--t", DEEP],
], ids=["x", "y", "nu", "full", "t"])
def test_deeply_nested_vector_is_a_domain_error(capsys, argv):
    _assert_nesting_error(run(argv), *capsys.readouterr())


@pytest.mark.parametrize("argv", [["degrees", "--profile", DEEP],
                                  ["uniqueness", "--profile", DEEP, "--i", "1"]])
def test_deeply_nested_profile_is_a_domain_error(capsys, argv):
    _assert_nesting_error(run(argv), *capsys.readouterr())


def test_deeply_nested_input_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(DEEP, encoding="utf-8")
    code = run(["hasse", "--in", str(path)])
    out, err = capsys.readouterr()
    _assert_nesting_error(code, out, err)
    assert "--in file" in _payload(out)[1]["error"]


def test_leq_rejects_points_that_are_not_dominant(capsys):
    base = ["leq", "--type", "A", "--rank", "1"]
    for x, y in ((["1", "0"], ["0", "1"]), (["0", "1"], ["1", "0"])):
        code, (status, payload) = _payload_of(
            capsys, [*base, "--x", json.dumps(x), "--y", json.dumps(y), "--verify"])
        assert code == 2 and "dominant" in payload["error"]
    code, (_, payload) = _payload_of(capsys, [*base, "--x", '["0","0"]', "--y", '["1/2","-1/2"]',
                                              "--verify"])
    assert code == 0 and payload == {"leq": True, "hull_oracle": True, "schema": "newtonkit/1"}


def test_labeling_is_an_argument_of_datum_only(capsys):
    for argv in (["bgmu", "--type", "C", "--rank", "2", "--node", "2"],
                 ["maximal", "--type", "C", "--rank", "2", "--node", "2"],
                 ["leq", "--type", "C", "--rank", "2", "--x", '["0","0"]', "--y", '["0","0"]']):
        assert run([*argv, "--labeling", "paper"]) == 1
        assert run(argv) == 0
    assert run(["datum", "--type", "C", "--rank", "2", "--labeling", "paper"]) == 0


def test_profile_that_is_not_an_object_or_lacks_a_key_is_named(capsys):
    code, (status, payload) = _payload_of(capsys, ["degrees", "--profile", "{}"])
    assert code == 2 and status == "error"
    assert "slopes" in payload["error"] and "mults" in payload["error"]
    code, (_, payload) = _payload_of(capsys, ["degrees", "--profile", '{"slopes":["1","0"]}'])
    assert code == 2 and "mults" in payload["error"] and "slopes" not in payload["error"]
    code, (status, payload) = _payload_of(capsys, ["degrees", "--profile", "[]"])
    assert code == 2 and status == "error" and "JSON object" in payload["error"]


def test_profile_multiplicity_strings_must_be_ascii_digits(capsys):
    # int() read "1_0" as 10, " 2" as 2, "+1" as 1 and the Arabic-Indic "\u0663" as 3
    for m in ("1_0", " 2", "+1", "\u0663", "-1", "1.0", "2/1", ""):
        doc = json.dumps({"slopes": ["1", "0"], "mults": [m, 2]})
        for argv in (["degrees", "--profile", doc],
                     ["uniqueness", "--profile", doc, "--i", "1"]):
            code, (status, payload) = _payload_of(capsys, argv)
            assert code == 2 and status == "error" and repr(m) in payload["error"], argv
    code, (_, payload) = _payload_of(capsys, ["degrees", "--profile",
                                              '{"slopes":["1","0"],"mults":["10","02"]}'])
    assert code == 0 and payload["heights"] == [10, 12]


def _fractions(xs):
    return tuple(Fraction(x) for x in xs)


def test_documents_carry_the_library_values(capsys):
    _, (_, payload) = _payload_of(capsys, ["datum", "--type", "C", "--rank", "2"])
    assert (payload["type"], payload["rank"]) == ("C", 2) and "sigma" not in payload
    # bgmu: every element's nu, c and J, read back, are the library's
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(c2.cochar(fundamental_coweights(c2)[1]))
    _, (_, payload) = _payload_of(capsys, ["bgmu", "--type", "C", "--rank", "2",
                                           "--node", "2"])
    assert payload["elements"][1]["nu"] == ["1/2", "0/1"]
    assert _fractions(payload["mu"]) == ks.mu.coords
    assert _fractions(payload["mubar"]) == ks.mubar.coords
    assert [(_fractions(e["nu"]), _fractions(e["c"]), frozenset(e["J"]))
            for e in payload["elements"]] == [(e.nu.coords, e.c, e.J) for e in ks.elements]
    # slopes prints a profile that --profile reads back
    _, (_, payload) = _payload_of(capsys, ["slopes", "--nu", '["1/2","0"]', "--dim", "4"])
    doc = {k: payload[k] for k in ("slopes", "mults", "polarized")}
    assert doc == {"slopes": ["1/1", "1/2", "0/1"], "mults": [1, 2, 1], "polarized": True}
    code, (_, payload) = _payload_of(capsys, ["degrees", "--profile", json.dumps(doc)])
    assert code == 0 and payload["heights"] == [1, 3, 4]


# Every byte the CLI prints, pinned by its sha256: the documents are built in
# newtonkit.cli alone, and moving code there must not change one of them.
_PROFILE = '{"mults":[1,2,1],"polarized":true,"slopes":["1/1","1/2","0/1"]}'
_E7_RHO = '["0","1","2","3","4","5","-17/2","17/2"]'

_PINNED = [
    (["datum", "--type", "C", "--rank", "2"], 0,
     "2b210c48db7df8201b75c3ce7a17d1c32a01ad02510444005de2dbc9fe64f8dd"),
    (["datum", "--type", "E7", "--rank", "7"], 0,
     "3ef5043ad2d2c01e9d6a49190da20d7d3430994246d16eeb6d304b05147a444d"),
    (["datum", "--type", "D", "--rank", "5", "--labeling", "paper"], 0,
     "74a22ac0283669484a0ba860041fbe7329a2dff0e0e42dbd409bc3cc60ae3979"),
    (["--table", "datum", "--type", "C", "--rank", "2"], 0,
     "cc9beed88650de9039d7fcae06b4a43ba99a33c511902672533771bbfdc795a4"),
    (["bgmu", "--type", "C", "--rank", "2", "--node", "2"], 0,
     "c644977548fcdf6cef7555c8c0ddeeefb94f373656f5ef82a0061a377278223d"),
    (["bgmu", "--type", "B", "--rank", "3", "--node", "1"], 0,
     "d20179ba06b465c47eff00eee8c7e5074c09168f65accd3d671011937c36432a"),
    (["bgmu", "--type", "G2", "--rank", "2", "--node", "1", "--table"], 0,
     "14fc17d0d81adf754aac88a6595f6fc1876f7555829feb7b2e29dd9896ba52a8"),
    (["maximal", "--type", "B", "--rank", "3", "--node", "1", "--exclude-top"], 0,
     "c84e9f27543d92f04e61d5fc74444b2fabd03276c5465abde18b2d221c8b9df9"),
    (["maximal", "--type", "A", "--rank", "4", "--node", "2"], 0,
     "22fa9da8a328383ddb4496654382bd39de36354cf7a486b30233b88cac116c80"),
    (["leq", "--type", "C", "--rank", "2", "--x", '["1/2","0"]', "--y", '["1/2","1/2"]',
      "--verify"], 0,
     "5be1aa27c0b0a591eb0e6324214982cd2000ae951abcd4f868e185c62978d383"),
    (["leq", "--type", "A", "--rank", "2", "--x", '["1","0","0"]',
      "--y", '["1/3","1/3","1/3"]'], 0,
     "678b3396f76d38edc0ae2169f8eff45328fe19d68fa6eb567e11f6af94f08b56"),
    # off the coroot span (the central parts differ): neither the order nor the hull
    (["leq", "--type", "A", "--rank", "2", "--x", '["1","0","0"]', "--y", '["2","0","0"]',
      "--verify"], 0,
     "e27a43cc3a5dfae6f4da7d24e8e43efa7a3e340cde88fde07d9a5fab5afa6813"),
    # the hull oracle at rank 8: 0 <= omega_8, whose orbit is the 240 roots
    (["leq", "--type", "E8", "--rank", "8", "--x", "[0,0,0,0,0,0,0,0]",
      "--y", '["0","0","0","0","0","0","1","1"]', "--verify"], 0,
     "5be1aa27c0b0a591eb0e6324214982cd2000ae951abcd4f868e185c62978d383"),
    # the hull oracle at a regular E7 point, y = rho^vee, whose Weyl orbit has
    # |W(E7)| = 2903040 points: 0 <= y, and x = y + (e_8 - e_7) / 2 is not below y
    (["leq", "--type", "E7", "--rank", "7", "--x", "[0,0,0,0,0,0,0,0]",
      "--y", _E7_RHO, "--verify"], 0,
     "5be1aa27c0b0a591eb0e6324214982cd2000ae951abcd4f868e185c62978d383"),
    (["leq", "--type", "E7", "--rank", "7", "--x", '["0","1","2","3","4","5","-9","9"]',
      "--y", _E7_RHO, "--verify"], 0,
     "e27a43cc3a5dfae6f4da7d24e8e43efa7a3e340cde88fde07d9a5fab5afa6813"),
    (["slopes", "--nu", '["1/2","0"]', "--dim", "4"], 0,
     "b470fe64f620740dc348b9700e835fb775fea10ab389437fb6a006627df41df7"),
    (["slopes", "--nu", '["1","2/3","1/3","0"]', "--dim", "4"], 0,
     "0ffa40c85035c94ed11d40932c81dd1e6a1961c0b7d198e75c2d3ee4222c2804"),
    (["degrees", "--profile", _PROFILE], 0,
     "075dc1505195b7825e84464d158618ae5b1b59d2be8773743cb8b0ece2c0f4c7"),
    (["degrees", "--profile", '{"slopes":["1","0"],"mults":[2,"1"]}'], 0,
     "eeb04b66ad7734647983d96e4b346f3ca85099dd0a32aa2ce4e13357c2de24b0"),
    (["degrees", "--profile", "{}"], 2,
     "c39a02e1be18794aaacc35db5255979980b11e08eed62e65e13ffff26a572166"),
    (["degrees", "--profile", "[]"], 2,
     "d292275beff2f952291bb4d8604922b5cc9546c5c910c4d1cb888a7f7b059705"),
    (["uniqueness", "--profile", _PROFILE, "--i", "2"], 0,
     "1425b23f5d18f3acba3c370e098792f8112df491f425a9f7aa8f883260cac0ea"),
    (["mepsilon", "--full", '["0","0","1","1"]', "--p", "3"], 0,
     "1644ffa3175156bb5a687b24c26f13fb918619e808f9b97853fa601dd8a2f696"),
    (["mepsilon", "--full", '["1","1","0","0"]', "--upper"], 0,
     "1644ffa3175156bb5a687b24c26f13fb918619e808f9b97853fa601dd8a2f696"),
    (["mepsilon", "--full", '["2","1","0"]', "--shape", "gl", "--p", "5"], 0,
     "07f54ee6df5a2d7744bc78a87f198262138a523e5b5e59e2b3d990db0c161452"),
    # the error names the root as (1, -1, 0), where it once printed Fraction reprs
    (["mepsilon", "--full", '["0","1","2"]', "--shape", "gl", "--p", "5"], 2,
     "3cb9771914434014e86c18d0a5021dc12e08120c720c6ba7ceb29e1d7c6be212"),
    (["lambdag", "--t", '["0","1"]', "--s", "1"], 0,
     "fceedfc861c128082d63ec06fee556ae0c3eca4b224139a27f62a0e3cdd62f6b"),
    (["hasse", "--w", "2", "--p", "3"], 0,
     "835d677d0198241426d4a8a3c03ba95aa22e7d6238f1b8d832943b8ecea06338"),
    (["datum", "--type", "B", "--rank", "1"], 2,
     "e28022a69b5a93edc36e5bcef312db9ab7e42443a35ee501ed1fb5a335b39e02"),
    (["bgmu", "--type", "C", "--rank", "2", "--node", "3"], 2,
     "72dfb863548a56236937e35114f40653f15e66dd5115ffa62da8226af2a04176"),
    (["verify-all"], 0,
     "3d0f7c505057d425598aa7582ae2ee2331442e97ad5607c1c5cf28cefd492de6"),
    (["bgmu", "--type", "E6", "--rank", "6", "--node", "1"], 0,
     "9a65ce6c364358b39362613fc7ae4e414dffa9f9bb97f1be7408eff0c25a206e"),
    (["bgmu", "--type", "E7", "--rank", "7", "--node", "7"], 0,
     "c8db7563fdbacd842d1f7c72e0eb858898636f40e0987fc43f8cd1f58554f55a"),
    (["bgmu", "--type", "E8", "--rank", "8", "--node", "4"], 0,
     "ad1200a3ff846d35eccb885370e2a5522690273df13c0d612e0a1c081d629a9b"),
    (["maximal", "--type", "E8", "--rank", "8", "--node", "4", "--exclude-top"], 0,
     "977f01a39aa7bb758ad540d716d330e68e42905ed1fbeb8bf5a4694113cdde13"),
    # D8 at the vector node and at both spin nodes, where pi_1 is finest
    (["bgmu", "--type", "D", "--rank", "8", "--node", "1"], 0,
     "328f8dd84dd4f0b215b86f5601ffa44535797c399d54abd9e216dd2014571466"),
    (["bgmu", "--type", "D", "--rank", "8", "--node", "7"], 0,
     "00312de208fc8b69854d9be5690e6d8e42b54c5f6adbc1cf45e263556b431da1"),
    (["bgmu", "--type", "D", "--rank", "8", "--node", "8"], 0,
     "fdec410e326bb0b24b5b8483791048367f657f93105171e988985a0d53ef8437"),
    (["maximal", "--type", "D", "--rank", "8", "--node", "8", "--exclude-top"], 0,
     "5c65ef855cd03d1775d386657db07fdae9c2a7157a05345537aef9ee24cc0cf7"),
]


# the ids are the argv alone, so a changed digest renames no test
@pytest.mark.parametrize("argv, code, digest", _PINNED, ids=[" ".join(a) for a, _, _ in _PINNED])
def test_output_bytes_are_pinned(capsys, argv, code, digest):
    exit_code, out = _capture(capsys, argv)
    assert (exit_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), out


# The test session has imported every module already, so each case runs in a
# fresh interpreter and reports what it loaded.
_LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    import newtonkit.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = newtonkit.cli.run(argv)
else:
    import newtonkit
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("newtonkit.")),
                  "dataclasses" in sys.modules]))
"""


def _loaded_modules(argv):
    """(exit code, the newtonkit submodules loaded, whether dataclasses is)."""
    code, modules, dataclasses_loaded = json.loads(fresh_python(_LOADED, json.dumps(argv)))
    return code, set(modules), dataclasses_loaded


_ORACLE_LAYER = {"newtonkit.oracles", "newtonkit.verify"}


@pytest.mark.parametrize("argv, code", [
    (["datum", "--type", "C", "--rank", "2"], 0),
    (["bgmu", "--type", "C", "--rank", "2", "--node", "2"], 0),
    (["hasse", "--w", "2", "--p", "3"], 0),
    (["degrees", "--profile", '{"slopes":["1","0"],"mults":[1,1]}'], 0),
    (["leq", "--type", "C", "--rank", "2", "--x", '["1/2","0"]', "--y", '["1/2","1/2"]'], 0),
    (["frobnicate"], 1),
])
def test_subcommands_without_oracles_do_not_load_them(argv, code):
    exit_code, modules, dataclasses_loaded = _loaded_modules(argv)
    assert exit_code == code and not modules & _ORACLE_LAYER
    assert not dataclasses_loaded


@pytest.mark.parametrize("argv", [
    ["leq", "--type", "C", "--rank", "2", "--x", '["1/2","0"]', "--y", '["1/2","1/2"]',
     "--verify"],
    ["verify-all"],
])
def test_subcommands_with_oracles_load_them(argv):
    code, modules, dataclasses_loaded = _loaded_modules(argv)
    assert code == 0 and not dataclasses_loaded
    assert "newtonkit.oracles" in modules
    assert ("newtonkit.verify" in modules) == (argv == ["verify-all"])


_PROFILE = '{"slopes":["1","0"],"mults":[1,1]}'


@pytest.mark.parametrize("argv, code, loaded", [
    (None, None, set()),
    (["hasse", "--w", "2", "--p", "3"], 0, {"hecke"}),
    (["slopes", "--nu", '["1/2","0"]', "--dim", "4"], 0, {"muordinary"}),
    (["degrees", "--profile", _PROFILE], 0, {"muordinary"}),
    (["uniqueness", "--profile", _PROFILE, "--i", "1"], 0, {"muordinary"}),
    (["datum", "--type", "C", "--rank", "4"], 0, {"linalg", "rootdata"}),
    (["frobnicate"], 1, set()),
    (["bgmu", "--type", "C", "--rank", "2", "--node", "1", "--bogus"], 1, set()),
], ids=["import", "hasse", "slopes", "degrees", "uniqueness", "datum", "no-such-command",
        "unknown-flag"])
def test_each_process_loads_only_the_layers_it_runs(argv, code, loaded):
    # import newtonkit loads no submodule; cli itself needs rationals alone
    exit_code, modules, dataclasses_loaded = _loaded_modules(argv)
    base = set() if argv is None else {"cli", "rationals"}
    assert exit_code == code and not dataclasses_loaded
    assert modules == {f"newtonkit.{m}" for m in base | loaded}


# the subcommands the three tests above do not run; with them every
# subcommand is checked not to load dataclasses
_OTHER_SUBCOMMANDS = [
    ["maximal", "--type", "B", "--rank", "3", "--node", "1", "--exclude-top"],
    ["mepsilon", "--full", '["0","0","1","1"]', "--p", "3"],
    ["lambdag", "--t", '["0","1"]', "--s", "1"],
]


@pytest.mark.parametrize("argv", _OTHER_SUBCOMMANDS, ids=[a[0] for a in _OTHER_SUBCOMMANDS])
def test_no_subcommand_imports_dataclasses(argv):
    # the value types are plain classes: dataclasses would pull in inspect,
    # ast, dis and tokenize, a large share of a short process's start-up
    code, _, dataclasses_loaded = _loaded_modules(argv)
    assert code == 0 and not dataclasses_loaded
