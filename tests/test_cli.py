import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import newtonkit
from newtonkit.cli import _SUBCOMMANDS, run


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


def test_rank_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("NEWTONKIT_MAX_RANK", "3")
    code, out = _capture(capsys, ["datum", "--type", "A", "--rank", "4"])
    assert code == 2
    status, payload = _payload(out)
    assert "NEWTONKIT_MAX_RANK" in payload["error"]


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
        # 400 entries: over twice NEWTONKIT_MAX_RANK, the radical has 20100 roots
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


def test_mepsilon_full_must_fit_its_shape(capsys):
    # the Siegel shape halved the length, so ["1"] and [] both printed count 1
    for full, shape in (('["1"]', "siegel"), ('["0","0","1"]', "siegel"),
                        ("[]", "siegel"), ("[]", "gl")):
        code, out = _capture(capsys, ["mepsilon", "--full", full, "--shape", shape])
        assert code == 2 and "--full must be non-empty" in _payload(out)[1]["error"]
    code, out = _capture(capsys, ["mepsilon", "--full", '["1"]', "--shape", "gl"])
    assert code == 0 and _payload(out)[1]["count"] == "1"


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


def test_sigma_is_a_name_or_an_array_of_integer_nodes(capsys):
    for sigma in ("21", "[2.9, 1.2]", "[true, 2]", '["2", "1"]', '{"1": 2}'):
        code, (status, _) = _payload_of(capsys, ["datum", "--type", "A", "--rank", "2",
                                                 "--sigma", sigma])
        assert code == 2 and status == "error", sigma
    for sigma, image in (("[2, 1]", [2, 1]), ("flip", [2, 1]), ("identity", [1, 2]),
                         ("id", [1, 2])):
        code, (_, payload) = _payload_of(capsys, ["datum", "--type", "A", "--rank", "2",
                                                  "--sigma", sigma])
        assert code == 0 and payload["sigma"] == image


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
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("newtonkit."))]))
"""


def _loaded_modules(argv):
    src = str(Path(newtonkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)], env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


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
    exit_code, modules = _loaded_modules(argv)
    assert exit_code == code and not modules & _ORACLE_LAYER


@pytest.mark.parametrize("argv", [
    ["leq", "--type", "C", "--rank", "2", "--x", '["1/2","0"]', "--y", '["1/2","1/2"]',
     "--verify"],
    ["verify-all"],
])
def test_subcommands_with_oracles_load_them(argv):
    code, modules = _loaded_modules(argv)
    assert code == 0
    assert "newtonkit.oracles" in modules
    assert ("newtonkit.verify" in modules) == (argv == ["verify-all"])


def test_the_package_imports_its_layers_eagerly():
    # a tracer that wraps the loaded newtonkit modules sees every core layer
    _, modules = _loaded_modules(None)
    assert {"newtonkit.rootdata", "newtonkit.kottwitz", "newtonkit.muordinary",
            "newtonkit.hecke"} <= modules
    assert not modules & _ORACLE_LAYER
