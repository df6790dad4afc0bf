import json
import subprocess
import sys

import numpy as np
import pytest

from sklyrep import cli, solver
from sklyrep.cli import main, parse_complex
from sklyrep.reptheory import Rep, conjugate_rep, rep_to_json
from sklyrep.sklyanin import FAMILIES, REPRESENTATIVE_IDS, family
from sklyrep.skewpoly import SkewRepSpec, skew_rep

from conftest import random_conjugator, random_valid_c, sample_family, subprocess_env


def run_cli(args, **env):
    proc = subprocess.run(
        [sys.executable, "-m", "sklyrep", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(**env),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_complex_literals():
    assert parse_complex("2") == 2.0
    assert parse_complex("-3.5") == -3.5
    assert parse_complex("0.5-1.2i") == 0.5 - 1.2j
    assert parse_complex("1.2i") == 1.2j
    assert parse_complex("-2e-3+1e2i") == -0.002 + 100j
    with pytest.raises(Exception):
        parse_complex("banana")


def test_verify_family_pass(tmp_path):
    code, out, _ = run_cli(
        ["verify", "--family", "t3f2", "--set", "c=2,z4=1", "--format", "human"]
    )
    assert code == 0
    assert "verdict: PASS" in out
    assert "u3=1" in out and "g=-2" in out


def test_verify_family_json_payload():
    code, out, _ = run_cli(["verify", "--family", "t3f2", "--set", "c=2,z4=1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-12
    assert payload["irreducible_burnside"] is True
    assert payload["invariant_line"] is None
    assert payload["central_character"]["u3"] == [1.0, 0.0]
    assert payload["central_character"]["g"] == [-2.0, 0.0]


def test_verify_constraint_violation_exits_2():
    code, _, err = run_cli(["verify", "--family", "t4f1", "--set", "c=5,y4=1,z4=0"])
    assert code == 2
    assert "z4" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z4", ["1e100", "1e120", "1e200"])
def test_verify_family_overflow_exits_2(z4, capsys):
    # 1e100 overflows in the central character, 1e120 in the word products of
    # the relations and the Burnside test, 1e200 while building the family
    assert main(["verify", "--family", "t3f2", "--set", f"c=2,z4={z4}"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--set" in captured.err and "overflow" in captured.err


@pytest.mark.filterwarnings("error")
def test_verify_rep_overflow_exits_2(tmp_path, capsys):
    for z4 in (1e100, 1e120):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(rep_to_json(family("t3f2", {"c": 2.0, "z4": z4}))))
        assert main(["verify", "--rep", str(path)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "--rep" in captured.err and "overflow" in captured.err


@pytest.mark.parametrize(
    "assignments, message",
    [
        ("zz:c=2", "unknown family id 'zz'"),
        ("t4f3:c=2", "family t4f3 needs parameters ['y4', 'z4']"),
        ("t3f2:c=2,z4=1e400", "--set: z4 must be finite"),
    ],
    ids=["unknown_family", "missing_parameters", "non_finite"],
)
def test_verify_family_usage_error_message(assignments, message, capsys):
    fid, values = assignments.split(":")
    assert main(["verify", "--family", fid, "--set", values]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_rep_file_reducible(tmp_path):
    rep = {
        "n": 2,
        "generators": ["x", "y", "z"],
        "params": {"c": [2.0, 0.0]},
        "matrices": {
            g: [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
            for g in ("x", "y", "z")
        },
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(rep))
    code, out, _ = run_cli(["verify", "--rep", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == 0.0
    assert payload["irreducible_burnside"] is False
    assert payload["invariant_line"] is not None


@pytest.mark.filterwarnings("error")
def test_verify_non_scalar_centre_reports_no_character(tmp_path, capsys):
    # t3f2 (+) trivial solves the relations, but its centre mixes two points
    member = family("t3f2", {"c": 2.0, "z4": 0.7})
    images = {g: np.pad(m, ((0, 1), (0, 1))) for g, m in member.images.items()}
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(rep_to_json(Rep(3, images, dict(member.env)))))
    assert main(["verify", "--rep", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] <= 1e-12
    assert payload["irreducible_burnside"] is False
    assert payload["central_character"] is None
    assert payload["central_character_error"].startswith("central element is not scalar")
    assert main(["verify", "--rep", str(path), "--format", "human"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"central character: none ({payload['central_character_error']})"
    assert lines[-1] == "verdict: PASS"


def test_verify_rep_on_the_skew_ring_reports_its_two_central_values(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(rep_to_json(skew_rep(SkewRepSpec("two_dim", 0.8, -1.2)))))
    assert main(["verify", "--rep", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["central_character"]) == ["u1", "u2"]
    assert main(["verify", "--rep", str(path), "--format", "human"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "central character: u1=0.64000000000000012, u2=-1.2"


@pytest.mark.parametrize("gens, message", [
    ("xyz", "3-generator representation must bind the parameter c"),
    ("ab", "unsupported generator set ('a', 'b')"),
], ids=["no_c", "unknown_generators"])
def test_verify_rep_without_an_algebra_exits_2(tmp_path, capsys, gens, message):
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"n": 2, "generators": list(gens),
                                "matrices": {g: zero for g in gens}}))
    assert main(["verify", "--rep", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_residual_failure_exits_1(tmp_path):
    rep = {
        "n": 2,
        "generators": ["x", "y"],
        "params": {},
        "matrices": {
            "x": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "y": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rep))
    code, out, _ = run_cli(["verify", "--rep", str(path)])
    assert code == 1


def test_classify_conjugates_one_class(tmp_path):
    rng = np.random.default_rng(3)
    rep = family("t4f4", {"c": 5.0, "y4": 0.9, "z3": 1.2, "z4": 0.4})
    items = [rep_to_json(rep)]
    for _ in range(9):
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        items.append(rep_to_json(conjugate_rep(rep, q)))
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(items))
    code, out, _ = run_cli(["classify", "--input", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    assert len(payload["classes"]) == 1
    assert payload["classes"][0]["members"] == list(range(10))


def test_classify_four_table4_families(tmp_path):
    envs = {
        "t4f1": {"c": 5.0, "y4": 1.1, "z4": 0.7},
        "t4f2": {"c": 5.0, "x4": 0.8},
        "t4f3": {"c": 5.0, "y4": 0.9, "z4": 0.45},
        "t4f4": {"c": 5.0, "y4": 0.6, "z3": 1.3, "z4": 1.0},
    }
    items = [rep_to_json(family(fid, env)) for fid, env in envs.items()]
    path = tmp_path / "fams.json"
    path.write_text(json.dumps(items))
    code, out, _ = run_cli(["classify", "--input", str(path)])
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4


def test_classify_empty_and_mixed(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, out, _ = run_cli(["classify", "--input", str(empty)])
    assert code == 0
    assert json.loads(out) == {"count": 0, "classes": []}

    mixed = tmp_path / "mixed.json"
    a = rep_to_json(family("t3f2", {"c": 2.0, "z4": 1.0}))
    b = rep_to_json(family("t3f2", {"c": 5.0, "z4": 1.0}))
    mixed.write_text(json.dumps([a, b]))
    code, _, err = run_cli(["classify", "--input", str(mixed)])
    assert code == 2
    assert "mixed" in err

    point = {"n": 1, "generators": ["x", "y", "z"], "params": {"c": [2.0, 0.0]},
             "matrices": {g: [[[0.0, 0.0]]] for g in "xyz"}}
    mixed.write_text(json.dumps([a, point]))
    code, _, err = run_cli(["classify", "--input", str(mixed)])
    assert code == 2
    assert "different generator sets or dimensions" in err


def test_sigma_orders():
    code, out, _ = run_cli(["sigma", "--a", "1", "--b", "1", "--c", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 2
    assert payload["validity_relaxed"] is False

    code, out, _ = run_cli(["sigma", "--a", "1", "--b", "-1", "--c", "0"])
    payload = json.loads(out)
    assert payload["order"] == 1
    assert payload["validity_relaxed"] is True

    code, out, _ = run_cli(
        ["sigma", "--a", "1", "--b", "2", "--c", "0.3", "--max-order", "8", "--format", "human"]
    )
    assert code == 0
    assert "exceeds 8" in out


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_sigma_rejects_non_finite_parameter(name, capsys):
    values = {"a": "1", "b": "1", "c": "2", name: "1e400"}
    argv = ["sigma"] + [arg for k in "abc" for arg in (f"--{k}", values[k])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"--{name} must be finite" in captured.err


def test_solve_cli_runs_and_matches():
    code, out, _ = run_cli(
        ["solve", "--algebra", "sklyanin", "--c", "5", "--jordan", "two",
         "--starts", "40", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["task"]["jordan_kind"] == "two_blocks"
    for sol in payload["solutions"]:
        assert sol["residual"] <= 1e-8
        if sol["irreducible"]:
            assert sol["matched_family"] in {"t4f1", "t4f2", "t4f3", "t4f4"}


def test_solve_requires_c_for_sklyanin():
    code, _, err = run_cli(["solve", "--algebra", "sklyanin", "--jordan", "one"])
    assert code == 2
    assert err == "error: --c is required for the sklyanin algebra\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--algebra", "sklyanin", "--c", "5", "--starts", "-3"], "num_starts"),
        (["--algebra", "sklyanin", "--c", "5", "--slices", "-1"], "slice_count"),
        (["--algebra", "skew", "--c", "5"], "error: --c does not apply to the skew algebra\n"),
    ],
    ids=["negative_starts", "negative_slices", "c_for_skew"],
)
def test_solve_rejects_bad_input_naming_the_field(argv, field, capsys):
    assert main(["solve", "--jordan", "two", *argv]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert field in captured.err


def test_slice_csv_and_malformed_grid():
    code, out, _ = run_cli(["slice", "--c", "5", "--u1", "0", "--grid", "0:1:2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u2,u3,value"
    assert len(lines) == 5
    code, _, err = run_cli(["slice", "--c", "5", "--u1", "0", "--grid", "nope"])
    assert code == 2
    for grid in ("0:1:0", "0:inf:3"):
        code, out, err = run_cli(["slice", "--c", "5", "--u1", "0", "--grid", grid])
        assert code == 2 and not out
        assert "grid bounds must be finite with at least one step" in err
    for args, message in (
        (["--c", "1e400", "--u1", "1"], "c must be finite"),
        (["--c", "5", "--u1", "1e400"], "u1 must be finite"),
        (["--c", "2", "--u1", "1e200"], "--u1"),
        (["--c", "2", "--u1", "1", "--grid", "0:1e200:2"], "--grid"),
    ):
        grid = [] if "--grid" in args else ["--grid", "0:1:2"]
        code, out, err = run_cli(["slice", *args, *grid])
        assert code == 2 and not out, args
        assert message in err and "Traceback" not in err, args


def test_seed_env_override():
    code, out1, _ = run_cli(["sigma", "--a", "1", "--b", "1", "--c", "2"], SKLYREP_SEED="777")
    payload = json.loads(out1)
    assert payload["seed"] == 777


def test_malformed_seed_env_only_breaks_seeded_commands(monkeypatch, capsys):
    monkeypatch.setenv("SKLYREP_SEED", "abc")
    assert main(["verify", "--family", "t3f2", "--set", "c=2,z4=1"]) == 0
    assert main(["slice", "--c", "5", "--u1", "0", "--grid", "0:1:2"]) == 0
    capsys.readouterr()
    assert main(["sigma", "--a", "1", "--b", "1", "--c", "2"]) == 2
    assert "SKLYREP_SEED" in capsys.readouterr().err


def test_solve_tol_reaches_solver(monkeypatch, capsys):
    seen = []

    def fake_solve_reps(task, tol):
        seen.append(tol)
        return solver.SolveReport(task, [], {})

    monkeypatch.setattr(solver, "solve_reps", fake_solve_reps)
    assert main(["solve", "--algebra", "skew", "--jordan", "two", "--tol", "1e-3"]) == 0
    assert main(["solve", "--algebra", "skew", "--jordan", "two"]) == 0
    assert seen == [1e-3, 1e-8]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--a", "1", "--b", "1", "--c", "2"],
        ["slice", "--c", "5", "--u1", "0", "--grid", "0:1:2"],
    ],
    ids=["sigma", "slice"],
)
def test_tol_is_a_usage_error_where_unused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def _trivial_rep_json():
    zero = [[[0.0, 0.0]] * 2 for _ in range(2)]
    return {"n": 2, "generators": ["x", "y", "z"], "params": {"c": [2.0, 0.0]},
            "matrices": {g: zero for g in ("x", "y", "z")}}


def _with_nan(data):
    data["matrices"]["y"] = [[[0.0, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return data


def _ragged(data):
    data["matrices"]["x"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
    return data


def _not_square(data):
    data["matrices"]["z"] = [[[0.0, 0.0]] * 3] * 2
    return data


def _wrong_n(data):
    data["n"] = 3
    return data


def _duplicate_generator(data):
    data["generators"] = ["x", "y", "x"]
    return data


def _generators_as_string(data):
    data["generators"] = "xyz"
    return data


def _not_an_object(data):
    return [data]


def _boolean_entry(data):
    data["matrices"]["x"] = [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return data


def _n_as_string(data):
    data["n"] = "2"
    return data


def _n_fractional(data):
    data["n"] = 2.5
    return data


def _without(key):
    def corrupt(data):
        del data[key]
        return data

    corrupt.__name__ = f"_without_{key}"
    return corrupt


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_with_nan, "matrices.y[0][1]"),
        (_ragged, "matrices.x"),
        (_not_square, "matrices.z"),
        (_wrong_n, "n:"),
        (_duplicate_generator, "generators"),
        (_not_an_object, "representation"),
        (_generators_as_string, "generators"),
        (_boolean_entry, "matrices.x[0][0]"),
        (_n_as_string, "n:"),
        (_n_fractional, "n:"),
        (_without("n"), "n: required field is missing"),
        (_without("generators"), "generators: required field is missing"),
        (_without("matrices"), "matrices: required field is missing"),
    ],
)
def test_verify_malformed_rep_names_field(tmp_path, capsys, corrupt, field):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(corrupt(_trivial_rep_json())))
    assert main(["verify", "--rep", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_verify_rep_accepts_integral_float_n(tmp_path, capsys):
    data = _trivial_rep_json()
    data["n"] = 2.0
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--rep", str(path)]) == 0
    capsys.readouterr()


def test_classify_input_must_be_a_list(tmp_path, capsys):
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(_trivial_rep_json()))
    assert main(["classify", "--input", str(path)]) == 2
    assert "--input" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_classify_overflow_exits_2(tmp_path, capsys):
    # the entries are finite, but the fingerprint's word products overflow
    rep = rep_to_json(family("t3f2", {"c": 2.0, "z4": 1e120}))
    path = tmp_path / "big.json"
    path.write_text(json.dumps([rep, rep]))
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: --input: values too large, the arithmetic overflows\n"


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_integer_entry_beyond_the_float_range_names_the_field(tmp_path, capsys, command):
    data = _trivial_rep_json()
    data["matrices"]["x"] = [[[10 ** 400, 0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data if command == "verify" else [data]))
    flag = "--rep" if command == "verify" else "--input"
    assert main([command, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("error: matrices.x[0][0]: expected a finite [re, im] pair of "
                            f"numbers, got [{10 ** 400}, 0]\n")


def _cli_complex(z):
    return "%.17g%+.17gi" % (z.real, z.imag)


def test_json_writer_equals_json_dumps_on_every_payload(tmp_path, monkeypatch, capsys):
    payloads = []
    emit_json = cli._emit_json
    monkeypatch.setattr(cli, "_emit_json",
                        lambda obj, output: (payloads.append(obj), emit_json(obj, output))[1])
    rng = np.random.default_rng(29)
    argvs = []
    for fid in FAMILIES:
        env = sample_family(fid, rng, branch="principal").env
        argvs.append(["verify", "--family", fid, "--set",
                      ",".join(f"{k}={_cli_complex(v)}" for k, v in env.items())])
    member = family("t3f2", {"c": 2.0, "z4": 0.7})
    reps = [conjugate_rep(sample_family(fid, rng), random_conjugator(rng))
            for fid in REPRESENTATIVE_IDS]
    reps += [Rep(3, {g: np.pad(m, ((0, 1), (0, 1))) for g, m in member.images.items()},
                 dict(member.env)),  # no central character: the centre mixes two points
             skew_rep(SkewRepSpec("two_dim", 0.8, -1.2)),
             Rep(2, {g: rng.standard_normal((2, 2)) for g in "xyz"}, {"c": 2.0})]
    for k, rep in enumerate(reps):
        path = tmp_path / f"rep{k}.json"
        path.write_text(json.dumps(rep_to_json(rep)))
        argvs.append(["verify", "--rep", str(path)])
    items = [rep_to_json(conjugate_rep(rep, random_conjugator(rng)))
             for rep in (member, member, member, family("t4f2", {"c": 2.0, "x4": 0.8}))]
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(items))
    argvs.append(["classify", "--input", str(path)])
    for seed in range(3):
        argvs.append(["sigma", "--a", "1", "--b", "1", "--c",
                      _cli_complex(random_valid_c(rng)), "--seed", str(seed)])
    argvs.append(["solve", "--algebra", "skew", "--jordan", "two", "--starts", "12"])
    argvs.append(["solve", "--algebra", "sklyanin", "--c", "5", "--jordan", "one",
                  "--starts", "12"])
    assert [main(argv) for argv in argvs].count(1) == 1  # the random rep fails verification
    texts = [json.dumps(obj, indent=2, sort_keys=True) for obj in payloads]
    assert capsys.readouterr().out == "".join(text + "\n" for text in texts)
    assert len(payloads) == len(argvs)
    assert sum("central_character_error" in obj for obj in payloads) == 1
    assert [cli._json_text(obj) for obj in payloads] == texts


@pytest.mark.parametrize("obj", [
    [float("nan"), float("inf"), -float("inf"), 1.5],
    {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")},
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1e-7, 0.1, -1.5e300],
    [10 ** 30, -(2 ** 63), 0, True, False, None],
    [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
    [],
    {},
    {"é\u2603\U0001f600": "naïve \"quoted\" \\ back\nnew\tline \x00 \ud800"},
    [np.float64(0.1), np.float64(-0.0), np.float64("nan"), [np.float64(1e16), 2.0]],
    np.float64(3.5),
    ("tuple", (1.0, 2.0), [(), (3,)]),
    {"z": 1, "a": {"y": [1.0, 2], "b": None}, "m": [1.0, float("inf")]},
    {2: "two", 1.5: "float", True: "bool", -1: "int"},
    {None: 0},
    "plain",
    -7,
], ids=["non_finite", "non_finite_values", "floats", "ints_bools_none", "empty_nested",
        "empty_list", "empty_dict", "strings", "numpy_floats", "numpy_scalar", "tuples",
        "key_order", "number_keys", "none_key", "string", "int"])
def test_json_writer_equals_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [[np.int64(1)], {"a": {1, 2}}, {(1, 2): 3}, {"a": 1, 2: "b"}],
                         ids=["numpy_int", "set", "tuple_key", "mixed_keys"])
def test_json_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as raised:
        cli._json_text(obj)
    assert str(raised.value) == str(expected.value)


def test_reused_parser_matches_fresh_processes(monkeypatch, capsys):
    # main() builds its parser once per process; later calls must not see
    # state left by earlier ones
    sigma = ["sigma", "--a", "1", "--b", "1", "--c", "2"]
    steps = [
        (sigma, "5"),
        (["sigma", "--a", "1", "--c", "2"], "5"),
        (["verify", "--family", "t3f2", "--set", "c=2,z4=1", "--format", "human"], "5"),
        (sigma, "777"),
    ]
    for argv, seed in steps:
        monkeypatch.setenv("SKLYREP_SEED", seed)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, out) == run_cli(argv, SKLYREP_SEED=seed)[:2], argv
    assert json.loads(out)["seed"] == 777


def test_main_returns_int_in_process(capsys):
    rc = main(["verify", "--family", "t3f2", "--set", "c=2,z4=1"])
    assert rc == 0
    capsys.readouterr()


def test_cli_determinism_byte_identical():
    cases = [
        ["verify", "--family", "t3f1", "--set", "c=5,z2=0.3,z3=1.1"],
        ["sigma", "--a", "1", "--b", "1", "--c", "2"],
        ["solve", "--algebra", "skew", "--jordan", "two", "--starts", "25", "--seed", "2"],
        ["slice", "--c", "5", "--u1", "0.3", "--grid", "-1:1:5"],
    ]
    for args in cases:
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0, args
        assert out1 == out2, args
