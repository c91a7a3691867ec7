import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_formula import formulas

from nmlogic import FreeAlgebra, NMChain, cli, eval_chain, format_formula, random_formula
from nmlogic.cli import MAX_MESSAGE, _make_parser, main
from nmlogic.formula import program

LONG_INDEX = "x" + "9" * 5000


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_on_chain(capsys):
    code, out, _ = run(
        capsys, "eval", "(x1 <-> ~x1)^2 & x1", "--chain", "3", "--assign", "x1=1/2"
    )
    assert (code, out) == (0, "1/2\n")


def test_eval_standard(capsys):
    code, out, _ = run(capsys, "eval", "1", "--standard")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "eval", "x1 * x1", "--assign", "x1=2/3")
    assert (code, out) == (0, "2/3\n")
    code, out, _ = run(capsys, "eval", "x1 * x1", "--assign", "x1=1/2")
    assert (code, out) == (0, "0\n")


def test_eval_missing_binding_is_semantic_error(capsys):
    code, _, err = run(capsys, "eval", "x1", "--chain", "3")
    assert code == 3
    assert "x1" in err


def test_eval_value_not_on_chain(capsys):
    code, _, err = run(capsys, "eval", "x1", "--chain", "3", "--assign", "x1=1/3")
    assert code == 3
    assert "3-chain" in err
    for k in ("1", "0", "-1"):
        code, out, err = run(capsys, "eval", "x1", "--chain", k, "--assign", "x1=0")
        assert (code, out) == (3, "")
        assert f"chain size must be >= 2, got {k}" in err


def test_eval_chain_agrees_with_scalar_chain_evaluation(capsys):
    # eval --chain K answers on [0, 1]; eval_chain, on the chain's own
    # indices, is the independent route it is checked against.
    rng = Random(32)
    drawn = (random_formula(rng, 2, 4) for _ in range(100))
    # Formulas that fold to a constant or a variable would test little.
    kept = [f for f in drawn if len(program(f).steps) >= 3][:4]
    assert len(kept) == 4
    for f in kept:
        text = format_formula(f)
        for k in range(2, 10):
            chain = NMChain(k)
            for x1 in chain.values():
                for x2 in chain.values():
                    want = eval_chain(f, chain, {1: x1, 2: x2}).as_fraction
                    got = run(capsys, "eval", text, "--chain", str(k), "--assign",
                              f"x1={x1.as_fraction},x2={x2.as_fraction}")
                    assert got == (0, f"{want}\n", ""), (text, k, x1, x2)


def test_eval_parse_error(capsys):
    for text in ("x1 -> -> x2", LONG_INDEX):
        code, _, err = run(capsys, "eval", text, "--standard")
        assert code == 2
        assert "parse error" in err


def test_chi_commands(capsys):
    code, out, _ = run(capsys, "chi-plus", "1", "--vars", "1", "--variant", "nm")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(
        capsys, "chi", "(x1 <-> ~x1)^2 & x1", "--vars", "1", "--variant", "nm"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(
        capsys, "chi-plus", "(x1 <-> ~x1)^2 & x1", "--vars", "1", "--variant", "nm"
    )
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "chi-plus", "1", "--vars", "1", "--variant", "nm-")
    assert (code, out) == (0, "2\n")


@pytest.mark.parametrize("argv, name", [
    (("chi", "x5", "--vars", "2"), "x5"),
    (("chi-plus", "x1 & x9", "--vars", "2", "--variant", "nm-", "--cap", "1700000"), "x9"),
    (("chi", "x5 -> 1", "--vars", "3"), "x5"),
])
def test_chi_names_an_unbound_variable_before_building(capsys, monkeypatch, argv, name):
    def no_build(*args, **kwargs):
        raise AssertionError("build called before the formula was checked")

    monkeypatch.setattr(cli, "build", no_build)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert f"no binding for variable {name}" in err


def test_count_models_command(capsys):
    code, out, _ = run(capsys, "count-models", "1", "--vars", "2", "--values", "3")
    assert (code, out) == (0, "9\n")
    code, out, _ = run(
        capsys, "count-models", "x1 | ~x1", "--vars", "1", "--values", "2"
    )
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "count-models", "0", "--vars", "1", "--values", "3")
    assert (code, out) == (0, "0\n")


def test_build_reports_size(capsys):
    code, out, _ = run(capsys, "build", "--vars", "1", "--variant", "nm")
    assert (code, out) == (0, "48 elements\n")


def test_build_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "build", "--vars", "3", "--variant", "nm", "--cap", "1000"
    )
    assert code == 4
    assert "cap 1000" in err


def test_closure_pair_bound_exits_3(capsys, monkeypatch):
    from nmlogic import free_algebra

    monkeypatch.setattr(free_algebra, "MAX_CLOSURE_PAIRS", 10_000)
    for command in (["build"], ["chi", "x1"], ["export"], ["filters"]):
        code, out, err = run(capsys, *command, "--vars", "2", "--variant", "nm-",
                             "--cap", "1700000")
        assert (code, out) == (3, "")
        assert "MAX_CLOSURE_PAIRS = 10000" in err and "Traceback" not in err


def test_tautology_exit_codes(capsys):
    code, out, _ = run(capsys, "tautology", "(x1 -> x2) | (x2 -> x1)", "--vars", "2")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(
        capsys, "tautology", "x1 | ~x1", "--vars", "1", "--variant", "nm"
    )
    assert (code, out) == (1, "no\n")


def test_proves_exit_codes(capsys):
    code, out, _ = run(capsys, "proves", "x1 & ~x1", "0", "--vars", "1")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "proves", "1", "(x1 <-> ~x1)^2 & x1", "--vars", "1")
    assert (code, out) == (1, "no\n")


def test_grids_above_the_bound_are_refused_at_once(capsys):
    for argv in (
        ("tautology", "x1", "--vars", "12"),
        ("count-models", "x1", "--vars", "40", "--values", "2"),
        ("count-models", "x1", "--vars", "12"),
        ("count-models", "x1 & x2 -> ~x3 | x4", "--vars", "9"),
        *((*command, "--vars", "1000000000000")
          for command in (("build",), ("chi", "x1"), ("export",), ("filters",))),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "exceeds" in err


def test_deep_formulas_end_in_exit_codes(capsys):
    for text, value in (
        ("~" * 5000 + "x1", "1/2"),
        ("(" * 5000 + "x1" + ")" * 5000, "1/2"),
        (" -> ".join(["x1"] * 5000), "1"),
    ):
        assert run(capsys, "eval", text, "--assign", "x1=1/2")[:2] == (0, f"{value}\n")
    deep = " & ".join(["x1"] * 5000)
    assert run(capsys, "eval", deep, "--assign", "x1=1/2")[:2] == (0, "1/2\n")
    assert run(capsys, "tautology", deep, "--vars", "1")[:2] == (1, "no\n")
    assert run(capsys, "chi-plus", deep, "--vars", "1")[:2] == (0, "1\n")


def test_export_json_round_trips(capsys, tmp_path, nmm1):
    target = tmp_path / "algebra.json"
    code, out, _ = run(
        capsys, "export", "--vars", "1", "--variant", "nm-", "--out", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert data == nmm1.export()
    clone = FreeAlgebra.from_export(data)
    assert clone.size == 16
    clone.check_closed()


def test_export_json_is_byte_stable(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "export", "--vars", "1", "--variant", "nm", "--out", str(path)
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_export_dot_matches_grid_labels(capsys, nmm1):
    code, out, _ = run(capsys, "export", "--vars", "1", "--variant", "nm-",
                       "--format", "dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph hasse {"
    node_lines = [line for line in lines if "label=" in line]
    assert len(node_lines) == 16
    # Node labels carry the idempotent characteristic; cross-check via the
    # product coordinates of each element.
    coords = {x: nmm1.vector(x)[1:3] for x in nmm1.element_ids()}
    for x, (i, j) in coords.items():
        assert f'{x} [label="{x}:{(i >= 2) + (j >= 2)}"];' in out
    edges = [line.strip() for line in lines if "->" in line]
    assert len(edges) == len(nmm1.covers())
    assert edges == [f"{c} -> {p};" for c, p in nmm1.covers()]


def test_filters_dot(capsys):
    code, out, _ = run(capsys, "filters", "--vars", "1", "--variant", "nm-")
    assert code == 0
    assert out == (
        "digraph prime_filters {\n"
        '  0 [label="gen=4"];\n'
        '  1 [label="gen=10"];\n'
        '  2 [label="gen=14"];\n'
        '  3 [label="gen=15"];\n'
        "  2 -> 0;\n"
        "  3 -> 1;\n"
        "}\n"
    )


def test_unwritable_out_path_is_exit_three(capsys, tmp_path):
    for command in (("export", "--vars", "1"), ("export", "--vars", "0", "--format", "dot"),
                    ("filters", "--vars", "1")):
        for path in (tmp_path / "missing" / "out.txt", tmp_path):
            code, out, err = run(capsys, *command, "--out", str(path))
            assert (code, out) == (3, "")
            assert err.startswith("error: ")


def test_malformed_binding(capsys):
    code, _, err = run(capsys, "eval", "x1", "--assign", "y=1")
    assert code == 3
    assert "binding" in err
    for value in ("1e-999999999", "1E5", "2.5e0"):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "x1", "--assign", f"x1={value}")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "") and "exponent notation" in err
    assert run(capsys, "eval", "x1", "--assign", "x1=0.25")[:2] == (0, "1/4\n")
    assert run(capsys, "eval", "x1", "--assign", "x1=1/2,,") == (0, "1/2\n", "")
    code, out, err = run(capsys, "eval", "x1", "--assign", "x0=1")
    assert (code, out) == (3, "") and "variable index must be >= 1" in err
    # More digits than int() converts, a digit that is not decimal and a zero
    # denominator, which names the binding rather than Fraction's error text.
    for binding, reason in ((f"{LONG_INDEX}=1", "too long"), ("x\u00b2=1", "expected xN"),
                            ("x1=1/0", "'x1=1/0': zero denominator")):
        code, out, err = run(capsys, "eval", "x1", "--assign", binding)
        assert (code, out) == (3, "") and "malformed binding" in err and reason in err
        assert "set_int_max_str_digits" not in err and len(err) < 100
        assert "Fraction(" not in err
    # A value with more digits than int() converts, on both carriers.
    for value in ("0." + "1" * 5000, "1" * 5000, "1/" + "3" * 5000):
        for carrier in (["--standard"], ["--chain", "3"]):
            code, out, err = run(capsys, "eval", "x1", *carrier, "--assign", f"x1={value}")
            assert (code, out) == (3, "") and "malformed binding x1=" in err
            assert "set_int_max_str_digits" not in err and len(err) < 100


@pytest.mark.parametrize("argv, code", [
    pytest.param(["eval", "x1", "--assign", "x1=" + "a" * 6000], 3, id="letters-value"),
    pytest.param(["eval", "x1", "--chain", "9" * 5000], 2, id="long-chain"),
    pytest.param(["chi", "x1", "--vars", "9" * 5000], 2, id="long-vars"),
    pytest.param(["build", "--vars", "1", "--variant", "a" * 6000], 2, id="bad-variant"),
    pytest.param(["build", "--vars", "1", "a" * 6000], 2, id="unrecognised-argument"),
    pytest.param(["a" * 6000], 2, id="unknown-command"),
    pytest.param(["eval", "x1", "--assign", "a" * 6000], 3, id="letters-binding"),
    pytest.param(["eval", "x1", "--chain", "3", "--assign", "x1=0." + "1" * 4000], 3,
                 id="off-chain-value"),
    pytest.param(["eval", "x1", "--assign", "x1=2." + "1" * 4000], 3, id="above-one"),
    # Four UTF-8 bytes a character: the clip counts bytes, not characters.
    pytest.param(["export", "--vars", "1", "--format", "\U0001f600" * 6000], 2,
                 id="four-byte-choice"),
])
def test_echoed_input_leaves_stderr_bounded(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err.encode()) < 400 and " ... " in err


def test_usage_error_returns_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    # argparse lists every subcommand for a mistyped one; the clip must cut none.
    code, out, err = run(capsys, "foo")
    assert (code, out) == (2, "") and " ... " not in err
    message = err.splitlines()[-1]
    assert "invalid choice" in message and message.endswith(")")
    for name in ("eval", "chi", "chi-plus", "count-models", "build", "export", "filters",
                 "tautology", "proves"):
        assert any(f"{name}{end}" in message for end in (",", "',", ")", "')"))


def test_shared_parser_keeps_no_state_between_calls(capsys):
    assert _make_parser() is _make_parser()
    assert run(capsys, "eval", "x1", "--assign", "x1=1/2")[:2] == (0, "1/2\n")
    code, _, err = run(capsys, "eval", "x1")
    assert code == 3 and "no binding" in err
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "eval", "x1", "--assign", "x1=1")[:2] == (0, "1\n")


def _spy_on_parsing(monkeypatch):
    """Record (prog, namespace) per parse_known_args call; None if it exits."""
    calls = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        calls.append((self.prog, None))
        index = len(calls) - 1
        result = real(self, args, namespace)
        calls[index] = (self.prog, result[0])
        return result

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return calls


# Valid requests in every form argparse accepts: --opt=value, unique-prefix
# abbreviations, options before the positionals, repeated --assign and "--".
_VALID_ARGV = [
    ["eval", "x1", "--assign", "x1=1/2"],
    ["eval", "--chain=4", "x1 & x2", "--assign", "x1=1/3", "--assign=x2=1"],
    ["eval", "x1 -> x2", "--ass", "x1=1/2", "--assign", "x2=1/4,x1=1", "--stan"],
    ["eval", "--assign", "x1=0", "--", "x1"],
    ["chi", "x1", "--vars", "1"],
    ["chi", "--vars=1", "--variant=nm-", "x1 | ~x1"],
    ["chi-plus", "--ca", "500", "--vari", "nm-", "1", "--vars", "1"],
    ["count-models", "x1 | ~x1", "--vars", "1", "--val", "2"],
    ["count-models", "--vars=2", "x1 -> x2"],
    ["build", "--vars=1", "--vari", "nm-"],
    ["build", "--cap=60", "--vars", "1"],
    ["export", "--vars", "1", "--form", "dot"],
    ["export", "--format=json", "--vars", "0", "--variant", "nm-"],
    ["filters", "--vari", "nm-", "--vars", "1"],
    ["tautology", "--vars", "1", "x1 | ~x1"],
    ["proves", "--vars", "1", "x1 & ~x1", "0"],
    ["proves", "x1", "--vari=nm", "x1 | x2", "--vars", "2"],
]


def test_each_request_is_parsed_once(capsys, monkeypatch):
    calls = _spy_on_parsing(monkeypatch)
    assert {argv[0] for argv in _VALID_ARGV} == set(_FORMULA_ARGS)
    for argv in _VALID_ARGV:
        calls.clear()
        assert main(argv) in (0, 1), argv
        assert [prog for prog, _ in calls] == [f"nmlogic {argv[0]}"], argv
    capsys.readouterr()


def test_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch):
    want = {tuple(argv): vars(_make_parser().parse_args(argv)) for argv in _VALID_ARGV}
    calls = _spy_on_parsing(monkeypatch)
    for argv in _VALID_ARGV:
        calls.clear()
        main(argv)
        assert vars(calls[-1][1]) == want[tuple(argv)], argv
        assert want[tuple(argv)]["command"] == argv[0]
    capsys.readouterr()


@pytest.mark.parametrize("argv, prog, fault", [
    (["chi", "x1", "--vars", "1", "--bogus"], "nmlogic chi",
     "unrecognized arguments: --bogus"),
    (["build", "--vari", "nm-"], "nmlogic build", "the following arguments are required: --vars"),
    (["export", "--vars", "1", "--format", "svg"], "nmlogic export",
     "argument --format: invalid choice: 'svg'"),
    (["count-models", "x1", "--vars", "one"], "nmlogic count-models",
     "argument --vars: invalid int value: 'one'"),
    (["tautology", "x1", "--var", "1"], "nmlogic tautology",
     "ambiguous option: --var could match --vars, --variant"),
    (["proves", "x1", "--vars", "1"], "nmlogic proves",
     "the following arguments are required: conclusion"),
    (["bogus", "--vars", "1"], "nmlogic", "argument command: invalid choice: 'bogus'"),
    ([], "nmlogic", "the following arguments are required: command"),
])
def test_usage_errors_name_the_fault_under_the_commands_usage(capsys, argv, prog, fault):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} ")
    last = err.splitlines()[-1]
    assert last.startswith(f"{prog}: error: {fault}")
    assert len(last.split(": error: ", 1)[1].encode()) <= MAX_MESSAGE
    # The top-level parser, which parses the whole argv, names the same fault.
    with contextlib.redirect_stderr(io.StringIO()) as top, pytest.raises(SystemExit) as exit_:
        _make_parser().parse_args(argv)
    assert exit_.value.code == 2
    assert top.getvalue().splitlines()[-1].split(": error: ", 1)[1] == last.split(": error: ", 1)[1]


def test_top_level_help_lists_every_command(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "") and out.startswith("usage: nmlogic [-h]")
        for name in _FORMULA_ARGS:
            assert re.search(rf"^    {re.escape(name)}\s", out, re.M), name


def test_main_and_run_read_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["nmlogic", "chi-plus", "1", "--vars", "1"])
    assert main() == 0
    assert capsys.readouterr().out == "3\n"
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 0 and capsys.readouterr().out == "3\n"
    monkeypatch.setattr(sys, "argv", ["nmlogic", "tautology", "x1 | ~x1", "--vars", "1"])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 1 and capsys.readouterr().out == "no\n"
    monkeypatch.setattr(sys, "argv", ["nmlogic"])
    assert main() == 2
    assert "required: command" in capsys.readouterr().err


_ALGEBRA_OPTIONS = {"--vars", "--variant", "--cap"}
_OPTIONS = {
    "eval": {"--chain", "--standard", "--assign"},
    "chi": _ALGEBRA_OPTIONS,
    "chi-plus": _ALGEBRA_OPTIONS,
    "count-models": {"--vars", "--values"},
    "build": _ALGEBRA_OPTIONS,
    "export": _ALGEBRA_OPTIONS | {"--format", "--out"},
    "filters": _ALGEBRA_OPTIONS | {"--out"},
    "tautology": {"--vars", "--variant"},
    "proves": {"--vars", "--variant"},
}


def test_help_lists_each_subcommands_options(capsys):
    assert set(_OPTIONS) == set(_FORMULA_ARGS)
    for command, options in _OPTIONS.items():
        code, out, _ = run(capsys, command, "-h")
        assert code == 0
        assert set(re.findall(r"(?<![\w-])--\w[\w-]*", out)) == options | {"--help"}
        # The eight grid and algebra commands share one --vars declaration.
        if "--vars" in options:
            assert re.search(r"--vars VARS\s+number of generators", out), command


def test_subprocess_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nmlogic.cli", "chi-plus", "1", "--vars", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


def test_module_entry_point_builds_the_two_element_algebra():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "nmlogic.cli", "build", "--vars", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert (result.returncode, result.stdout) == (0, "2 elements\n")


def test_json_is_byte_stable_across_processes():
    # Separate interpreters, so hash randomisation cannot sneak into output.
    runs = [
        subprocess.run(
            [sys.executable, "-m", "nmlogic.cli", "export", "--vars", "1",
             "--variant", "nm", "--format", "json"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


_FORMULA_ARGS = {"eval": 1, "chi": 1, "chi-plus": 1, "count-models": 1, "tautology": 1,
                 "proves": 2, "build": 0, "export": 0, "filters": 0}
_ALGEBRA_COMMANDS = ("chi", "chi-plus", "build", "export", "filters")
_FORMULA_TEXT = st.one_of(
    formulas(max_vars=4, max_leaves=12).map(format_formula),
    st.sampled_from([LONG_INDEX, "x1 & " + LONG_INDEX, "x1 ->", "(x1", "x0", ""]),
)
_BINDING = st.builds(
    "{}={}".format,
    st.sampled_from(["x1", "x2", "x3", "x0", "y", LONG_INDEX]),
    st.one_of(st.fractions(0, 1, max_denominator=6).map(str),
              st.sampled_from(["0.25", "1e-999999999", "-1", "2", "abc", "1/0", "",
                               "a" * 6000, "0." + "1" * 4000])),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FORMULA_ARGS)))
    argv = [command] + [draw(_FORMULA_TEXT) for _ in range(_FORMULA_ARGS[command])]
    if command == "eval":
        if draw(st.booleans()):
            argv += ["--chain", draw(st.one_of(st.integers(-1, 7).map(str),
                                               st.just("9" * 5000)))]
        for binding in draw(st.lists(_BINDING, max_size=3)):
            argv += ["--assign", binding]
        return argv
    if command in _ALGEBRA_COMMANDS:
        argv += ["--vars", str(draw(st.integers(0, 2))),
                 "--cap", str(draw(st.integers(1, 20_000)))]
    else:
        argv += ["--vars", str(draw(st.integers(0, 3)))]
    if command == "count-models":
        argv += ["--values", draw(st.sampled_from(["2", "3"]))]
    else:
        argv += ["--variant", draw(st.sampled_from(["nm", "nm-"]))]
    if command == "export":
        argv += ["--format", draw(st.sampled_from(["json", "dot"]))]
    if command in ("export", "filters"):
        out = draw(st.sampled_from([None, "out.txt", "missing/out.txt", "."]))
        if out is not None:
            argv += ["--out", out]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_cli_fuzz_ends_in_an_exit_code(argv, tmp_path):
    argv = [str(tmp_path / a) if i and argv[i - 1] == "--out" else a
            for i, a in enumerate(argv)]
    start = time.perf_counter()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    assert time.perf_counter() - start < 5.0
    assert len(err.getvalue().encode()) < 400


# The sha256 of each one-generator output, as the CI workflow pins them.
PINNED_SHA256 = {
    "export --vars 1":
        "50e375bb1cd4db4acb6eabd2948024c222b43f60ab154ad649cf1a44860a68fa",
    "export --vars 1 --variant nm-":
        "1ff35733a772c8f73f2e6bfa36cb194207e1550d843aa0307ea3506c65704bc6",
    "export --vars 1 --format dot":
        "7489b57a1522f956721817eabebb400aaaf43cfac1ab5356955eaa43e31d0431",
    "export --vars 1 --variant nm- --format dot":
        "793c9b3eef57fb6c7aaab085a17606916b9d6edb7a9825f4e220a8a374a0cd7a",
    "filters --vars 1":
        "2786c99eec102a41a07fc0a610da693cb112d7ecb075492968a493f9587b792f",
    "filters --vars 1 --variant nm-":
        "e6969d271fba634fd9fb37bab80b15d94d2a8878270967dcb6ab72690a407521",
}


@pytest.mark.parametrize("command", PINNED_SHA256)
def test_one_generator_outputs_keep_their_pinned_hashes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[command]


def test_three_variable_requests_keep_their_pinned_outputs(capsys):
    got = []
    for f in ("x1 | x2 | x3", "(x1 -> x2) & (x2 -> x3)", "x1 <-> ~x2", "~(x1 * x2) | x3^2"):
        counts = [run(capsys, "count-models", f, "--vars", "3", "--values", v)
                  for v in ("3", "2")]
        assert [code for code, _, _ in counts] == [0, 0]
        got.append(f"{f}: {counts[0][1].strip()} {counts[1][1].strip()}")
    for variant in ("nm", "nm-"):
        for f in ("x1 * x2 -> x1 & x2", "x1 | ~x1", "~(x3 * ~x3)", "(x1 -> x2) | (x2 -> x3)"):
            code, out, _ = run(capsys, "tautology", f, "--vars", "3", "--variant", variant)
            got.append(f"{variant} {f}: {out.strip()} {code}")
    for premise, conclusion in (("x1 & x2", "x1"), ("x1", "x1 & x2"), ("x1 * x2", "x1 | x3"),
                                ("x1 -> x2", "x1")):
        code, out, _ = run(capsys, "proves", premise, conclusion, "--vars", "3")
        got.append(f"{premise}|{conclusion}: {out.strip()} {code}")
    for f, values in (("x1 -> x2 & ~x3", ("3/8", "1/2", "5/8")),
                      ("(x1 <-> x2) | x3^2", ("1/3", "2/3", "3/4"))):
        bindings = [arg for i, v in enumerate(values, 1) for arg in ("--assign", f"x{i}={v}")]
        code, out, _ = run(capsys, "eval", f, "--standard", *bindings)
        assert code == 0
        got.append(out.strip())
    assert got == """\
x1 | x2 | x3: 19 7
(x1 -> x2) & (x2 -> x3): 10 4
x1 <-> ~x2: 9 4
~(x1 * x2) | x3^2: 21 7
nm x1 * x2 -> x1 & x2: yes 0
nm x1 | ~x1: no 1
nm ~(x3 * ~x3): yes 0
nm (x1 -> x2) | (x2 -> x3): no 1
nm- x1 * x2 -> x1 & x2: yes 0
nm- x1 | ~x1: no 1
nm- ~(x3 * ~x3): yes 0
nm- (x1 -> x2) | (x2 -> x3): no 1
x1 & x2|x1: yes 0
x1|x1 & x2: no 1
x1 * x2|x1 | x3: yes 0
x1 -> x2|x1: no 1
1
3/4""".splitlines()
