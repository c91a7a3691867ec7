import contextlib
import io
import json
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_formula import formulas

from nmlogic import FreeAlgebra, format_formula
from nmlogic.cli import _make_parser, main

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
        # The seven grid and algebra commands share one --vars declaration.
        if "--variant" in options:
            assert re.search(r"--vars VARS\s+number of generators", out), command


def test_subprocess_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nmlogic.cli", "chi-plus", "1", "--vars", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


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
