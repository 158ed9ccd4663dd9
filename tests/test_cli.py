import io
import json
import os
import sys
from pathlib import Path

import pytest

from lamdist import cli
from lamdist.cli import build_parser, main
from lamdist.eqtheory import derivation_to_json, self_distance_derivation
from lamdist.relations import ProbeConfig
from lamdist.syntax import parse_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_typecheck_corpus(capsys):
    code, out, err = run(capsys, "typecheck", CORPUS / "deps.lam")
    assert code == 0
    assert "deps : (Real -> Real) -> Real -> Real" in out


def test_typecheck_ill_typed_file(tmp_path, capsys):
    bad = tmp_path / "bad.lam"
    bad.write_text("broken = fst(3)\n")
    code, out, err = run(capsys, "typecheck", bad)
    assert code == 1
    assert "non-product" in err


def test_typecheck_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.lam"
    empty.write_text("")
    code, out, err = run(capsys, "typecheck", empty)
    assert code == 0
    assert out.strip() == ""


def test_derive_identity(capsys):
    code, out, _ = run(capsys, "derive", CORPUS / "basics.lam", "idf")
    assert code == 0
    assert out.strip() == r"\x:Real. \x':Real. x'"


def test_derive_sin_renders_modulus_call(capsys):
    code, out, _ = run(capsys, "derive", CORPUS / "basics.lam", "sinf")
    assert code == 0
    assert "sin_d(x, x')" in out


def test_derive_round_trips_through_parser(capsys):
    from lamdist.prims import DEFAULT_REGISTRY
    from lamdist.syntax import (parse_term, partial_type, typecheck,
                                parse_file)
    code, out, _ = run(capsys, "derive", CORPUS / "deps.lam", "deps")
    assert code == 0
    reparsed = parse_term(out.strip(), DEFAULT_REGISTRY)
    deps = parse_file((CORPUS / "deps.lam").read_text(),
                      DEFAULT_REGISTRY)["deps"]
    want = partial_type(typecheck((), deps, DEFAULT_REGISTRY))
    assert typecheck((), reparsed, DEFAULT_REGISTRY) == want


def test_derive_deps_matches_shipped_difference_term(capsys):
    from lamdist.prims import DEFAULT_REGISTRY
    from lamdist.syntax import parse_file, parse_term, term_equal
    code, out, _ = run(capsys, "derive", CORPUS / "deps.lam", "deps")
    assert code == 0
    shipped = parse_file((CORPUS / "e_eps.lam").read_text(),
                         DEFAULT_REGISTRY)["e_eps"]
    assert term_equal((), parse_term(out.strip(), DEFAULT_REGISTRY), shipped,
                      DEFAULT_REGISTRY)


def test_diff_id_vs_sin(capsys):
    code, out, _ = run(capsys, "--format", "json", "diff",
                       CORPUS / "deps.lam", "idf", "sinf",
                       "--probes", "40", "--seed", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_probe = {(r["x"], r["b"]): r for r in rows}
    # the anchor probe at (0, 0.1): bound = |0 - sin 0| + 0.1
    row = by_probe[(0.0, 0.1)]
    assert row["vertical"] == 0.0
    assert row["bound"] == pytest.approx(0.1)


def test_diff_applied_quotients(capsys):
    import math
    code, out, _ = run(capsys, "--format", "json", "diff",
                       CORPUS / "deps.lam", "deps_id", "deps_sin",
                       "--probes", "40", "--seed", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    row = next(r for r in rows if r["x"] == 0.0 and r["b"] == 0.0)
    # at b = 0 the bound is the pure vertical gap |eps - sin eps| / eps
    want = abs(0.1 - math.sin(0.1)) / 0.1
    assert row["bound"] == pytest.approx(want, abs=1e-12)
    assert row["bound"] == pytest.approx(0.00167, abs=1e-4)


def test_diff_same_function_zero_bound_at_zero_b(capsys):
    code, out, _ = run(capsys, "--format", "json", "diff",
                       CORPUS / "basics.lam", "sinf", "sinf",
                       "--probes", "30", "--seed", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["bound"] == 0.0 for r in rows if r["b"] == 0.0)


def test_diff_type_mismatch(tmp_path, capsys):
    f = tmp_path / "mix.lam"
    f.write_text("a = \\x:Real. x\nb = 3\n")
    code, out, err = run(capsys, "diff", f, "a", "b")
    assert code == 1
    assert "type error" in err


def test_diff_json_deterministic(capsys):
    args = ("--format", "json", "diff", CORPUS / "deps.lam", "idf", "sinf",
            "--probes", "25", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_diff_json_prints_an_infinite_bound_as_a_string(tmp_path, capsys):
    """RFC 8259 JSON has no ``Infinity``: a non-finite value prints as the
    text table shows it."""
    f = tmp_path / "spike.lam"
    f.write_text("spike = \\x:Real. 1 / (x * x + 0.01)\nid = \\x:Real. x\n")
    code, out, _ = run(capsys, "--format", "json", "diff", f, "spike", "id",
                       "--probes", "5")
    assert code == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    rows = json.loads(out, parse_constant=reject)["rows"]
    bounds = [r["bound"] for r in rows]
    assert bounds.count("inf") == 16
    assert all(isinstance(b, float) for b in bounds if b != "inf")


def test_laws_builtin_pass(capsys):
    code, out, _ = run(capsys, "laws", "--builtin", "bool", "--size", "2")
    assert code == 0
    assert "pass" in out


def test_laws_chain1_size3(capsys):
    code, out, _ = run(capsys, "--format", "json", "laws", "--builtin",
                       "chain1", "--size", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["relations"] == 19683
    assert data["dominance_pairs"] == 306290


def test_laws_user_quantale(capsys):
    code, out, _ = run(capsys, "laws", "--file", CORPUS / "bool.qnt",
                       "--size", "2")
    assert code == 0



def test_laws_one_element_quantale_at_a_large_size(tmp_path, capsys):
    # one relation, however large n is: no work in n!
    one = tmp_path / "one.qnt"
    one.write_text("quantale one\nelements x\nunit x\ntensor x x = x\n")
    code, out, _ = run(capsys, "--format", "json", "laws", "--file", one,
                       "--size", "11")
    assert code == 0
    assert json.loads(out)["relations"] == 1

def test_laws_broken_quantale_rejected_structurally(capsys):
    code, out, err = run(capsys, "laws", "--file", CORPUS / "bad.qnt",
                         "--size", "2")
    assert code == 1
    assert "law violation" in err


def test_judge_golden_derivation(capsys):
    code, out, _ = run(capsys, "judge", CORPUS / "golden_sin.json")
    assert code == 0
    assert "valid" in out


def test_judge_tampered_side_condition(tmp_path, capsys):
    data = json.loads((CORPUS / "golden_sin.json").read_text())
    data["premises"][0]["conclusion"]["dist"] = "0.01"  # |0 - 0.05| > 0.01
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "judge", bad)
    assert code == 1
    assert "invalid" in out


def test_judge_unknown_rule_is_schema_error(tmp_path, capsys):
    data = json.loads((CORPUS / "golden_sin.json").read_text())
    data["rule"] = "Wizardry"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "judge", bad)
    assert code == 2
    assert "schema error" in err


def test_probe_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LAMDIST_PROBES", "41")
    code, out, _ = run(capsys, "--format", "json", "diff",
                       CORPUS / "basics.lam", "idf", "sinf", "--seed", "2")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 41


def test_shipped_id_sin_distance_is_a_member(capsys):
    # the corpus distance term witnesses the worked example syntactically
    from lamdist.eqtheory import check_dlog
    from lamdist.prims import DEFAULT_REGISTRY
    from lamdist.relations import Consistent
    from lamdist.syntax import FnType, REAL, parse_file
    defs = parse_file((CORPUS / "basics.lam").read_text(), DEFAULT_REGISTRY)
    verdict = check_dlog(FnType(REAL, REAL), defs["idf"],
                         defs["idsin_dist"], defs["sinf"], DEFAULT_REGISTRY)
    assert isinstance(verdict, Consistent)


def test_usage_error_exit_code(capsys):
    assert main(["laws"]) == 2  # missing required group
    assert main(["nonsense"]) == 2


DEEP_SUM = " + ".join(["x"] * 10_000)
BINDER_CHAIN = "".join(f"\\x{i}:Real. " for i in range(10_000)) + "x0"


def test_a_deep_definition_is_a_usage_error(tmp_path, capsys):
    """Compiling a term for ``diff`` still recurses on its depth."""
    deep = tmp_path / "deep.lam"
    deep.write_text(f"f = \\x:Real. {DEEP_SUM}\ng = \\x:Real. {DEEP_SUM}\n")
    code, out, err = run(capsys, "diff", deep, "f", "g", "--probes", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, names, body, want", [
    ("typecheck", (), f"\\x:Real. {DEEP_SUM}", "f : Real -> Real\n"),
    # a sum's derivative repeats its left argument: its text is quadratic
    ("derive", ("f",), BINDER_CHAIN, "\\x0:Real. \\x0':Real. \\x1:Real. "),
    # the types of a binder chain nest as deep as the chain
    ("typecheck", (), BINDER_CHAIN, "f : " + "Real -> " * 10_000 + "Real\n"),
], ids=["typecheck", "derive", "typecheck-chain"])
def test_a_deep_definition_is_processed(tmp_path, capsys, command, names,
                                        body, want):
    deep = tmp_path / "deep.lam"
    deep.write_text(f"f = {body}\n")
    code, out, err = run(capsys, command, deep, *names)
    assert code == 0 and err == ""
    assert out.startswith(want)


def test_the_derivative_type_of_a_binder_chain_is_reported(tmp_path, capsys):
    deep = tmp_path / "deep.lam"
    deep.write_text(f"f = {BINDER_CHAIN}\n")
    code, out, err = run(capsys, "--format", "json", "derive", deep, "f")
    assert code == 0 and err == ""
    assert json.loads(out)["type"] == "Real -> Real -> " * 10_000 + "Real"


def test_a_deep_derivation_subject_is_judged(tmp_path, capsys):
    subject = DEEP_SUM.replace("x", "1")
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({
        "rule": "Lit", "premises": [],
        "conclusion": {"ctx": [], "left": subject, "dist": "0",
                       "right": subject, "type": "Real"}}))
    code, out, err = run(capsys, "judge", deep)
    assert code == 1 and err == ""
    assert out == "invalid at node root: Lit subjects must be literals\n"


def test_a_conversion_to_a_deep_sum_is_valid(tmp_path, capsys):
    subject = DEEP_SUM.replace("x", "1")
    lit = {"ctx": [], "left": "10000", "dist": "0", "right": "10000",
           "type": "Real"}
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({
        "rule": "Conv", "premises": [
            {"rule": "Lit", "premises": [], "conclusion": lit}],
        "conclusion": {**lit, "left": subject, "right": subject}}))
    code, out, err = run(capsys, "judge", deep)
    assert code == 0 and err == ""
    assert out == f"valid:  |- ({subject}, 0, {subject}) : Real\n"


def test_types_nested_past_the_recursion_limit_are_compared(tmp_path,
                                                            capsys):
    # two arrow types 3,000 deep compare equal, and then are not Real -> Real
    chain = "".join(f"\\x{i}:Real. " for i in range(3000)) + "x0"
    deep = tmp_path / "deep.lam"
    deep.write_text(f"f = {chain}\ng = {chain}\n")
    code, out, err = run(capsys, "diff", deep, "f", "g")
    assert (code, out) == (2, "")
    assert err == ("error: diff tabulates first-order functions (got "
                   + "Real -> " * 3000 + "Real)\n")


def test_a_derivation_over_a_two_hundred_binder_chain_is_valid(tmp_path,
                                                                capsys):
    """Its distance type nests twice as deep as the chain."""
    chain = parse_term("".join(f"\\x{i}:Real. " for i in range(200)) + "x0")
    path = tmp_path / "chain.json"
    path.write_text(derivation_to_json(self_distance_derivation(chain)))
    code, out, err = run(capsys, "judge", path)
    assert (code, err) == (0, "")
    assert out.startswith("valid:  |- (\\x0:Real. \\x1:Real. ")


def test_a_recursion_past_the_limit_is_a_usage_error(monkeypatch, capsys):
    """Whatever still recurses on its input ends in one stderr line."""
    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check_derivation", overflow)
    code, out, err = run(capsys, "judge", CORPUS / "golden_sin.json")
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply to process\n"


def _subprocess_env():
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": str(src)}


def test_a_deep_definition_prints_no_traceback(tmp_path):
    import subprocess
    deep = tmp_path / "deep.lam"
    deep.write_text(f"f = {DEEP_SUM.replace('x', '1')}\n")
    proc = subprocess.run([sys.executable, "-m", "lamdist.cli", "typecheck",
                           str(deep)], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "f : Real\n" and proc.stderr == ""


def test_a_closed_stdout_exits_2_without_traceback(tmp_path):
    """``lamdist derive FILE f | head -c 400``: the derivative of a
    300-term sum is far longer than a pipe holds, so the write fails."""
    import subprocess
    sums = tmp_path / "sum.lam"
    sums.write_text("f = \\x:Real. " + " + ".join(["x"] * 300) + "\n")
    with subprocess.Popen([sys.executable, "-m", "lamdist.cli", "derive",
                           str(sums), "f"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE,
                          env=_subprocess_env()) as proc:
        assert proc.stdout.read(400).startswith(
            b"\\x:Real. \\x':Real. add_d(")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err == "error: standard output closed\n"


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone, with the file descriptor
    ``fd`` to point at devnull, or none."""

    def __init__(self, fd=None):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd

    def flush(self):
        raise BrokenPipeError


def _descriptors():
    """The file descriptors below 1024 that this process has open."""
    found = set()
    for fd in range(1024):
        try:
            os.fstat(fd)
        except OSError:
            continue
        found.add(fd)
    return found


def test_a_closed_stdout_without_a_descriptor_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["typecheck", str(CORPUS / "deps.lam")])
    assert code == 2
    assert capsys.readouterr().err == "error: standard output closed\n"


@pytest.mark.parametrize("with_descriptor", [False, True],
                         ids=["no-descriptor", "descriptor"])
def test_a_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch,
                                                   capsys, with_descriptor):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(
            target.fileno() if with_descriptor else None))
        before = _descriptors()
        assert main(["typecheck", str(CORPUS / "deps.lam")]) == 2
        assert _descriptors() == before
    assert capsys.readouterr().err == "error: standard output closed\n"


BASICS = ("diff", CORPUS / "basics.lam", "idf", "sinf")


@pytest.mark.parametrize("argv", [
    ("laws", "--builtin", "chain1", "--size", "0"),
    ("laws", "--builtin", "chain1", "--size", "-2"),
    BASICS + ("--b-max", "nan"),
    BASICS + ("--b-max", "-1"),
    BASICS + ("--probes", "-5"),
    BASICS + ("--probes", "1000001"),
    BASICS + ("--range", "5:1"),
    BASICS + ("--range", "0:inf"),
    BASICS + ("--range", "nan:1"),
    BASICS + ("--eps", "0"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "usage:" in err and "expected" in err


def test_bad_probe_budget_env_var_is_a_usage_error(capsys, monkeypatch):
    for value in ("-3", "1000001"):
        monkeypatch.setenv("LAMDIST_PROBES", value)
        code, out, err = run(capsys, *BASICS)
        assert code == 2 and out == ""
        assert err == ("error: $LAMDIST_PROBES: expected an integer from 0 "
                       f"to 1000000, got '{value}'\n")


@pytest.mark.parametrize("flag, values, setting", [
    ("--probes", ("-1", "0", "3", "1000000", "1000001"),
     lambda v: {"count": int(v)}),
    ("--b-max", ("-1", "-0.0", "0", "0.5", "1e308", "inf", "nan"),
     lambda v: {"b_max": float(v)}),
    ("--range", ("5:1", "1:1", "-1:1", "0:inf", "nan:1", "-1e308:1e308"),
     lambda v: dict(zip(("lo", "hi"), map(float, v.split(":"))))),
], ids=["count", "radius", "range"])
def test_the_flags_refuse_what_probe_config_refuses(capsys, flag, values,
                                                    setting):
    for value in values:
        try:
            ProbeConfig(**setting(value))
            valid = True
        except ValueError:
            valid = False
        try:
            build_parser().parse_args(["diff", "f", "a", "b",
                                       f"{flag}={value}"])
            parsed = True
        except SystemExit:
            parsed = False
        assert parsed == valid, (flag, value)
    capsys.readouterr()


def test_an_overflowing_range_width_is_a_usage_error(capsys):
    """Both bounds are finite, but HI - LO is not: samples would be inf."""
    code, out, err = run(capsys, *BASICS, "--range=-1e308:1e308")
    assert code == 2 and out == ""
    assert "usage:" in err and "expected a finite width HI - LO" in err


def test_a_negative_range_may_follow_its_flag(capsys):
    """``--range LO:HI`` with a negative LO reads as written, the same as
    ``--range=LO:HI``; restating the default changes nothing."""
    deps = ("--format", "json", "diff", CORPUS / "deps.lam", "idf", "sinf")
    outputs = {}
    for flags in ((), ("--range", "-10:10"), ("--range", "-1:1"),
                  ("--range=-1:1",), ("--ran", "-1:1"),
                  ("--range", "-2:2", "--range", "-1:1")):
        code, out, err = run(capsys, *deps, *flags)
        assert code == 0 and err == ""
        outputs[flags] = out
    assert outputs[("--range", "-10:10")] == outputs[()]
    assert (outputs[("--range", "-1:1")] == outputs[("--range=-1:1",)]
            == outputs[("--ran", "-1:1")]
            == outputs[("--range", "-2:2", "--range", "-1:1")]
            != outputs[()])
    code, out, err = run(capsys, *BASICS, "--range", "-1e308:1e308")
    assert code == 2 and out == ""
    assert "expected a finite width HI - LO, got '-1e308:1e308'" in err


@pytest.mark.parametrize("argv", [
    ("typecheck", "{}"), ("derive", "{}", "f"), ("diff", "{}", "f", "f"),
    ("laws", "--file", "{}"), ("judge", "{}"),
], ids=["typecheck", "derive", "diff", "laws", "judge"])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, argv):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"f = \\x:Real. x\n# caf\xe9\n")
    code, out, err = run(capsys, *(a.format(latin) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {latin}: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("typecheck", "{}"), ("laws", "--file", "{}"), ("judge", "{}"),
], ids=["typecheck", "laws", "judge"])
def test_a_missing_file_is_a_usage_error(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(missing) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {missing}: [Errno 2]")


def test_a_context_name_that_is_no_variable_is_a_schema_error(tmp_path,
                                                               capsys):
    bad = tmp_path / "ctx.json"
    bad.write_text(json.dumps({
        "rule": "Lit", "premises": [],
        "conclusion": {"ctx": [[1, "Real"]], "left": "1", "dist": "0",
                       "right": "1", "type": "Real"}}))
    code, out, err = run(capsys, "judge", bad)
    assert code == 2 and out == ""
    assert err == "schema error: $.conclusion: expected a string, got int\n"


@pytest.mark.parametrize("command, body, want", [
    ("typecheck", "g = fst(3)", (1, "g: type error: projection of "
                                    "non-product of type Real in fst(3)\n")),
    ("derive", "f = fst(3)", (1, "type error: projection of non-product "
                                 "of type Real in fst(3)\n")),
    ("derive", "f = \\x:Real. \\x':Real. x", (
        1, "error: cannot differentiate: primed variable(s) [\"x'\"] "
           "already occur\n")),
    ("derive", "g = 1", (2, "error: no definition named 'f'\n")),
    ("diff", "f = \\f:Real->Real. f", (
        2, "error: diff tabulates first-order functions "
           "(got (Real -> Real) -> Real -> Real)\n")),
    ("diff", "f = \\x:Real. 1 / x", (
        1, "evaluation error: div(1.0, 0.0) outside declared domain\n")),
    ("diff", "f = \\x:Real. sin_d(x, -1)", (
        1, "evaluation error: sin_d(0.0, -1.0) outside declared domain\n")),
    ("diff", "f = \\x:Real. sin_d(x, 0 - x * x)", (
        1, "evaluation error: sin_d has no analytic modulus and its "
           "implementation does not accept intervals\n")),
], ids=["typecheck-name", "derive-type", "derive-primed", "unknown-name",
        "higher-order-diff", "diff-domain", "diff-negative-radius",
        "diff-variable-radius"])
def test_each_failure_has_its_code_and_one_line(tmp_path, capsys, command,
                                                body, want):
    src = tmp_path / "defs.lam"
    src.write_text(body + "\n")
    names = {"typecheck": (), "derive": ("f",), "diff": ("f", "f")}[command]
    code, out, err = run(capsys, command, src, *names)
    assert (code, err) == want and out == ""


def test_a_negative_radius_in_a_conversion_is_an_evaluation_error(tmp_path,
                                                                  capsys):
    """Normalizing the distance runs ``sin_d`` exactly on a radius below 0,
    outside the domain every derived primitive declares."""
    lit = {"rule": "Lit", "premises": [], "conclusion": {
        "ctx": [], "left": "0", "dist": "0", "right": "0", "type": "Real"}}
    conv = tmp_path / "conv.json"
    conv.write_text(json.dumps({"rule": "Conv", "premises": [lit],
                                "conclusion": {**lit["conclusion"],
                                               "dist": "sin_d(0, -1)"}}))
    code, out, err = run(capsys, "judge", conv)
    assert (code, out) == (1, "")
    assert err == ("evaluation error: sin_d(Fraction(0, 1), Fraction(-1, 1)) "
                   "outside declared domain\n")


BIG = "1" + "0" * 400  # a literal beyond the float range


def test_a_literal_beyond_the_float_range_is_an_evaluation_error(tmp_path,
                                                                 capsys):
    src = tmp_path / "big.lam"
    src.write_text(f"f = \\x:Real. x + {BIG}\n")
    code, out, err = run(capsys, "diff", src, "f", "f")
    assert (code, out) == (1, "")
    assert err == (f"evaluation error: literal {BIG} is beyond the float "
                   "range\n")


def test_a_sine_beyond_the_float_range_in_a_conversion(tmp_path, capsys):
    """Normalizing the distance runs ``sin`` exactly on a rational that no
    float holds, outside its domain of finite floats."""
    lit = {"rule": "Lit", "premises": [], "conclusion": {
        "ctx": [], "left": "0", "dist": "2", "right": "0", "type": "Real"}}
    conv = tmp_path / "conv.json"
    conv.write_text(json.dumps({"rule": "Conv", "premises": [lit],
                                "conclusion": {
                                    **lit["conclusion"],
                                    "dist": f"sin({BIG}) - sin({BIG}) + 2"}}))
    code, out, err = run(capsys, "judge", conv)
    assert (code, out) == (1, "")
    assert err == (f"evaluation error: sin(Fraction({BIG}, 1),) "
                   "outside declared domain\n")
