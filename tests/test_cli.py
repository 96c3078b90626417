import ast
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import p1p3bundle
from p1p3bundle import claims, cli, pencilfile
from p1p3bundle.errors import PencilParseError, SolverError
from p1p3bundle.poly import ParamPoly


def test_verify_single_claim(capsys):
    assert cli.main(["verify", "--claim", "eq5"]) == 0
    out = capsys.readouterr().out
    assert "eq5" in out and "PASS" in out
    assert "1 passed, 0 failed" in out


def test_verify_all_claims_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert ", 0 failed" in out


def test_verify_unknown_claim_exits_2(capsys):
    assert cli.main(["verify", "--claim", "nonexistent"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_verify_reports_a_raising_check_as_a_fail(capsys, monkeypatch):
    def raising():
        raise SolverError("no solution")

    claim = claims.REGISTRY["prop5.4"]
    monkeypatch.setitem(claims.REGISTRY, "prop5.4", dataclasses.replace(claim, check=raising))
    assert cli.main(["verify", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"] == {"pass": 24, "fail": 1}
    failed = [r for r in report["claims"] if r["status"] == "FAIL"]
    assert [(r["id"], r["computed"]) for r in failed] == [("prop5.4", "SolverError: no solution")]
    assert all(set(r) == {"id", "status", "computed", "expected", "anchor", "elapsed_ms"}
               for r in report["claims"])
    assert cli.main(["verify", "--claim", "prop5.4", "--claim", "eq5"]) == 1
    out = capsys.readouterr().out
    assert "computed: SolverError: no solution" in out and "1 passed, 1 failed" in out


def test_verify_json_schema(capsys):
    assert cli.main(["verify", "--claim", "prop2.1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"claims", "summary"}
    assert set(report["summary"]) == {"pass", "fail"}
    assert report["summary"] == {"pass": 1, "fail": 0}
    (record,) = report["claims"]
    assert set(record) == {"id", "status", "computed", "expected", "anchor", "elapsed_ms"}
    assert record["status"] == "PASS"


def test_verify_json_deterministic_up_to_timing(capsys):
    ids = ["eq5", "lemma3.4", "prop2.2", "prop5.3-e0", "prop6.1a", "serre-duality"]

    def snapshot():
        args = ["verify", "--json"]
        for claim_id in ids:
            args += ["--claim", claim_id]
        cli.main(args)
        report = json.loads(capsys.readouterr().out)
        for record in report["claims"]:
            record["elapsed_ms"] = 0
        return json.dumps(report, sort_keys=True)

    assert snapshot() == snapshot()


def test_verify_json_sorted_by_id(capsys):
    cli.main(["verify", "--json"])
    report = json.loads(capsys.readouterr().out)
    ids = [r["id"] for r in report["claims"]]
    assert ids == sorted(ids)
    assert len(ids) >= 15


_LIST = """\
eq5              chi(E(a,b)) from Riemann-Roch equals the cubic closed form  [Eq. (5)]
hrr-oracle       Riemann-Roch chi of O(a,b) matches Kunneth tables on [-8,8]^2  [Sec. 3 / Bott-Kunneth]
intro-h1         h^1(O(a,b)) = -(a+1) C(b+3,3) for a in [-6,-2], b in [0,5]  [Introduction]
lemma1.3-linear  linear rank-2 normal form admits exactly 2 rank-1 quadrics  [Lemma 1.3]
lemma1.4-family  degree-4 witness: 4 rank-1 parameters, moving singular line  [Lemma 1.4 / Sec. 1 (7)]
lemma3.4         long exact sequence gives h^i(I_X) = (0,0,2,1,0)  [Lemma 3.4]
lemma4.2         c2(E_t(-2)) = 2 and arithmetic genus -3 of X_t  [Lemma 4.2]
lemma5.2         embedding classification yields (0,1,1) and (2,1,2) only  [Lemma 5.2]
lemma5.5         multiplication maps of sections on P1 are surjective  [Lemma 5.5]
lemma6.5-r1      jumping divisor degree 4 with one kernel summand  [Lemma 6.5]
lemma6.5-r2      jumping divisor degree 4 with two kernel summands  [Lemma 6.5]
lemma6.5-r3      jumping divisor degree 4 with three kernel summands  [Lemma 6.5]
prop2.1          tensor square 20, type (10,10), no element of order 4  [Prop. 2.1]
prop2.2          symmetry group has order 8, dihedral relations, abelianization (2,2)  [Prop. 2.2]
prop3.1          stable for O(1,1) with threshold 7  [Prop. 3.1]
prop4.1          h^0(E_t(-2)) = 1 from the restriction sequence  [Prop. 4.1]
prop5.3-e0       double-structure solver: (x,y,d) = (2,-2,4) for e = 0  [Prop. 5.3]
prop5.3-e2       double-structure solver: (x,y,d) = (2,0,4) for e = 2  [Prop. 5.3]
prop5.4          degree-4 line bundle cannot embed into the normal bundle, e = 2 obstructed  [Prop. 5.4]
prop5.6          (a,b)-normality for b >= 3 and (0,1); codimension bounds otherwise  [Prop. 5.6 / Remark 5.7]
prop6.1a         horizontal generic splitting type (2,2)  [Prop. 6.1(a)]
prop6.1b         vertical generic splitting type (1,1)  [Prop. 6.1(b)]
prop6.2b         splitting type (4,0) on a transversal jumping line  [Prop. 6.2(b)]
remark3.3        stability region is exactly n < 18m for all m, n > 0, cross-checked on [1,40]^2  [Remark 3.3]
serre-duality    Serre duality table symmetry on [-8,8]^2  [Lemma 3.4 proof]
"""


def test_list_command(capsys):
    # every id, description and anchor, as the checker has always listed them
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out == _LIST


def test_a_claim_id_is_registered_once(monkeypatch):
    monkeypatch.setattr(claims, "REGISTRY", dict(claims.REGISTRY))
    with pytest.raises(ValueError, match="duplicate claim id 'eq5'"):
        claims._claim("eq5", "again", "Eq. (5)")(lambda: None)
    claims._claim("new", "a check run with its arguments", "nowhere", 2, 3)(lambda x, y: x * y)
    assert claims.get_claim("new").check() == 6


def test_calc_chi(capsys):
    assert cli.main(["calc", "chi", "--", "-2", "-4"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert cli.main(["calc", "chi", "0", "0"]) == 0
    assert capsys.readouterr().out.strip() == "-6"


def test_calc_cohom(capsys):
    assert cli.main(["calc", "cohom", "--", "-2", "0"]) == 0
    assert capsys.readouterr().out.strip() == "(0, 1, 0, 0, 0)"


def test_calc_slope(capsys):
    assert cli.main(["calc", "slope", "1", "1", "1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "7"


@pytest.mark.parametrize("kind, arity", [("chi", 2), ("cohom", 2), ("slope", 4)])
def test_calc_answer_past_the_digit_limit_exits_2(kind, arity, capsys):
    # the answers are cubic in the twist: 1,434 nines make one of more than
    # 4300 digits, which CPython refuses to convert to a string
    for nines, code in [(1433, 0), (1434, 2)]:
        argv = ["calc", kind, "1", "9" * nines] + ["1"] * (arity - 2)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert captured.out.endswith("\n") and not captured.err
        else:
            assert captured.out == ""
            assert captured.err == "error: the answer has more than 4300 digits\n"


def test_parse_form():
    assert pencilfile.parse_form("3*l^2*m - 1/2*m^3", 3) == (Fraction(-1, 2), 0, 3, 0)
    assert pencilfile.parse_form("0", 2) == (0, 0, 0)
    assert pencilfile.parse_form("-l", 1) == (0, -1)
    assert pencilfile.parse_form("l*m + m*l", 2) == (0, 2, 0)
    assert pencilfile.parse_form("l - l + m^3", 3) == (1, 0, 0, 0)  # cancelled terms are dropped
    for text, degree in [("l + l*m", 1), ("l + l*m", 2), ("l", 2), ("x^0*l", 1)]:
        with pytest.raises(PencilParseError):
            pencilfile.parse_form(text, degree)
    with pytest.raises(PencilParseError, match=re.escape("'l + l*m' is not a form of degree 2")):
        pencilfile.parse_form("l + l*m", 2)


def _coefficients(p, degree):
    """The coefficient tuple of a ParamPoly in l and m, or None unless it
    is a binary form of `degree` (zero is a form of every degree)."""
    out = [0] * (degree + 1)
    for mono, c in p.terms.items():
        powers = dict(mono)
        if sum(powers.values()) != degree:
            return None
        out[powers.get("l", 0)] = c
    return tuple(out)


@st.composite
def _forms(draw):
    """(ParamPoly in l and m with rational coefficients, degree d): mostly a
    form of degree d, sometimes with a monomial of another degree."""
    degree = draw(st.integers(0, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)):
            i = draw(st.integers(0, degree))
            exps = (i, degree - i)
        else:
            exps = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
        mono = tuple((v, e) for v, e in zip("lm", exps) if e)
        terms[mono] = draw(st.fractions(min_value=-50, max_value=50, max_denominator=12))
    return ParamPoly(terms), degree


@settings(max_examples=300, deadline=None)
@given(_forms())
def test_parse_form_round_trips_str(form):
    p, degree = form
    want = _coefficients(p, degree)
    if want is None:
        with pytest.raises(PencilParseError, match="is not a form of degree %d" % degree):
            pencilfile.parse_form(str(p), degree)
    else:
        assert pencilfile.parse_form(str(p), degree) == want


# The token grammar of the pencil file format, copied here so that the
# oracle below does not move with the parser it checks (ASCII only: \d and
# \w would also match digits such as '٣').
_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]\w*)(?:\^(?P<exp>\d+))?|(?P<star>\*))",
    re.ASCII,
)


def _reference_number(convert, digits):
    try:
        return convert(digits)
    except ValueError:
        raise PencilParseError("number of %d characters is too long" % len(digits)) from None


def _reference_parse_form(text):
    """The per-token parser that `parse_form` replaced, kept as its oracle:
    every constant, variable, factor and term is a ParamPoly of its own."""
    variables = ("l", "m")
    pos = 0
    total = ParamPoly.const(0)
    term = None  # (coefficient, ParamPoly of variables) while being read
    sign = 1
    pending_sign = False
    expect_factor = False

    def flush():
        nonlocal total, term
        if term is not None:
            coeff, mono = term
            total = total + ParamPoly.const(coeff) * mono
            term = None

    while pos < len(text):
        match = _REFERENCE_TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise PencilParseError("cannot parse %r at position %d" % (text, pos))
        pos = match.end()
        if match.group("sign"):
            if expect_factor or pending_sign:
                raise PencilParseError("misplaced sign in %r" % text)
            flush()
            sign = 1 if match.group("sign") == "+" else -1
            pending_sign = True
        elif match.group("num"):
            pending_sign = False
            if term is not None and not expect_factor:
                raise PencilParseError("missing '*' before %r in %r" % (match.group("num"), text))
            try:
                value = _reference_number(Fraction, match.group("num"))
            except ZeroDivisionError:
                raise PencilParseError("zero denominator in %r" % text) from None
            if term is None:
                term = (value * sign, ParamPoly.const(1))
            else:
                term = (term[0] * value, term[1])
            sign = 1
            expect_factor = False
        elif match.group("var"):
            pending_sign = False
            name = match.group("var")
            if name not in variables:
                raise PencilParseError("bad variable %r in %r: use l, m and l^2" % (name, text))
            if term is not None and not expect_factor:
                raise PencilParseError("missing '*' before %r in %r" % (name, text))
            factor = ParamPoly.var(name, _reference_number(int, match.group("exp") or "1"))
            if term is None:
                term = (Fraction(sign), factor)
                sign = 1
            else:
                term = (term[0], term[1] * factor)
            expect_factor = False
        elif match.group("star"):
            if term is None or expect_factor:
                raise PencilParseError("misplaced '*' in %r" % text)
            expect_factor = True
    if expect_factor:
        raise PencilParseError("dangling '*' in %r" % text)
    if pending_sign:
        raise PencilParseError("dangling sign in %r" % text)
    flush()
    return total


def _outcome(parse, text):
    try:
        return parse(text)
    except PencilParseError as exc:
        return "error: %s" % exc


_FACTORS = ["0", "1", "2", "12", "007", "3/4", "6/3", "0/5", "l", "m", "l^2", "m^3", "l^0", "m^0"]
_BAD_FACTORS = ["1/0", "x", "l2", "l^", "^2", "/", "/2"]
_SEPARATORS = ["*", "*", "*", " * "]
_BAD_SEPARATORS = ["", " ", "**", " ^ ", "^", "*-"]
_SIGNS = [" + ", " - ", "+", "-"]
_BAD_SIGNS = ["", " ", "--", "-+", " +- "]


@st.composite
def _grammar_strings(draw):
    """Strings over the grammar's alphabet: sums of products in which each
    piece is sometimes replaced by a broken one (a zero denominator, a bad
    variable, a doubled, misplaced or missing operator), and some plain
    token soup."""
    def piece(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 15)) == 0 else good))

    if draw(st.integers(0, 4)) == 0:
        every = _FACTORS + _BAD_FACTORS + _SEPARATORS + _BAD_SEPARATORS + _SIGNS + _BAD_SIGNS
        return "".join(draw(st.lists(st.sampled_from(every), max_size=12)))
    text = draw(st.sampled_from(["", "", "", "-", "+", "- "]))
    for i in range(draw(st.integers(1, 4))):
        if i:
            text += piece(_SIGNS, _BAD_SIGNS)
        for j in range(draw(st.integers(1, 4))):
            text += (piece(_SEPARATORS, _BAD_SEPARATORS) if j else "") + piece(_FACTORS, _BAD_FACTORS)
    return text + piece([""], [" ", "*", "+", "-"])


@settings(max_examples=1500, deadline=None)
@given(_grammar_strings(), st.integers(0, 8))
def test_parse_form_agrees_with_the_per_token_parser(text, degree):
    # a homogeneous reference result is compared at its own degree, zero at
    # the drawn one; any other must be rejected as not a form of that degree
    want = _outcome(_reference_parse_form, text)
    if isinstance(want, ParamPoly):
        degrees = {sum(e for _, e in mono) for mono in want.terms}
        if len(degrees) == 1:
            degree = degrees.pop()
        want = _coefficients(want, degree)
        if want is None:
            want = "error: %r is not a form of degree %d" % (text, degree)
    assert _outcome(lambda t: pencilfile.parse_form(t, degree), text) == want


def test_pencil_rank_builds_no_parampoly(tmp_path, monkeypatch):
    # entries stay coefficient tuples from the parser to the rank analysis
    def refuse(*args, **kwargs):
        raise AssertionError("a ParamPoly was built")

    monkeypatch.setattr(ParamPoly, "__init__", refuse)
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree 2", [
        "l^2 - 1/2*m*l", "l*m", "0", "0",
        "m^2 + 3*m*m", "0", "0",
        "0", "0",
        "0",
    ])
    p = pencilfile.load_pencil(str(f))
    assert p.entries[0][0] == (0, Fraction(-1, 2), 1)
    assert p.generic_rank() == 2
    assert p.rank1_parameter_count() == 3  # the roots of l*m^2*(3*l - 2*m)


def test_parse_form_rejects_garbage():
    cases = [
        ("l +", "dangling sign"),
        ("* l", "misplaced '*'"),
        ("2 ** m", "misplaced '*'"),
        ("x + y", "bad variable 'x'"),
        ("l^", "cannot parse"),
        ("2l", "missing '*'"),
        ("l m", "missing '*'"),
        ("2 l^2", "missing '*'"),
        ("l2", "bad variable 'l2'"),
        ("1/0*l", "zero denominator"),
        ("l - - m", "misplaced sign"),
        ("--l", "misplaced sign"),
        ("+-l", "misplaced sign"),
    ]
    for text, message in cases:
        with pytest.raises(PencilParseError, match=re.escape(message)):
            pencilfile.parse_form(text, 1)


def _write_pencil(path, header, lines):
    path.write_text("\n".join([header] + lines) + "\n")


def test_pencil_rank_file(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    # the rank-2 normal form with (a0, a1, a2) = (2, 1, 3)
    _write_pencil(f, "degree 1", [
        "2*l + m", "l", "0", "0",
        "3*l + m", "0", "0",
        "0", "0",
        "0",
    ])
    assert cli.main(["calc", "pencil-rank", str(f)]) == 0
    out = capsys.readouterr().out
    assert "generic rank: 2" in out
    assert "rank-1 parameters: 2" in out


def test_readme_pencil_example(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Pencil file format\n", 1)[1]
    example = section.split("```\n", 2)[1]
    f = tmp_path / "pencil.txt"
    f.write_text(example)
    assert cli.main(["calc", "pencil-rank", str(f)]) == 0
    assert capsys.readouterr().out == "degree: 1\ngeneric rank: 2\nrank-1 parameters: 2\n"


def test_pencil_rank_whole_line(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree 2", [
        "l^2", "l*m", "0", "0",
        "m^2", "0", "0",
        "0", "0",
        "0",
    ])
    assert cli.main(["calc", "pencil-rank", str(f)]) == 0
    assert "whole line" in capsys.readouterr().out


def test_pencil_file_errors(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("degree 1\nl\n")
    assert cli.main(["calc", "pencil-rank", str(f)]) == 2
    f.write_text("no header\n" + "0\n" * 10)
    assert cli.main(["calc", "pencil-rank", str(f)]) == 2
    f.write_text("degree 2\n" + "l\n" + "0\n" * 9)  # entry degree mismatch
    assert cli.main(["calc", "pencil-rank", str(f)]) == 2
    assert cli.main(["calc", "pencil-rank", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_pencil_zero_denominator_exits_2(tmp_path, capsys):
    f = tmp_path / "zero.txt"
    _write_pencil(f, "degree 1", ["1/0*l"] + ["0"] * 9)
    assert cli.main(["calc", "pencil-rank", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: zero denominator")
    assert captured.out == ""


def test_pencil_doubled_sign_exits_2(tmp_path, capsys):
    # 'l - - m' is l + m, so reading it as l - m would change the pencil
    f = tmp_path / "sign.txt"
    _write_pencil(f, "degree 1", ["l - - m"] + ["0"] * 9)
    assert cli.main(["calc", "pencil-rank", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: misplaced sign")
    assert captured.out == ""


def test_pencil_indented_comment_is_ignored(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree 1", [
        "2*l + m", "l", "  # an indented note", "0", "0",
        "3*l + m", "0", "0",
        "0", "0",
        "0",
    ])
    assert cli.main(["calc", "pencil-rank", str(f)]) == 0
    assert "generic rank: 2" in capsys.readouterr().out


_COMPUTATION = {"chern", "chow", "cohom", "geometry", "heisenberg", "pencil", "pencilfile", "poly",
                "stability"}


def _modules_loaded_by(code, package="p1p3bundle"):
    """The modules of `package` a fresh interpreter has loaded after running `code`."""
    script = (code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith(%r)))"
              % package)
    env = dict(os.environ, PYTHONPATH=str(Path(p1p3bundle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return {m.partition(".")[2] or m for m in proc.stdout.splitlines()[-1].split()}


# The computation modules each cold command loads, one row per claim and
# per calculator: a module imported where nothing in the command uses it
# shows here as a changed row.
_SECTION5 = {"geometry", "chern", "chow", "poly"}  # the intersection numbers, no table
_LOADS = {
    "eq5": _SECTION5,
    "hrr-oracle": {"cohom", "chern", "chow", "poly"},
    "intro-h1": {"cohom"},
    "lemma1.3-linear": {"pencil", "poly"},  # the pencil claims build their pencils in code
    "lemma1.4-family": {"pencil", "poly"},
    "lemma3.4": {"cohom"},
    "lemma4.2": {"chern", "chow", "poly"},
    "lemma5.2": _SECTION5,
    "lemma5.5": _SECTION5,
    "lemma6.5-r1": _SECTION5,
    "lemma6.5-r2": _SECTION5,
    "lemma6.5-r3": _SECTION5,
    "prop2.1": {"heisenberg", "chern", "chow", "poly"},
    "prop2.2": {"heisenberg"},
    "prop3.1": {"stability", "chern", "chow", "poly"},  # det E comes from c1(E)
    "prop4.1": {"cohom"},
    "prop5.3-e0": _SECTION5,
    "prop5.3-e2": _SECTION5,
    "prop5.4": _SECTION5,
    "prop5.6": _SECTION5 | {"cohom"},  # normality reads h^1 on Sigma_0
    "prop6.1a": _SECTION5 | {"cohom"},
    "prop6.1b": _SECTION5,
    "prop6.2b": _SECTION5,
    "remark3.3": {"stability", "chern", "chow", "poly"},
    "serre-duality": {"cohom"},
    "chi": {"chern", "chow", "poly"},
    "cohom": {"cohom"},
    "slope": {"stability", "chow", "poly"},
    "pencil-rank": {"pencilfile", "pencil", "poly"},  # only a file needs its format
}


def test_commands_load_only_the_modules_they_use(tmp_path):
    assert _modules_loaded_by("import p1p3bundle.cli") == {"p1p3bundle", "cli", "claims", "errors"}
    assert _LOADS.keys() == claims.REGISTRY.keys() | cli._CALC_ARGS.keys()
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree 1", ["l"] + ["0"] * 9)
    calc_args = {"chi": ["1", "2"], "cohom": ["1", "2"], "slope": ["1", "1", "1", "2"],
                 "pencil-rank": [str(f)]}
    for name, used in _LOADS.items():
        argv = (["calc", name] + calc_args[name] if name in calc_args
                else ["verify", "--claim", name, "--json"])
        loaded = _modules_loaded_by("from p1p3bundle import cli\nassert cli.main(%r) == 0" % argv)
        assert loaded & _COMPUTATION == used, argv


def test_verify_compiles_no_pencil_pattern():
    # the pencil patterns are compiled when `pencilfile` is imported, which
    # only a pencil file does: a cold verify of every claim compiles none
    code = """
import re
compiled = []
_compile = re.compile
def counting_compile(pattern, flags=0):
    compiled.append(pattern)
    return _compile(pattern, flags)
re.compile = counting_compile
from p1p3bundle import cli
assert cli.main(["verify"]) == 0
before = set(compiled)
from p1p3bundle import pencilfile
ours = {pencilfile.TOKEN.pattern, pencilfile.HEADER.pattern}
assert ours <= set(compiled), "the counter does not see the pencil patterns"
assert not ours & before, "compiled before the first pencil file"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(p1p3bundle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_computation_modules_do_not_load_dataclasses():
    # their records are tuples; only the claim registry is a dataclass
    code = "from p1p3bundle import cohom, stability, geometry, heisenberg"
    assert _modules_loaded_by(code, "dataclasses") == set()


def test_importing_cli_loads_no_fractions():
    assert _modules_loaded_by("import p1p3bundle.cli", "fractions") == set()


def test_every_module_level_import_is_used():
    # no linter is installed, so the package's own check: each name that a
    # module imports at its top level is read somewhere in that module
    unused = []
    for path in sorted(Path(p1p3bundle.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += ["%s:%d %s" % (path.name, node.lineno, n) for n in names if n not in read]
    assert unused == []


def test_usage_error_exits_2():
    assert cli.main(["calc", "chi", "notanint", "0"]) == 2


def test_usage_errors_reach_the_current_stderr():
    # the parser is built once per process; argparse must still print to
    # whatever sys.stderr is when it reports an error
    assert cli.build_parser() is cli.build_parser()
    cases = [
        (["calc", "chi", "notanint", "0"], "invalid int value: 'notanint'"),
        (["nosuchcommand"], "invalid choice: 'nosuchcommand'"),
    ]
    captured = []
    for argv, _ in cases:
        err = io.StringIO()
        with redirect_stderr(err):
            assert cli.main(argv) == 2
        captured.append(err.getvalue())
    assert cases[0][1] in captured[0] and cases[1][1] not in captured[0]
    assert cases[1][1] in captured[1] and cases[0][1] not in captured[1]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["list"], ["verify", "--claim", "eq5"]])
def test_unwritable_stdout_exits_2(argv):
    # /dev/full fails every write; buffered or not, the failure is one line
    # on stderr and exit 2, never a traceback nor exit 1 (a failed claim)
    env = dict(os.environ, PYTHONPATH=str(Path(p1p3bundle.__file__).parents[1]))
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "p1p3bundle.cli"] + argv, stdout=full,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


_NINES = ["9" * 1433, "9" * 1434]
_JUNK = ["", "x", "-", "--json", "--claim", "eq5", "1.5", "0x1f", "1_0", "\u0663", "-h"]


@st.composite
def _wide_ints(draw):
    """An int of 1 to 4300 digits, either sign, as argparse reads it."""
    digits = draw(st.sampled_from("123456789")) * draw(st.integers(1, 4300))
    return draw(st.sampled_from(["", "-"])) + digits


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["chi", "cohom", "slope", "pencil-rank", "verify", "list"]))
    head = [command] if command in ("verify", "list") else ["calc", command]
    token = st.one_of(_wide_ints(), st.integers(-50, 50).map(str), st.just("--"), st.sampled_from(_JUNK))
    return head + draw(st.lists(token, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_argvs())
@example(["calc", "chi", "1", _NINES[0]])
@example(["calc", "chi", "1", _NINES[1]])
@example(["calc", "cohom", "--", "1", "-" + _NINES[1]])
@example(["calc", "slope", "1", _NINES[1], "1", "1"])
@example(["calc", "slope", "-40", "--", "--", "-33", "25"])
@example(["calc", "chi", "1", "--", "--"])
def test_main_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), argv
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()


@pytest.mark.parametrize("argv", [["calc", "slope", "-40", "--", "--", "-33", "25"],
                                  ["calc", "chi", "1", "--", "--"]])
def test_a_repeated_double_dash_is_a_usage_error(argv, capsys):
    # CPython 3.11's argparse hands the positional after the second '--' an
    # empty list, which no `type` converter has seen
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: p1p3bundle calc %s [-h] " % argv[1]), captured.err


def _pencil_exit(path, capsys):
    code = cli.main(["calc", "pencil-rank", str(path)])
    return code, capsys.readouterr()


def test_pencil_malformed_headers_exit_2(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    # '²'.isdigit() is True, and '--3'.lstrip('-') is '3'
    for header in ("degree \u00b2", "degree --3", "degreex 1"):
        _write_pencil(f, header, ["0"] * 10)
        code, captured = _pencil_exit(f, capsys)
        assert code == 2
        assert captured.err.startswith("error: malformed degree header")


def test_pencil_degree_cap(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree %d" % pencilfile.MAX_DEGREE, ["0"] * 10)
    code, captured = _pencil_exit(f, capsys)
    assert code == 0 and captured.out.startswith("degree: %d\n" % pencilfile.MAX_DEGREE)
    # rejected from the header alone, before any entry or list is built
    for degree, entry in [(pencilfile.MAX_DEGREE + 1, "0"), (100000000, "l^100000000")]:
        _write_pencil(f, "degree %d" % degree, [entry] + ["0"] * 9)
        code, captured = _pencil_exit(f, capsys)
        assert code == 2 and captured.out == ""
        message = "error: degree %d is above the cap of %d\n" % (degree, pencilfile.MAX_DEGREE)
        assert captured.err == message


def test_pencil_numbers_past_the_digit_limit_exit_2(tmp_path, capsys):
    # CPython converts at most 4300 digits by default
    digits = "1" * 5000
    f = tmp_path / "pencil.txt"
    for header, entry, length in [("degree " + digits, "l", 5000), ("degree 1", "l^" + digits, 5000),
                                  ("degree 1", digits + "*l", 5000), ("degree 1", "1/" + digits + "*l", 5002)]:
        _write_pencil(f, header, [entry] + ["0"] * 9)
        code, captured = _pencil_exit(f, capsys)
        assert code == 2 and captured.out == ""
        assert captured.err == "error: number of %d characters is too long\n" % length


def test_pencil_invalid_utf8_exits_2(tmp_path, capsys):
    f = tmp_path / "pencil.txt"
    f.write_bytes(b"degree 1\n\xff\xfe l\n" + b"0\n" * 9)
    code, captured = _pencil_exit(f, capsys)
    assert code == 2
    assert captured.err.startswith("error: ") and "not UTF-8" in captured.err


def test_pencil_overlong_file_is_rejected_before_it_is_read_whole(tmp_path, capsys):
    # the byte past the 100,000 lines is not UTF-8; reading stops before it
    f = tmp_path / "pencil.txt"
    f.write_bytes(b"degree 1\n" + b"0\n" * 100000 + b"\xff\n")
    code, captured = _pencil_exit(f, capsys)
    assert code == 2
    assert captured.err == "error: expected 10 entry lines, got more than 10\n"


def test_pencil_non_ascii_digits_are_rejected(tmp_path, capsys):
    for entry in ("\u0663*l", "l^\u0663", "1/\u0663*l"):  # '٣' is an Arabic-Indic 3
        with pytest.raises(PencilParseError, match="cannot parse"):
            pencilfile.parse_form(entry, 1)
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree 1", ["\u0663*l"] + ["0"] * 9)
    code, captured = _pencil_exit(f, capsys)
    assert code == 2
    assert captured.err.startswith("error: cannot parse")
    _write_pencil(f, "degree \u0661", ["l"] + ["0"] * 9)
    assert _pencil_exit(f, capsys)[0] == 2


class _CountingPattern:
    """A compiled pattern that counts the calls of its methods."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args):
            self.calls += 1
            return method(*args)

        return counted


def test_pencil_entry_term_cap(tmp_path, capsys, monkeypatch):
    cap = pencilfile.MAX_DEGREE + 1  # the monomials of a binary form of degree MAX_DEGREE
    full = " + ".join("l^%d*m^%d" % (i, pencilfile.MAX_DEGREE - i) for i in range(cap))
    assert pencilfile.parse_form(full, pencilfile.MAX_DEGREE) == (1,) * cap
    assert pencilfile.parse_form("+".join(["0"] * cap), 0) == (0,)
    message = "entry has more than %d terms" % cap
    with pytest.raises(PencilParseError, match=message):
        pencilfile.parse_form("+".join(["0"] * (cap + 1)), 0)
    f = tmp_path / "pencil.txt"
    _write_pencil(f, "degree %d" % pencilfile.MAX_DEGREE, [full] + ["0"] * 9)
    code, captured = _pencil_exit(f, capsys)
    assert code == 0 and captured.out.startswith("degree: %d\n" % pencilfile.MAX_DEGREE)
    # the 3,000,000-term entry of the CI step, rejected without echoing it
    # after at most a sign and a number per term up to term MAX_DEGREE + 2:
    # counted by wrapping the token pattern
    token = _CountingPattern(pencilfile.TOKEN)
    monkeypatch.setattr(pencilfile, "TOKEN", token)
    _write_pencil(f, "degree 1", ["+".join(["0"] * 3000000)] + ["0"] * 9)
    code, captured = _pencil_exit(f, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % message
    assert 0 < token.calls <= 2 * (pencilfile.MAX_DEGREE + 2)


# Pencil files drawn from the grammar's alphabet, plus Unicode digits and
# bytes that are not UTF-8.  Most lines are well formed, so that parsing
# and the rank analysis are reached; header numbers have at most three
# characters, so an accepted pencil never has a huge degree.
_ENTRY_CHARS = "lm0123456789/+-*^ #x\u0663\u00b2"
_FORMS = ["0", "l", "m", "2*l - m", "1/2*l", "-3/4*m", "l + m"]
_HEADERS = ["degree 1"] * 5 + ["degree 2", "degree", "degree 1 1", "deg 1", "# note"]
_BAD_BYTES = [b""] * 4 + [b"\xff", b"\xc3\x28", b"\xed\xa0\x80"]


@st.composite
def _pencil_files(draw):
    header = draw(st.sampled_from(_HEADERS + [None]))
    if header is None:
        header = "degree " + draw(st.text(alphabet="0123456789- \u0663\u00b2", max_size=3))
    lines = [header]
    for _ in range(draw(st.sampled_from([10] * 6 + [9, 11]))):
        form = draw(st.sampled_from(_FORMS * 3 + [None]))
        lines.append(form if form is not None else draw(st.text(alphabet=_ENTRY_CHARS, max_size=10)))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_pencil_files())
def test_load_pencil_fuzz(tmp_path, data):
    f = tmp_path / "fuzz.txt"
    f.write_bytes(data)
    try:
        pencilfile.load_pencil(str(f))
        accepted = True
    except PencilParseError:
        accepted = False
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["calc", "pencil-rank", str(f)])
    if accepted:
        assert code == 0 and out.getvalue().startswith("degree: ") and not err.getvalue()
    else:
        assert code == 2 and err.getvalue().startswith("error: ") and not out.getvalue()
