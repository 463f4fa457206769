import json
import random
from fractions import Fraction

import pytest

from latheights import cli
from latheights.bounds import BoundReport
from latheights.errors import SpecFileError
from latheights.reals import PRECISION, log_real, sqrt_real
from latheights.report import (
    ball_mid_rad,
    check_record,
    frac_decimal,
    render_csv,
    render_jsonl,
    report_record,
)
from latheights.specfile import Block, parse_text, read_field


# ---------------------------------------------------------------------------
# specification files


def test_parse_nested_blocks():
    root = parse_text(
        """
        # a comment
        kind = module
        field {
            minpoly = -2 0 1
            basis = 1 0 ; 0 1
        }
        generator = 1 0
        generator = 0 1
        """
    )
    assert root.get("kind") == [["module"]]
    fb = root.require("field")
    assert isinstance(fb, Block)
    assert fb.require("minpoly") == [["-2", "0", "1"]]
    assert fb.require("basis") == [["1", "0"], ["0", "1"]]
    assert len(root.get_all("generator")) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SpecFileError) as e:
        parse_text("a = 1\n}\n")
    assert e.value.line == 2
    with pytest.raises(SpecFileError):
        parse_text("block {\n a = 1\n")  # unclosed
    with pytest.raises(SpecFileError) as e:
        parse_text("x = 1\njust tokens\n")
    assert e.value.line == 2
    with pytest.raises(SpecFileError):
        parse_text("9bad = 1\n")


def test_duplicate_key_rejected():
    root = parse_text("a = 1\na = 2\n")
    with pytest.raises(SpecFileError):
        root.get("a")


def test_read_field():
    root = parse_text("minpoly = -2 0 1\nbasis = 1 0 ; 0 1\n")
    field = read_field(root)
    assert field.degree == 2
    bad = parse_text("minpoly = -2 0 1\nbasis = 1 ; 0 1\n")
    with pytest.raises(SpecFileError):
        read_field(bad)


# ---------------------------------------------------------------------------
# report rendering


def _frac_decimal_fraction(f, digits=25):
    """The earlier rounding on Fractions: floor(|f| 10**digits + 1/2)."""
    sign = "-" if f < 0 else ""
    s = str((abs(f) * 10 ** digits + Fraction(1, 2)).__floor__()).rjust(digits + 1, "0")
    whole, frac = s[:-digits], s[-digits:].rstrip("0")
    return sign + whole + ("." + frac if frac else "")


@pytest.mark.parametrize("f,digits", [
    (Fraction(1, 2 * 10**25), 25),  # half a unit of digit 25: rounds up
    (Fraction(-1, 2 * 10**25), 25),
    (Fraction(3, 2 * 10**25), 25),
    (7 + Fraction(5, 10**26), 25),
    (-7 - Fraction(15, 10**26), 25),
    (Fraction(-1, 10**30), 25),  # rounds to zero, keeps its sign
    (Fraction(0), 25),
    (Fraction(2**70 + 1, 3), 25),
    (Fraction(-(2**100) - 5, 2**67 * 5**3), 25),
    (Fraction(3**50, 2**90), 25),
    (Fraction(1, 8), 2),  # 0.125: a tie at digit 3
    (Fraction(-3, 8), 2),
    (Fraction(2**65 + 1, 7), 40),
    (Fraction(5, 2), 1),
])
def test_frac_decimal_rounds_as_the_fraction_formula(f, digits):
    assert frac_decimal(f, digits) == _frac_decimal_fraction(f, digits)


def test_frac_decimal_matches_the_fraction_formula_on_random_values():
    rng = random.Random(5)
    for _ in range(2000):
        f = Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 2**70))
        digits = rng.choice([1, 3, 25])
        assert frac_decimal(f, digits) == _frac_decimal_fraction(f, digits)


def test_frac_decimal():
    assert frac_decimal(Fraction(1, 4)) == "0.25"
    assert frac_decimal(Fraction(-7, 2)) == "-3.5"
    assert frac_decimal(Fraction(1, 3), 5) == "0.33333"
    assert frac_decimal(Fraction(0)) == "0"


def test_ball_mid_rad_encloses():
    mid, rad = ball_mid_rad(sqrt_real(2))
    assert abs(float(mid) - 2 ** 0.5) <= float(rad)
    assert rad > 0
    mid1, rad1 = ball_mid_rad(Fraction(3))
    assert mid1 == 3 and rad1 == 0


def test_render_jsonl_sorted_and_no_floats():
    reps = [
        BoundReport("b", Fraction(2), 5, sqrt_real(2), "LOWER", True, "HOLDS"),
        BoundReport("a", Fraction(1), 3, None, "UPPER", True, "HOLDS"),
    ]
    text = render_jsonl([report_record(r) for r in reps])
    lines = text.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["instance"] == "a"
    for line in lines:
        rec = json.loads(line)
        for key in ("R_mid", "R_rad", "bound_mid", "bound_rad"):
            assert rec[key] is None or isinstance(rec[key], str)
        assert {"instance", "kind", "inputs", "exact", "verdict"} <= set(rec)


def test_report_bytes_independent_of_earlier_evaluations():
    # the printed enclosure is the one at the record's bits, however precise
    # an earlier evaluation of the same value was
    leaf = log_real(3)
    bound = 2 * leaf * sqrt_real(5) + 1
    rep = BoundReport("a", Fraction(2), 5, bound, "UPPER", True, "HOLDS")
    before = render_jsonl([report_record(rep)])
    leaf.interval(1024)
    bound.interval(1024)
    assert render_jsonl([report_record(rep)]) == before
    assert json.loads(before)["bits"] == PRECISION.start


def test_render_csv_header():
    rec = check_record("x", "DET", True)
    text = render_csv([rec])
    assert text.splitlines()[0] == "instance,kind,R,exact,bound,verdict"
    assert "HOLDS" in text.splitlines()[1]


# ---------------------------------------------------------------------------
# command-line driver


def _write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def test_height_command_nf(tmp_path, capsys):
    path = _write(
        tmp_path,
        "h.lh",
        "kind = nf-height\n"
        "field {\n minpoly = -2 0 1\n basis = 1 0 ; 0 1\n}\n"
        "vector = 1 0 ; 0 1\n",
    )
    assert cli.main(["height", path]) == 0
    out = capsys.readouterr().out
    # h(1, sqrt2) = sqrt2: projective height of (1, 1, sqrt2)
    assert out.startswith("h = 1.414213562373095")
    assert "H = 1.414213562373095" in out


def test_height_command_quat(tmp_path, capsys):
    path = _write(
        tmp_path,
        "q.lh",
        "kind = quat-height\n"
        "field {\n minpoly = -1 1\n basis = 1\n}\n"
        "alpha = -1\nbeta = -1\n"
        "vector = 1 ; 1 ; 1 ; 1\n",
    )
    assert cli.main(["height", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("h = 2")


def _quat_sqrt2(vector):
    """A quat-height file over Q(sqrt2) with alpha = beta = -1."""
    return (
        "kind = quat-height\n"
        "field {\n minpoly = -2 0 1\n basis = 1 0 ; 0 1\n}\n"
        "alpha = -1 0\nbeta = -1 0\n"
        "vector = %s\n" % vector
    )


_QUAT_SQRT2 = _quat_sqrt2("1/2 0 ; 0 1 ; 1 1 ; 0 0 ; 3 0 ; 0 0 ; 0 -1 ; 1 0")


def _order_block(*quats):
    """An ``order { basis = ... }`` block over Q(sqrt2) from rational quaternions."""
    groups = ["%s 0" % c for q in quats for c in q]
    return "order {\n basis = %s\n}\n" % " ; ".join(groups)


def _height_line(tmp_path, capsys, name, content):
    code = cli.main(["height", _write(tmp_path, name, content)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_height_command_quat_explicit_order(tmp_path, capsys):
    code, default, _ = _height_line(tmp_path, capsys, "d.lh", _QUAT_SQRT2)
    assert code == 0 and default.startswith("h = ")
    # the special order's generators, read as an O_K-span over Q(sqrt2)
    units = ("1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1")
    special = _order_block(*[q.split() for q in units])
    code, out, err = _height_line(tmp_path, capsys, "s.lh", _QUAT_SQRT2 + special)
    assert (code, out, err) == (0, default, "")
    # a Hurwitz-type basis (1, i, j, (1+i+j+k)/2)
    hurwitz = _order_block(*[q.split() for q in units[:3]], ["1/2"] * 4)
    code, out, err = _height_line(tmp_path, capsys, "h.lh", _QUAT_SQRT2 + hurwitz)
    assert code == 0 and out.startswith("h = ") and err == ""
    # (1+i+j+k)/2 lies in that order and has reduced norm 1, so h = 1 there
    half = _quat_sqrt2(" ; ".join(["1/2 0"] * 4))
    code, out, _ = _height_line(tmp_path, capsys, "v.lh", half + hurwitz)
    assert (code, out) == (0, "h = 1 (+- 0)\n")
    code, out, _ = _height_line(tmp_path, capsys, "w.lh", half)
    assert code == 0 and out.startswith("h = 1.189207115002721")  # 2^(1/4)


_QUAT_CUBIC = (
    "kind = quat-height\n"
    "field {\n minpoly = -1 -2 1 1\n basis = 1 0 0 ; 0 1 0 ; 0 0 1\n}\n"
    "alpha = -1 0 0\nbeta = -1 0 0\n"
    "vector = 1 0 0 ; 0 1 0 ; 1 1 0 ; 0 0 0 ; 2 0 1 ; 0 0 0 ; 0 -1 0 ; 1 0 0\n"
)


def test_order_block_wraps_after_semicolon(tmp_path, capsys):
    code, default, _ = _height_line(tmp_path, capsys, "c.lh", _QUAT_CUBIC)
    assert code == 0 and default.startswith("h = ")
    # the special order's generators over x^3 + x^2 - 2x - 1, one per line
    rows = [" ; ".join("1 0 0" if c == q else "0 0 0" for c in range(4)) for q in range(4)]
    wrapped = "order {\n basis = %s ;\n\n   # i, j, k\n   %s ;\n   %s ;\n   %s\n}\n" % tuple(rows)
    code, out, err = _height_line(tmp_path, capsys, "w.lh", _QUAT_CUBIC + wrapped)
    assert (code, out, err) == (0, default, "")
    # an error on a continuation line names the entry's first line
    bad = wrapped.replace("   0 0 0 ; 1 0 0 ;", "   0 0 0 ; 1 0 ;", 1)
    code, _, err = _height_line(tmp_path, capsys, "b.lh", _QUAT_CUBIC + bad)
    assert code == 2 and "line 10: element needs 3 coordinates, got 2" in err, err


def test_spec_error_without_column_names_the_line_alone(tmp_path, capsys):
    # (1, i, j/2, k) is not closed under products: rejected at the block's line
    block = _order_block(["1", "0", "0", "0"], ["0", "1", "0", "0"],
                         ["0", "0", "1/2", "0"], ["0", "0", "0", "1"])
    code, _, err = _height_line(tmp_path, capsys, "bad.lh", _QUAT_SQRT2 + block)
    assert code == 2
    assert "line 9: invalid order" in err and "col" not in err
    assert str(SpecFileError("oops", 3)) == "line 3: oops"
    assert str(SpecFileError("oops", 3, 5)) == "line 3, col 5: oops"


def test_spec_error_names_the_entry_line(tmp_path, capsys):
    # a malformed value is reported at its own line, not at its block's
    cases = [
        (_QUAT_SQRT2.replace("basis = 1 0 ; 0 1", "basis = 1 0 ; 0 x"),
         "line 4: bad rational 'x'"),
        (_QUAT_SQRT2.replace("alpha = -1 0", "alpha = -1 0 0"),
         "line 6: element needs 2 coordinates, got 3"),
        (_QUAT_SQRT2.replace("beta = -1 0", "beta = -1"),
         "line 7: element needs 2 coordinates, got 1"),
        (_quat_sqrt2("1 0 ; 0 0 ; 0 0"), "line 8: quaternion vector needs 4 components each"),
        (_QUAT_SQRT2 + "order {\n basis = %s\n}\n" % " ; ".join(["1 0 0"] * 16),
         "line 10: element needs 2 coordinates, got 3"),
    ]
    for k, (content, message) in enumerate(cases):
        code, _, err = _height_line(tmp_path, capsys, "e%d.lh" % k, content)
        assert code == 2 and message in err, err


def test_height_zero_vector_rejected(tmp_path, capsys):
    path = _write(
        tmp_path,
        "z.lh",
        "kind = nf-height\n"
        "field {\n minpoly = -1 1\n basis = 1\n}\n"
        "vector = 0\n",
    )
    assert cli.main(["height", path]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exit_code_and_diagnostics(tmp_path, capsys):
    path = _write(tmp_path, "bad.lh", "kind nf-height\n")
    assert cli.main(["height", path]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_count_module_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "m.lh",
        "field {\n minpoly = -1 1\n basis = 1\n}\nrank = 1\n",
    )
    assert cli.main(["count", "module", path, "3"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["exact"] == 7
    assert rec["verdict"] == "HOLDS"


def test_count_ffield_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "f.lh",
        "q = 5\nmodel = genus0\npoints = 0 ; inf\n",
    )
    assert cli.main(["count", "ffield", path, "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(x) for x in lines]
    assert {r["exact"] for r in recs} == {28}
    assert all(r["verdict"] == "HOLDS" for r in recs)


COUNT_FILES = {
    "module": "field {\n minpoly = -1 1\n basis = 1\n}\nrank = 1\n",
    "ffield": "q = 5\nmodel = genus0\npoints = 0 ; inf\n",
}


@pytest.mark.parametrize("kind, radius", [
    ("ffield", "abc"), ("ffield", "1/0"), ("ffield", "5/2"),
    ("module", "abc"), ("module", "1/0"),
])
def test_count_rejects_malformed_radius(tmp_path, capsys, kind, radius):
    # exit 1 means VIOLATED; a radius that is no number, or a fractional B,
    # is bad input (exit 2), not a traceback or a silently truncated B
    path = _write(tmp_path, "c.lh", COUNT_FILES[kind])
    assert cli.main(["count", kind, path, radius]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and repr(radius) in err


def test_count_sunits_command(tmp_path, capsys):
    path = _write(
        tmp_path,
        "s.lh",
        "field {\n minpoly = -5 0 1\n basis = 1 0 ; 1/2 1/2\n}\n",
    )
    assert cli.main(["count", "sunits", path, "1"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert {r["exact"] for r in recs} == {10}


def test_count_sunits_command_skewed_prime(tmp_path, capsys):
    # the generator 58 + 41 sqrt2 = sqrt2 (1 + sqrt2)^5 of the place above 2
    path = _write(
        tmp_path,
        "s2.lh",
        "field {\n minpoly = -2 0 1\n basis = 1 0 ; 0 1\n}\nprime = 58 41 ; 2\n",
    )
    assert cli.main(["count", "sunits", path, "2"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert {r["exact"] for r in recs} == {34}


def test_count_sunits_omega_line_must_match_the_field(tmp_path, capsys):
    """Over Q(i) the unit group is {+-1, +-i}: an ``omega`` line of 4 is
    accepted, one of 2 is rejected before any count."""
    field = "field {\n minpoly = 1 0 1\n basis = 1 0 ; 0 1\n}\n"
    path = _write(tmp_path, "qi4.lh", field + "omega = 4\n")
    assert cli.main(["count", "sunits", path, "1"]) == 0
    recs = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert {r["exact"] for r in recs} == {4}
    path = _write(tmp_path, "qi2.lh", field + "omega = 2\n")
    assert cli.main(["count", "sunits", path, "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "omega" in err


def test_verify_deterministic_and_exit_codes(capsys):
    assert cli.main(["verify", "ffield", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "ffield", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "VIOLATED" not in first
    # the suite contains below-threshold INCONCLUSIVE records
    assert cli.main(["verify", "ffield", "--max-inconclusive", "0"]) == 1
    capsys.readouterr()


def test_precision_cap_env(tmp_path, capsys, monkeypatch):
    old = PRECISION.cap
    monkeypatch.setenv("LATHEIGHTS_PRECISION_CAP", "4096")
    path = _write(
        tmp_path,
        "m.lh",
        "field {\n minpoly = -1 1\n basis = 1\n}\nrank = 1\n",
    )
    caps, thm1_lower = [], cli.thm1_lower

    def spy(*args, **kwargs):
        caps.append(PRECISION.cap)
        return thm1_lower(*args, **kwargs)

    monkeypatch.setattr(cli, "thm1_lower", spy)
    assert cli.main(["count", "module", path, "2"]) == 0
    assert caps == [4096]  # the cap held during the run
    assert PRECISION.cap == old  # and is restored after it
    capsys.readouterr()


@pytest.mark.parametrize("argv, env", [
    (["--precision-start", "-5"], None),
    (["--precision-start", "0"], None),
    (["--precision-cap", "0"], None),
    (["--budget", "0"], None),
    (["--budget", "-3"], None),
    (["--precision-start", "512", "--precision-cap", "256"], None),
    (["--precision-start", "16384"], None),  # above the default cap
    ([], "abc"),
    ([], "-64"),
    (["--precision-start", "256"], "128"),
])
def test_run_settings_rejected(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("LATHEIGHTS_PRECISION_CAP", env)
    before = (PRECISION.start, PRECISION.cap, cli.lattice_mod.ENUM_BUDGET)
    assert cli.main(["verify", "ffield"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    # nothing was set
    assert (PRECISION.start, PRECISION.cap, cli.lattice_mod.ENUM_BUDGET) == before


def test_run_settings_applied(capsys, monkeypatch):
    before = (PRECISION.start, PRECISION.cap, cli.lattice_mod.ENUM_BUDGET)
    # an option wins over the environment, and a start equal to the cap is valid
    monkeypatch.setenv("LATHEIGHTS_PRECISION_CAP", "abc")
    argv = ["--precision-start", "128", "--precision-cap", "128", "--budget", "1000"]
    assert cli.main(["verify", "ffield"] + argv) == 0
    # the settings applied during the run and are restored after it
    assert '"bits":128' in capsys.readouterr().out
    assert (PRECISION.start, PRECISION.cap, cli.lattice_mod.ENUM_BUDGET) == before
