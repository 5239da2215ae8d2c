"""Tests for the command-line interface and the identity registry."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from modwron import cli, etaprod, ssing
from modwron.cli import (IDENTITIES, _assess, build_parser, main,
                         symcheck_report, verify)
from modwron.etaprod import NAMES
from modwron.modpoly import E4, E6, to_qseries
from modwron.poly import Poly
from modwron.qseries import QSeries
from modwron.symmpow import SymWronskianMismatch
from test_qseries import series_products
from test_ssing import MUTANTS


# ---- identity registry -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_identity_passes(name):
    rep = verify(name, 25)
    assert rep.status == "pass"
    assert rep.precision >= 25
    assert rep.first_fail is None


# the left sides as the paper writes them, on the series named_series builds
EXPANDED = {
    "rw2_char": (("ch1", "ch2"),
                 lambda ch1, ch2: ch2**11*ch1 - 11*ch1**6*ch2**6 - ch1**11*ch2),
    "a1_const": (("a1_f1", "a1_f2"),
                 lambda f1, f2: f1**5*f2 - f2**5*f1),
}


def expanded_lhs(identity, n, named=etaprod.named_series):
    names, form = EXPANDED[identity]
    return form(*(named(name, n + cli.SERIES_MARGIN) for name in names))


def fields(x):
    return x.offset, x.step_den, x.nums, x.den, x.prec


@pytest.mark.parametrize("identity", sorted(EXPANDED))
def test_factored_left_side_is_the_expanded_form(identity):
    for n in [F(k, 12) for k in range(1, 169)] + [F(100)]:
        [(lhs, _)] = IDENTITIES[identity](n)
        assert fields(lhs) == fields(expanded_lhs(identity, n)), n


@pytest.mark.parametrize("identity,name,e", [
    ("rw2_char", "ch1", F(11, 60)), ("rw2_char", "ch1", F(131, 60)),
    ("rw2_char", "ch1", F(1811, 60)),
    ("a1_const", "a1_f1", F(-1, 24)), ("a1_const", "a1_f1", F(71, 24)),
    ("a1_const", "a1_f1", F(839, 24)),
])
def test_planted_slot_fails_where_the_expanded_form_does(monkeypatch,
                                                         identity, name, e):
    real = etaprod.named_series

    def planted(series, n):
        out = real(series, n)
        return out + QSeries.monomial(1, e, out.prec) if series == name else out

    monkeypatch.setattr(cli, "named_series", planted)
    n = F(40)
    rep = verify(identity, n)
    [(_, rhs)] = IDENTITIES[identity](n)
    ref = _assess(identity, [(expanded_lhs(identity, n, planted), rhs)], n, 0.0)
    assert rep.status == ref.status == "fail"
    assert rep.first_fail == ref.first_fail
    assert rep.precision == ref.precision


@pytest.mark.parametrize("identity,most", [("rw2_char", 10), ("a1_const", 6)])
def test_identity_runs_its_factored_products(monkeypatch, identity, most):
    verify(identity, 40)        # the named series are built and kept
    calls = series_products(monkeypatch)
    assert verify(identity, 40).status == "pass"
    assert 0 < len(calls) <= most
    # no product runs on the half-integer lattice that a - b would need
    assert all(x.step_den == y.step_den == 1 for x, y in calls)


def test_verify_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify("nope", 10)


@pytest.mark.parametrize("prec", [0, -3, F(-1, 2)])
def test_verify_refuses_a_precision_that_is_not_positive(prec):
    # as main refuses --prec: no row compared through no coefficient, and
    # no series built to a negative bound
    with pytest.raises(ValueError, match="^%s$" % re.escape(
            "--prec must be positive, got %s" % prec)):
        verify("chprod", prec)


def test_assess_reports_fail_with_exponent():
    lhs = QSeries.from_fractions(0, [F(1), F(2), F(3)], 1, F(10))
    rhs = QSeries.from_fractions(0, [F(1), F(2), F(4)], 1, F(10))
    rep = _assess("demo", [(lhs, rhs)], F(10), 0.0)
    assert rep.status == "fail"
    assert rep.first_fail == 2


def test_assess_insufficient_precision():
    lhs = QSeries.one(F(5))
    rhs = QSeries.one(F(5))
    rep = _assess("demo", [(lhs, rhs)], F(50), 0.0)
    assert rep.status == "insufficient-precision"
    assert rep.precision == 5


def test_assess_pass_at_target():
    lhs = QSeries.one(F(50))
    rep = _assess("demo", [(lhs, QSeries.one(F(50)))], F(50), 0.0)
    assert rep.status == "pass" and rep.precision == 50


def test_assess_counts_two_zero_series_as_compared():
    # an ODE row compares zeros; a pair whose terms start at the bound does
    # not compare anything
    zero = QSeries.zero(F(1, 2))
    assert _assess("demo", [(zero, zero)], F(1, 2), 0.0).status == "pass"
    late = QSeries.monomial(1, F(1, 2), F(5))
    rep = _assess("demo", [(zero, zero), (late, late)], F(1, 2), 0.0)
    assert rep.status == "pass"
    rep = _assess("demo", [(late, late)], F(1, 2), 0.0)
    assert rep.status == "insufficient-precision" and rep.precision == F(1, 2)


# rows whose sides have no term below the bound: chprod and f1f2 lead at
# q^(1/6)
EMPTY_AT = {F(1, 1000): {"chprod", "f1f2"}, F(1, 7): {"chprod", "f1f2"},
            F(1, 5): set()}


@pytest.mark.parametrize("prec", sorted(EMPTY_AT))
@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_no_row_passes_on_an_empty_window(name, prec):
    """Every row passes with a slot compared below the bound (a term, or
    two zero sides), or is insufficient-precision; the CLI exits 1 on it."""
    compared = False
    for lhs, rhs in IDENTITIES[name](prec):
        p = min(lhs.prec, rhs.prec, prec)
        below = lhs.truncate(p).coeffs() + rhs.truncate(p).coeffs()
        compared |= bool(below) or lhs.is_zero() and rhs.is_zero()
    assert compared == (name not in EMPTY_AT[prec])
    rep = verify(name, prec)
    assert rep.status == ("pass" if compared else "insufficient-precision")
    assert main(["verify", name, "--prec", str(prec)]) == (0 if compared
                                                          else 1)


def test_report_json_shape():
    rep = verify("chprod", 20)
    d = rep.to_json()
    assert set(d) == {"identity", "status", "precision", "first_fail"}
    assert d["status"] == "pass" and d["first_fail"] is None


# ---- symcheck -----------------------------------------------------------------------

@pytest.mark.parametrize("pair", ["rr", "weber", "a1"])
def test_symcheck_small(pair):
    rep = symcheck_report(pair, 2, F(20))
    assert rep.status == "pass"


def test_symcheck_names_factorization_mismatch(monkeypatch):
    real = cli.wronskians

    def skewed(family):
        w, wd = real(family)
        return w + QSeries.monomial(1, w.valuation() + 3), wd

    monkeypatch.setattr(cli, "wronskians", skewed)
    rep = symcheck_report("weber", 2, F(20))
    assert rep.status == "fail"
    assert rep.first_fail == F(7, 2)    # W(Sym^2) starts at q^(1/2)
    assert "factorization" in rep.line()
    assert rep.to_json() == {"identity": "sym_weber_m2", "status": "fail",
                             "precision": "20", "first_fail": "7/2"}


def test_symcheck_names_eta_power_mismatch(monkeypatch):
    def broken(f, g, m, ws=None):
        raise SymWronskianMismatch("eta power", F(7))

    monkeypatch.setattr(cli, "sym_wronskian_check", broken)
    rep = symcheck_report("rr", 1, F(20))
    assert rep.status == "fail" and rep.first_fail == 7
    assert "eta power" in rep.line()
    assert "eta power" not in json.dumps(rep.to_json())


def test_symcheck_names_disagreeing_route(monkeypatch):
    monkeypatch.setitem(cli.PAIR_LAMBDA, "weber", F(-15))
    rep = symcheck_report("weber", 2, F(20))
    assert rep.status == "fail" and rep.first_fail is None
    assert "determinant disagrees with recursion" in rep.line()
    assert "closed form" not in rep.line()


def test_symcheck_rejected_quotient_is_a_fail_row(capsys, monkeypatch):
    # the weight-6 quotient of Sym^2 asked for in weight 8, where identify
    # rejects it: the row fails and names why, instead of aborting the run
    real = cli.identify_quotient
    monkeypatch.setattr(cli, "identify_quotient",
                        lambda w, wd, weight: real(w, wd, weight + 2))
    rep = symcheck_report("weber", 2, F(20))
    assert rep.status == "fail" and rep.first_fail is None
    assert rep.detail == ("determinant quotient not identifiable: residual "
                          "is nonzero at exponent 1")
    assert rep.to_json() == {"identity": "sym_weber_m2", "status": "fail",
                             "precision": "20", "first_fail": None}
    code, out, err = run_cli(capsys, "symcheck", "--m", "2", "--prec", "20")
    assert code == 1 and err == ""
    assert "determinant quotient not identifiable" in out


def test_passing_report_line_has_no_detail():
    rep = symcheck_report("weber", 1, F(20))
    assert rep.detail == "" and "disagrees" not in rep.line()


# ---- run-all rows name the failed sub-check --------------------------------------

def test_run_all_rows_name_the_failed_sub_check(monkeypatch):
    real_report = cli.supersingular_report
    real_congruence = cli.congruence_constant_check
    real_recurrences = cli.verify_recurrences
    real_roots = cli.r12_vanishing_roots
    real_check = cli.sym_wronskian_check
    real_quotient = cli.identify_quotient

    def report(p):
        rep = real_report(p)
        return rep._replace(routes_agree=False,
                            oracle_match=False) if p == 5 else rep

    def congruence(p):
        rep = real_congruence(p)
        return rep._replace(ok=False) if p == 7 else rep

    def recurrences(upto):
        return real_recurrences(upto)._replace(
            ok=False, restricted_counterexamples=((9, 1, 2),))

    def check(f, g, m, ws=None):
        if ws is None and m == 3:     # only the eta_power rows omit ws
            raise SymWronskianMismatch("eta power", F(9))
        return real_check(f, g, m, ws=ws)

    def quotient(w, wd, weight):
        # Sym^2 asked for in weight 8: identify rejects its weight-6 quotient
        return real_quotient(w, wd, weight + 2 if weight == 6 else weight)

    monkeypatch.setattr(cli, "supersingular_report", report)
    monkeypatch.setattr(cli, "congruence_constant_check", congruence)
    monkeypatch.setattr(cli, "verify_recurrences", recurrences)
    monkeypatch.setattr(cli, "r12_vanishing_roots",
                        lambda: real_roots() - {F(-15)})
    monkeypatch.setattr(cli, "sym_wronskian_check", check)
    monkeypatch.setattr(cli, "identify_quotient", quotient)
    rows = {r.identity: r for r in cli.run_all(F(20), (5, 7, 11))}
    named = {
        "ssing_p5": ("routes disagree", "oracle differs"),
        "ssing_p7": ("congruence fails",),
        "r12_roots": ("R_12 root set {-40, -25/4, -11/5, 0}",),
        "partition_recurrences": ("restricted mod-27 recurrence",),
        "eta_power_rr": ("eta power",),
        "eta_power_weber": ("eta power",),
        "sym_weber_m2": ("determinant quotient not identifiable",),
    }
    for ident, row in rows.items():
        if ident not in named:
            assert row.status == "pass" and row.detail == "", ident
            continue
        assert row.status == "fail", ident
        for text in named[ident]:
            assert text in row.line(), (ident, text)
        assert row.to_json() == {
            "identity": ident, "status": "fail",
            "precision": {"partition_recurrences": "50", "eta_power_rr": "20",
                          "eta_power_weber": "20",
                          "sym_weber_m2": "20"}.get(ident),
            "first_fail": "9" if ident.startswith("eta_power") else None}
    assert "congruence" not in rows["ssing_p5"].line()
    assert "routes" not in rows["ssing_p7"].line()
    assert "colored" not in rows["partition_recurrences"].line()
    assert "first mismatch at q^(9)" in rows["eta_power_rr"].line()


# ---- main() end-to-end ----------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "series", "ch1", "--prec", "10", "--json")
    assert code == 0
    s = QSeries.from_json(json.loads(out))
    assert s.valuation() == F(11, 60)
    assert s.prec == 10


def test_series_human(capsys):
    code, out, _ = run_cli(capsys, "series", "weber8_2", "--prec", "4")
    assert code == 0
    assert out.startswith("weber8_2 = q^(1/3)")


def test_verify_cli_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "rw2_char", "f1f2",
                           "--prec", "25", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [d["identity"] for d in payload] == ["rw2_char", "f1f2"]
    assert all(d["status"] == "pass" for d in payload)


def test_verify_cli_deterministic_json(capsys):
    _, out1, _ = run_cli(capsys, "verify", "chprod", "--prec", "15", "--json")
    _, out2, _ = run_cli(capsys, "verify", "chprod", "--prec", "15", "--json")
    assert out1 == out2


def test_wronskian_cli(capsys):
    code, out, _ = run_cli(capsys, "wronskian", "--basis", "ch2,ch1",
                           "--prec", "10", "--json")
    assert code == 0
    w = QSeries.from_json(json.loads(out)["wronskian"])
    assert w.valuation() == F(1, 6)
    assert w.leading_coefficient() == F(1, 5)


def test_wronskian_cli_sym_spec(capsys):
    code, out, _ = run_cli(capsys, "wronskian", "--basis", "sym:weber:2",
                           "--prec", "12")
    assert code == 0
    assert out.startswith("W = ")


def test_wronskian_cli_bad_spec(capsys):
    code, _, err = run_cli(capsys, "wronskian", "--basis", "sym:weber")
    assert code == 2
    assert "malformed basis spec" in err


@pytest.mark.parametrize("argv", [
    ("symcheck", "--m", "0"),
    ("symcheck", "--m", "-2", "--prec", "10"),
    ("run-all", "--prec", "0"),
    ("series", "ch1", "--prec=-1/2"),
    ("verify", "chprod", "--prec", "0"),
])
def test_bad_m_or_prec_is_a_configuration_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, ids", [
    # W' is zero to this precision: the zero form is not certified
    (("symcheck", "--m", "3", "--prec", "1"), ["sym_weber_m3"]),
    (("symcheck", "--m", "1", "--prec", "2"), ["sym_weber_m1"]),
    (("run-all", "--prec", "8", "--primes", "5"),
     ["sym_weber_m%d" % m for m in range(1, 13)]),
])
def test_too_small_prec_is_an_insufficient_precision_row(capsys, argv, ids):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    rows = payload if isinstance(payload, list) else [payload]
    short = [d["identity"] for d in rows
             if d["status"] == "insufficient-precision"]
    assert short == ids
    assert all(d["status"] == "pass" for d in rows if d["identity"] not in ids)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "insufficient-precision" in out and "need 11 coefficients" in out


@pytest.mark.parametrize("argv, ids", [
    # the pair Wronskian, or the Sym^m one, has no known nonzero term; in
    # run-all, chprod and f1f2 lead at q^(1/6) and compare no slot
    (("symcheck", "--m", "1", "--prec", "1/6"), ["sym_weber_m1"]),
    (("symcheck", "--m", "3", "--prec", "1/3"), ["sym_weber_m3"]),
    (("symcheck", "--pair", "rr", "--m", "2", "--prec", "1/20"), ["sym_rr_m2"]),
    (("symcheck", "--pair", "a1", "--m", "2", "--prec", "1/20"), ["sym_a1_m2"]),
    (("run-all", "--prec", "1/6"),
     ["chprod", "f1f2"] + ["sym_weber_m%d" % m for m in range(1, 13)]
     + ["eta_power_rr", "eta_power_weber"]),
])
def test_vanishing_wronskian_is_an_insufficient_precision_row(capsys, argv,
                                                              ids):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    rows = payload if isinstance(payload, list) else [payload]
    if argv[0] == "run-all":
        assert len(rows) == 36
    short = [d["identity"] for d in rows
             if d["status"] == "insufficient-precision"]
    assert short == ids
    assert all(d["status"] == "pass" for d in rows if d["identity"] not in ids)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    assert out.count(" Wronskian vanishes through q^(") == len(
        [i for i in ids if i not in IDENTITIES])


@pytest.mark.parametrize("command", ["identify", "divpoly"])
def test_short_stdin_series_is_a_result_not_a_configuration_error(
        capsys, monkeypatch, command):
    from modwron.modpoly import eisenstein
    blob = json.dumps(eisenstein(12, "E", 3).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run_cli(capsys, command, "--weight", "12")
    assert code == 1 and out == ""
    assert err.startswith("error: insufficient precision: need ")
    assert err.count("\n") == 1


def test_short_wronskian_identify_is_a_result_not_a_configuration_error(capsys):
    code, out, err = run_cli(capsys, "wronskian", "--basis", "sym:weber:3",
                             "--derived", "--prec", "1", "--identify", "8")
    assert code == 1 and out == ""
    assert err == ("error: insufficient precision: need 11 coefficients of a "
                   "weight-8 candidate, have precision 5/3\n")


def test_prec_environment_variable_is_ignored(capsys, monkeypatch):
    """--prec is the one precision input: a MODWRON_PREC in the
    environment changes nothing, the library call included."""
    want = run_cli(capsys, "series", "ch1", "--prec", "100")
    monkeypatch.setenv("MODWRON_PREC", "0")
    assert run_cli(capsys, "series", "ch1") == want
    assert want[0] == 0 and want[1].endswith("+ O(q^(100))\n")
    assert verify("chprod").precision == 100


def test_symcheck_cli(capsys):
    code, out, _ = run_cli(capsys, "symcheck", "--m", "2", "--pair", "weber",
                           "--prec", "20")
    assert code == 0
    assert "pass" in out


def test_kz_has_one_evaluation(capsys):
    """kz has no --variant: the option is a usage error, and the JSON
    carries no "variant" key."""
    with pytest.raises(SystemExit) as exc:
        main(["kz", "--l", "4", "--alpha", "5/3", "--variant", "closed"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant closed" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "kz", "--l", "4", "--alpha", "5/3",
                           "--prec", "8", "--json")
    assert code == 0
    assert set(json.loads(out)) == {"l", "alpha", "weight", "terms", "series"}


def test_ssing_cli_golden(capsys):
    code, out, _ = run_cli(capsys, "ssing", "--p", "13", "--json")
    assert code == 0
    assert json.loads(out) == {
        "p": 13,
        "polynomial": [8, 1],
        "fp_roots": [5],
        "quadratic_factors": [],
        "routes_agree": True,
        "oracle_match": True,
        "epsilon": [0, 0],
    }


def test_ssing_cli_routes(capsys):
    for route in ("deligne", "wronskian", "oracle"):
        code, out, _ = run_cli(capsys, "ssing", "--p", "7",
                               "--route", route, "--json")
        assert code == 0
        assert json.loads(out) == {"p": 7, "route": route,
                                   "polynomial": [1, 1]}
        code, out, _ = run_cli(capsys, "ssing", "--p", "7", "--route", route)
        assert out == "p=7 S_p (%s route) = x + 1\n" % route


def test_ssing_exit_follows_the_congruence(capsys, monkeypatch):
    # ssing --p P certifies what the ssing_pP row of run-all certifies
    _, golden, _ = run_cli(capsys, "ssing", "--p", "7", "--json")
    real = cli.congruence_constant_check
    monkeypatch.setattr(cli, "congruence_constant_check",
                        lambda p: real(p)._replace(ok=False))
    code, out, _ = run_cli(capsys, "ssing", "--p", "7")
    assert code == 1
    assert out.splitlines()[-1] == "  FAIL: congruence fails"
    assert run_cli(capsys, "ssing", "--p", "7", "--json") == (1, golden, "")


def _ssing_line(capsys, p):
    """Exit code and ssing_pP row of `run-all --prec 1 --primes P`."""
    code, out, err = run_cli(capsys, "run-all", "--prec", "1",
                             "--primes", str(p))
    assert err == ""
    (line,) = [s for s in out.splitlines() if s.startswith("ssing_p")]
    return code, line


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_oracle_mutations_fail_ssing_and_its_row(capsys, monkeypatch, name):
    p, mutate = MUTANTS[name]
    real = ssing.ss_poly_deligne
    monkeypatch.setattr(ssing, "ss_poly_deligne", lambda q: mutate(real(q)))
    code, out, err = run_cli(capsys, "ssing", "--p", str(p))
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "  FAIL: routes disagree, oracle differs"
    code, line = _ssing_line(capsys, p)
    assert code == 1
    assert line.split()[:2] == ["ssing_p%d" % p, "fail"]
    assert line.endswith("routes disagree, oracle differs")


def _x(p):
    return Poly((0, 1), p)


# (module attribute patched, its stand-in, p, the error the prime raises)
RAISING_MATHEMATICS = {
    "forced-factor division": ("epsilon_factors", lambda p: (1, 0), 7,
                               "division is not exact: remainder 4*x + 5"),
    "leftover factor": ("hasse_oracle",
                        lambda p: _x(p) * (_x(p) ** 3 + _x(p) + 1), 5,
                        "leftover factor x^3 + x + 1 is neither linear nor "
                        "an irreducible quadratic"),
    "oracle shape": ("epsilon_factors", lambda p: (0, 0), 7,
                     "H_7 over its forced factors has an odd part at mu^0"),
}


@pytest.mark.parametrize("case", sorted(RAISING_MATHEMATICS))
def test_a_prime_whose_mathematics_raises_fails(capsys, monkeypatch, case):
    attr, stand_in, p, message = RAISING_MATHEMATICS[case]
    monkeypatch.setattr(ssing, attr, stand_in)
    for argv in (("ssing", "--p", str(p)), ("ssing", "--p", str(p), "--json")):
        assert run_cli(capsys, *argv) == (1, "", "error: %s\n" % message)
    code, line = _ssing_line(capsys, p)
    assert code == 1
    assert line.split()[:2] == ["ssing_p%d" % p, "fail"]
    assert line.endswith(message)


def test_a_route_that_raises_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(ssing, "epsilon_factors", lambda p: (0, 0))
    assert run_cli(capsys, "ssing", "--p", "5", "--route", "oracle") == (
        1, "", "error: H_5 over its forced factors leaves a remainder at "
               "mu^1\n")

    def broken(p):
        raise ValueError("division is not exact: remainder 1")

    monkeypatch.setattr(cli, "ss_poly_deligne", broken)
    assert run_cli(capsys, "ssing", "--p", "5", "--route", "deligne") == (
        1, "", "error: division is not exact: remainder 1\n")


@pytest.mark.parametrize("argv", [("run-all", "--primes", "4"),
                                  ("run-all", "--primes", "5,7,9", "--json"),
                                  ("ssing", "--p", "4")])
def test_a_bad_prime_exits_2_before_any_row(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a row ran")

    for name in ("verify", "symcheck_report", "supersingular_report"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: p must be a prime >= 5, got %s\n" % argv[2][-1]


@pytest.mark.parametrize("argv,source", [
    (("ssing", "--p", "1000000007"), "--p"),
    (("ssing", "--p", "9223372036854775783", "--json"), "--p"),
    (("run-all", "--primes", "1000000007"), "prime"),
    (("run-all", "--primes", "5,7,1000000007", "--json"), "prime"),
])
def test_a_prime_above_the_cap_exits_2_before_trial_division(
        capsys, monkeypatch, argv, source):
    # 9223372036854775783 < sys.maxsize is prime: trial division alone
    # would take billions of steps, and it is refused before it starts
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("check_prime", "verify", "symcheck_report",
                 "supersingular_report", "run_all"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    p = int(argv[2].split(",")[-1])
    assert code == 2 and out == ""
    assert err == ("error: %s %d is above %d, the largest p the supersingular "
                   "routes take\n" % (source, p, cli.P_MAX))


def test_the_cap_admits_every_prime_up_to_it():
    assert cli._prime_arg(cli.P_MAX, "--p") == cli.P_MAX == 3000
    with pytest.raises(ValueError, match="above 3000"):
        cli._prime_arg(cli.P_MAX + 1, "--p")


def test_ssing_cli_bad_prime(capsys):
    code, _, err = run_cli(capsys, "ssing", "--p", "9")
    assert code == 2
    assert "prime" in err


def test_partitions_cli(capsys):
    code, out, _ = run_cli(capsys, "partitions", "--check", "ssss",
                           "--upto", "30", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["ssss"]["counterexamples"] == []
    assert "p27" not in payload


def test_divpoly_cli_stdin(capsys, monkeypatch):
    from modwron.modpoly import eisenstein
    blob = json.dumps(eisenstein(12, "E", 30).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, _ = run_cli(capsys, "divpoly", "--weight", "12")
    assert code == 0
    assert out.strip() == "F(f, x) = x - 432000/691"


def test_identify_cli_stdin(capsys, monkeypatch):
    from modwron.modpoly import eisenstein
    blob = json.dumps(eisenstein(6, "E", 30).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, _ = run_cli(capsys, "identify", "--weight", "6", "--json")
    assert code == 0
    assert json.loads(out)["terms"] == {"0,1": "1"}


def test_identify_cli_rejects_nonform(capsys, monkeypatch):
    blob = json.dumps(QSeries.from_fractions(0, [F(1), F(1)], 1,
                                             F(30)).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, _, err = run_cli(capsys, "identify", "--weight", "4")
    assert code == 1
    assert "not identifiable" in err


@pytest.mark.parametrize("command", ["identify", "divpoly"])
@pytest.mark.parametrize("weight, doc, reason", [
    # E4 in weight 12 (after E4^3 and Delta fix slots 0 and 1)
    ("12", to_qseries(E4, 30).to_json(), "residual is nonzero at exponent 2"),
    ("2", to_qseries(E4, 30).to_json(), "no nonzero forms of weight 2"),
    ("4", dict(to_qseries(E4, 30).to_json(), prec=None),
     "a nonzero exact q-series is no form of weight 4"),
    ("4", dict(to_qseries(E4, 30).to_json(), offset="1/2"),
     "series has negative or non-integral exponents"),
], ids=["residual", "no-forms", "exact", "fractional"])
def test_stdin_series_that_is_no_form_exits_1(capsys, monkeypatch, command,
                                              weight, doc, reason):
    """A well-formed series that identify rejects is a failed check."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, command, "--weight", weight)
    assert (code, out, err) == (1, "", "error: not identifiable: %s\n" % reason)


def test_wronskian_identify_of_no_form_exits_1(capsys):
    # W of the Rogers-Ramanujan pair is eta^4/5, which leads at q^(1/6)
    code, out, err = run_cli(capsys, "wronskian", "--basis", "ch1,ch2",
                             "--prec", "20", "--identify", "4")
    assert (code, out) == (1, "")
    assert err == ("error: not identifiable: series has negative or "
                   "non-integral exponents\n")


def test_negative_fractional_alpha_parses_in_both_spellings(capsys):
    spaced = run_cli(capsys, "kz", "--l", "3", "--alpha", "-7/5", "--json")
    joined = run_cli(capsys, "kz", "--l", "3", "--alpha=-7/5", "--json")
    assert spaced == joined
    assert spaced[0] == 0 and spaced[2] == ""
    assert json.loads(spaced[1])["alpha"] == "-7/5"


@pytest.mark.parametrize("argv", [
    ("series", "ch1", "--prec", "1/0"),
    ("kz", "--l", "2", "--alpha", "1/0"),
])
def test_zero_denominator_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid fraction '1/0'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["identify", "divpoly"])
@pytest.mark.parametrize("blob", [
    '{"offset": "0", "step_den": 1, "prec": "30", "coeffs": 5}',
    '[{"offset": "0", "step_den": 1, "prec": "30", "coeffs": ["1"]}]',
    '{"offset": "0", "step_den": 1, "prec": "30", "coeffs": ["1/0"]}',
    '{"offset": 1e400, "step_den": 1, "prec": "30", "coeffs": ["1"]}',
])
def test_malformed_stdin_series_is_a_configuration_error(capsys, monkeypatch,
                                                         command, blob):
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, err = run_cli(capsys, command, "--weight", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: could not parse a JSON q-series")
    assert err.count("\n") == 1


def test_ssing_cli_golden_with_quadratic_factor(capsys):
    code, out, _ = run_cli(capsys, "ssing", "--p", "37", "--json")
    assert code == 0
    assert out == json.dumps({
        "p": 37,
        "polynomial": [11, 5, 23, 1],
        "fp_roots": [8],
        "quadratic_factors": [[31, 31, 1]],
        "routes_agree": True,
        "oracle_match": True,
        "epsilon": [0, 0],
    }, indent=2, sort_keys=True) + "\n"


def test_divpoly_cli_json_golden(capsys, monkeypatch):
    from modwron.modpoly import eisenstein
    blob = json.dumps(eisenstein(12, "E", 30).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, _ = run_cli(capsys, "divpoly", "--weight", "12", "--json")
    assert code == 0
    assert out == json.dumps({"weight": 12,
                              "divisor_polynomial": ["-432000/691", "1"]},
                             indent=2, sort_keys=True) + "\n"


# taken before the form layer moved onto the Delta-ladder coordinates
KZ24_SHA256 = "dfe0659c0993d5a7459eabec82004f8e6834e177319e6ab1e90e0941889ad3d2"
KZ24_TERMS = {"0,8": "-239360/59049", "12,0": "-1179256/243",
              "3,6": "-38536960/19683", "6,4": "-62622560/2187",
              "9,2": "-32429540/729"}
KZ24_DIVPOLY = ["-36142149795840", "30557685678080/3", "-2784021053440/27",
                "406796867840/2187", "-4720011308/59049"]


def test_kz_identify_divpoly_golden_at_weight_48(capsys, monkeypatch):
    # t = 4: the ladder runs through Delta^4
    code, out, err = run_cli(capsys, "kz", "--l", "24", "--alpha", "1/3",
                             "--prec", "40", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == KZ24_SHA256
    payload = json.loads(out)
    assert payload["terms"] == KZ24_TERMS
    blob = json.dumps(payload["series"])
    for command, golden in (
            ("identify", {"terms": KZ24_TERMS, "weight": 48}),
            ("divpoly", {"divisor_polynomial": KZ24_DIVPOLY, "weight": 48})):
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        assert run_cli(capsys, command, "--weight", "48", "--json") == (
            0, json.dumps(golden, indent=2, sort_keys=True) + "\n", "")


def test_identify_human_line_uses_mfpoly_str(capsys, monkeypatch):
    from modwron.modpoly import E4, E6, to_qseries
    form = E4 ** 3 - F(1, 2) * E6 ** 2
    blob = json.dumps(to_qseries(form, 30).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    code, out, _ = run_cli(capsys, "identify", "--weight", "12")
    assert code == 0
    assert out == "E4^3 - (1/2)*E6^2\n" == str(form) + "\n"


@pytest.mark.parametrize("prec,capped", [
    (45, ()),
    (46, ("eta_power_",)),
    (60, ("eta_power_",)),
    (61, ("eta_power_", "sym_weber_")),
])
def test_run_all_capped_rows_say_so(prec, capped, monkeypatch):
    # the capped checks themselves are stubbed: only their rows are read
    monkeypatch.setattr(cli, "symcheck_report", lambda pair, m, prec: cli._row(
        "sym_%s_m%d" % (pair, m), prec, lambda: ""))
    monkeypatch.setattr(cli, "_eta_powers", lambda pair, prec: "")
    rows = {r.identity: r for r in cli.run_all(F(prec), (5,))}
    note = "capped from --prec %d" % prec
    for ident, row in rows.items():
        assert row.status == "pass", ident
        assert (note in row.line()) == ident.startswith(capped), ident
        assert "capped" not in json.dumps(row.to_json())
    assert rows["sym_weber_m1"].precision == min(prec, 60)
    assert rows["eta_power_rr"].precision == min(prec, 45)


@pytest.mark.parametrize("order", [False, True], ids=["sorted", "reversed"])
def test_identity_sweep_expands_each_named_series_once(order, monkeypatch):
    # every builder asks for the same margin, so no name is built twice
    built = []
    real = etaprod.product_series
    monkeypatch.setattr(etaprod, "product_series",
                        lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(etaprod, "_BUILT", {})
    for name in sorted(IDENTITIES, reverse=order):
        assert verify(name, 30).status == "pass", name
    assert len(built) == len(etaprod._BUILT) == 7


def test_run_all_cli_restricted(capsys):
    code, out, _ = run_cli(capsys, "run-all", "--prec", "20",
                           "--primes", "5,7", "--json")
    assert code == 0
    payload = json.loads(out)
    ids = [d["identity"] for d in payload]
    assert "ssing_p5" in ids and "ssing_p7" in ids and "ssing_p11" not in ids
    assert "sym_weber_m12" in ids and "r12_roots" in ids
    assert all(d["status"] == "pass" for d in payload)


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "modwron", "series", "ch1", "--prec", "3"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("ch1 = q^(11/60)")


def test_closed_reader_exits_quietly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "modwron", "series", "ch1", "--prec", "5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr
    assert "BrokenPipeError" not in done.stderr
    assert done.returncode in (0, 1, 2)


def test_run_all_cli_bad_primes(capsys):
    code, _, err = run_cli(capsys, "run-all", "--primes", "5,x")
    assert code == 2
    assert "malformed --primes" in err


def test_format_ratpoly_x():
    # the divpoly human line prints the Poly over Q
    assert str(Poly((F(-432000, 691), F(1)))) == "x - 432000/691"
    assert str(Poly((F(0), F(-1728), F(1)))) == "x^2 - 1728*x"
    assert str(Poly((F(1),))) == "1"
    assert str(Poly((F(0),))) == "0"
    assert str(Poly((F(5, 2), F(0), F(-1)))) == "-x^2 + 5/2"


# ---- the README's command reference ---------------------------------------------------

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
FLAG = r"--[a-z][\w-]*"


def _parser_flags():
    """Subcommand -> the option strings of its subparser."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {o for act in p._actions for o in act.option_strings}
            for name, p in subs.choices.items()}


def test_readme_documents_exactly_the_parser_flags():
    """Every --flag of a backticked command in the README's Subcommands
    list exists on that subcommand, and every flag of a subcommand is
    documented there, --prec and --json aside: those, and only those, are
    the Global flags, the flags every subcommand has."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listing, rest = text.split("\nSubcommands:\n", 1)[1].split(
        "\nGlobal flags:", 1)
    flags = _parser_flags()
    documented = {}
    for span in re.findall(r"`([^`]+)`", listing):
        name = span.split()[0]
        if name in flags:
            documented.setdefault(name, set()).update(
                re.findall(r"(?<![\w-])" + FLAG, span))
    common = set.intersection(*flags.values()) - {"-h", "--help"}
    assert documented == {name: f - common - {"-h", "--help"}
                          for name, f in flags.items()}
    glob = set(re.findall("`(%s)" % FLAG, rest.split("\n\n", 1)[0]))
    assert glob == common == {"--prec", "--json"}


def test_readme_quickstart_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out == "x^3 + 2*x^2 + 22*x + 2\n"


# ---- precision too large, and the argv/stdin fuzz -----------------------------------

HUGE = "1e400"


@pytest.mark.parametrize("argv", [
    ("series", "ch1"), ("series", "a1_f1"), ("verify", "chprod"),
    ("kz", "--l", "2", "--alpha", "1/2"), ("symcheck", "--m", "1"),
    ("wronskian", "--basis", "ch1,ch2"), ("run-all", "--primes", "5"),
])
def test_too_large_prec_is_a_configuration_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--prec", HUGE)
    assert code == 2 and out == ""
    assert err == "error: precision %d is too large: its series do not fit " \
                  "in memory\n" % 10 ** 400


@pytest.mark.parametrize("argv,source", [
    (("symcheck", "--m", "N"), "--m"),
    (("kz", "--l", "N", "--alpha", "1/2", "--prec", "5"), "--l"),
    (("partitions", "--upto", "N"), "--upto"),
    (("ssing", "--p", "N"), "--p"),
    (("wronskian", "--basis", "sym:weber:N"), "basis m"),
    (("run-all", "--primes", "5,N"), "prime"),
    (("wronskian", "--basis", "ch1,ch2", "--identify", "N"), "--identify"),
    (("identify", "--weight", "N"), "--weight"),
    (("divpoly", "--weight", "N"), "--weight"),
])
def test_too_large_size_is_a_configuration_error(capsys, monkeypatch, argv,
                                                  source):
    # 10^20 exceeds sys.maxsize, so it is refused before any series is
    # built: every library entry point below the CLI fails if it is
    # reached, and so does reading a series from stdin
    def unreachable(*args, **kwargs):
        raise AssertionError("work started")
    for name in ("named_series", "symcheck_report", "kz_coeff",
                 "verify_recurrences", "supersingular_report", "run_all",
                 "identify", "_read_series_stdin"):
        monkeypatch.setattr(cli, name, unreachable)
    n = 10 ** 20
    code, out, err = run_cli(capsys, *(a.replace("N", str(n)) for a in argv))
    assert code == 2 and out == ""
    assert err == "error: %s %d is too large: its lists do not fit in " \
                  "memory\n" % (source, n)


def test_prec_out_of_memory_is_a_configuration_error(capsys, monkeypatch):
    # --prec 1e12 passes the sys.maxsize check, and its slot list does not
    # fit in memory; the allocation failure is simulated, so that nothing
    # is allocated
    def no_memory(name, prec):
        raise MemoryError
    monkeypatch.setattr(cli, "named_series", no_memory)
    code, out, err = run_cli(capsys, "series", "ch1", "--prec", "1e12")
    assert code == 2 and out == ""
    assert err == "error: precision 1000000000000 is too large: its series " \
                  "do not fit in memory\n"


@pytest.mark.parametrize("command", ["identify", "divpoly"])
def test_too_large_stdin_prec_is_a_configuration_error(capsys, monkeypatch,
                                                       command):
    blob = dict(to_qseries(E4, 20).to_json(), prec=HUGE)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    code, out, err = run_cli(capsys, command, "--weight", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: precision %d is too large" % 10 ** 400)
    # a precision below sys.maxsize that still does not fit in memory; the
    # allocation failure is simulated, so that nothing is allocated
    def no_memory(y, weight):
        raise MemoryError
    monkeypatch.setattr(cli, "identify", no_memory)
    blob["prec"] = "1e12"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(blob)))
    code, out, err = run_cli(capsys, command, "--weight", "4")
    assert code == 2 and out == ""
    assert err == "error: precision 1000000000000 is too large: its series " \
                  "do not fit in memory\n"


# precisions a fuzzed run may ask for: small ones (at most 30), the
# unexpandable 10^400, and malformed ones; never one that would really
# allocate, such as 10^9
_fuzz_precs = st.one_of(
    st.fractions(min_value=-2, max_value=30, max_denominator=6).map(str),
    st.sampled_from([HUGE, "0", "abc", "1/0", "1e-3"]))
# and 10^20, which no list holds, so it is refused before any work
_fuzz_ints = st.one_of(st.integers(-2, 6), st.just(10 ** 20)).map(str)
# weights: small ones, and 10^20, which is refused like the sizes above
_fuzz_weights = st.one_of(st.integers(-2, 30), st.just(10 ** 20)).map(str)
# mostly primes, so that the supersingular pipeline runs, and some non-primes
_fuzz_primes = st.one_of(
    st.sampled_from([p for p in range(5, 200) if all(p % d for d in range(2, p))]),
    st.integers(-3, 200))


@st.composite
def _fuzz_stdin(draw):
    """A JSON series on stdin: a form at precision at most 30 with its
    precision redrawn, or a malformed document."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    series = to_qseries(E4 ** a * E6 ** b, draw(st.integers(1, 30)))
    doc = series.to_json()
    doc["prec"] = draw(st.one_of(st.none(), _fuzz_precs))
    return draw(st.sampled_from([
        json.dumps(doc), json.dumps([doc]), "{", '{"coeffs": 5}',
        json.dumps(dict(doc, coeffs=["1/0"])),
        json.dumps(dict(doc, offset=draw(st.sampled_from(["1/2", "-1", HUGE])))),
    ]))


@st.composite
def _fuzz_run(draw):
    """(argv, stdin) of one command, with bounded sizes: m and l at most 6
    or else 10^20, upto at most 60 or else 10^20, p at most 200, precision
    at most 30 (at most 12 for run-all)."""
    command = draw(st.sampled_from([
        "series", "verify", "wronskian", "symcheck", "kz", "ssing",
        "partitions", "identify", "divpoly", "run-all"]))
    argv, stdin = [command], None
    if command == "series":
        argv.append(draw(st.sampled_from(NAMES + ("nope",))))
    elif command == "verify":
        argv += draw(st.lists(st.sampled_from(sorted(IDENTITIES) + ["nope"]),
                              max_size=3))
    elif command == "wronskian":
        pair = draw(st.sampled_from(["weber", "rr", "a1", "nope"]))
        argv += ["--basis", draw(st.sampled_from([
            "sym:%s:%s" % (pair, draw(_fuzz_ints)), "sym:%s" % pair,
            ",".join(draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                   max_size=3)))]))]
        if draw(st.booleans()):
            argv.append("--derived")
        if draw(st.booleans()):
            argv += ["--identify", draw(_fuzz_weights)]
    elif command == "symcheck":
        argv += ["--m", draw(_fuzz_ints),
                 "--pair", draw(st.sampled_from(["weber", "rr", "a1"]))]
    elif command == "kz":
        argv += ["--l", draw(_fuzz_ints), "--alpha=" + draw(_fuzz_precs)]
    elif command == "ssing":
        argv += ["--p", str(draw(_fuzz_primes)), "--route",
                 draw(st.sampled_from(["deligne", "wronskian", "oracle",
                                       "all"]))]
    elif command == "partitions":
        argv += ["--check", draw(st.sampled_from(["ssss", "p27", "both"])),
                 "--upto", str(draw(st.one_of(st.integers(-2, 60),
                                              st.just(10 ** 20))))]
    elif command == "run-all":
        primes = draw(st.lists(_fuzz_primes, min_size=1, max_size=2))
        argv += ["--primes=" + ",".join(map(str, primes)),
                 "--prec=" + draw(st.one_of(st.integers(-1, 12).map(str),
                                            st.just(HUGE)))]
    else:
        argv += ["--weight", draw(_fuzz_weights)]
        stdin = draw(_fuzz_stdin())
    if command != "run-all" and draw(st.booleans()):
        argv.append("--prec=" + draw(_fuzz_precs))
    if draw(st.booleans()):
        argv.append("--json")
    return argv, stdin


@settings(max_examples=100, deadline=None)
@given(_fuzz_run())
def test_cli_fuzz_keeps_the_exit_code_contract(run):
    """Exit 0, 1 or 2 for every bounded argv and stdin, never a traceback,
    and --json output that parses."""
    argv, stdin = run
    out, err = io.StringIO(), io.StringIO()
    kept = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:     # argparse rejects the arguments
                code = e.code
    finally:
        sys.stdin = kept
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue())
