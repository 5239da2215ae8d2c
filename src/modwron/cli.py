"""Command-line front end: named series, identity verification, Wronskian
and symmetric-power reports, the supersingular pipeline, and partition
checks, with machine-readable JSON output.

Every verification expands both sides of an identity independently and
compares coefficient-by-coefficient, so a failure localizes to an
exponent.  Exit codes: 0 all pass, 1 any fail, a series too short to
decide or no form of its weight, or a reader of stdout that closed early,
2 configuration error, a precision too large for memory included.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

from .etaprod import ProductSpec, eta, named_series, product_series, NAMES
from .modpoly import (InsufficientPrecision, NotIdentifiable, identify,
                      divisor_polynomial, to_qseries, G4)
from .partitions import verify_recurrences
from .poly import check_prime
from .qseries import DEFAULT_PREC, QSeries, _min_prec, first_mismatch
from .ssing import (congruence_constant_check, hasse_oracle, ss_poly_deligne,
                    ss_poly_wronskian, supersingular_report)
from .symmpow import (SymWronskianMismatch, apply, d_operator, kz_coeff,
                      r12_vanishing_roots, r_recursion, sym_basis,
                      sym_quotient_closed_form, sym_wronskian_check)
from .wronskian import identify_quotient, wronskian, wronskian_derived, \
    wronskians

DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)

PAIR_NAMES = {
    "rr": ("ch1", "ch2"),
    "weber": ("weber8_1", "weber8_2"),
    "a1": ("a1_f1", "a1_f2"),
}
PAIR_LAMBDA = {
    "rr": Fraction(-11, 5),
    "weber": Fraction(-40),
    "a1": Fraction(-25, 4),
}
# the rational lambda with R_12 = 0 for Q = lambda G4
R12_ROOTS = {Fraction(0), Fraction(-11, 5), Fraction(-25, 4), Fraction(-15),
             Fraction(-40)}


def _pair(pair, prec):
    """The two named series of a weight-0 pair, to precision prec."""
    return tuple(named_series(name, prec) for name in PAIR_NAMES[pair])


def _reduced_pair(pair, prec):
    """The pair whose Sym^m the command line eliminates: (weber8_1 -
    8 weber8_2, weber8_2) for the Weber pair, which is (ch L(Lambda_0),
    ch L(Lambda_1)/8) of D4^(1), and rr and a1 as named.

    By Weber's identity f^8 = f_1^8 + f_2^8 the terms of weber8_1 off its
    class offset + Z are 8 weber8_2, so weber8_1 - 8 weber8_2 lies on one
    class and QSeries compresses its stride: both members sit on the
    integer lattice, where the window of the elimination takes half the
    slots it takes on the named pair.  (f - c g)^i g^(m-i) is a
    unit-triangular change of the Sym^m basis for any c, column operations
    f_i -= c f_j that leave every minor of the derivative stack, so W, W'
    and their precisions are those of Sym^m of the named pair: the 8 fixes
    only the lattice, never a minor.  Only two series are reduced, not m+1
    members."""
    f, g = _pair(pair, prec)
    return (f - 8 * g, g) if pair == "weber" else (f, g)


_TOO_LARGE = "precision %s is too large: its series do not fit in memory"
_NOT_POSITIVE = "--prec must be positive, got %s"


def _fits(n, source):
    """n, refused before any work when no list could hold n entries."""
    if n > sys.maxsize:
        raise ValueError("%s %d is too large: its lists do not fit in memory"
                         % (source, n))
    return n


# The largest p that `ssing --p` and `run-all --primes` take, checked
# before trial division: `ssing --p 1009` takes 0.3 s, `--p 2003` 0.9-1.2 s
# and `--p 2999` 2.5-2.7 s on a 2-vCPU Xeon VM with CPython 3.11, most of
# it in the exact binomials of the Legendre oracle and in the closed form
# over Q that the Wronskian route and the congruence decompose.
P_MAX = 3000


def _prime_arg(p, source):
    """p from the command line, refused above P_MAX before any work."""
    _fits(p, source)
    if p > P_MAX:
        raise ValueError("%s %d is above %d, the largest p the supersingular "
                         "routes take" % (source, p, P_MAX))
    return p


class VerificationReport(NamedTuple):
    """Outcome of one two-sided identity comparison.

    status is "pass", "fail", or "insufficient-precision"; precision is
    the exponent bound actually compared through; first_fail is the
    exponent of the first mismatch when status is "fail"; detail names the
    failed sub-check in the human line only, so the JSON of a run does not
    depend on it.
    """

    identity: str
    status: str
    precision: object
    first_fail: object
    elapsed: float
    detail: str = ""

    def to_json(self):
        return {
            "identity": self.identity,
            "status": self.status,
            "precision": None if self.precision is None else str(self.precision),
            "first_fail": None if self.first_fail is None else str(self.first_fail),
        }

    def line(self):
        extra = "  " + self.detail if self.detail else ""
        if self.first_fail is not None:
            extra += "  first mismatch at q^(%s)" % (self.first_fail,)
        return "%-22s %-24s prec %-10s %7.2fs%s" % (
            self.identity, self.status, self.precision, self.elapsed, extra)


def _assess(identity, pairs, target, t0):
    """Compare (lhs, rhs) pairs through the target exponent bound.  A row
    passes only if some pair compares a slot: it has a term below its
    bound, or two zero sides (an ODE row compares zeros)."""
    checked = None
    fails = []
    compared = False
    for lhs, rhs in pairs:
        p = _min_prec(lhs.prec, rhs.prec, target)
        checked = _min_prec(checked, p)
        e = first_mismatch(lhs.truncate(p), rhs)
        if e is not None:
            fails.append(e)
        compared = compared or not (lhs.nums or rhs.nums) or any(
            x.nums and x.offset < p for x in (lhs, rhs))
    fail_at = min(fails, default=None)
    if fail_at is not None:
        status = "fail"
    elif not compared or checked < target:
        status = "insufficient-precision"
    else:
        status = "pass"
    return VerificationReport(identity=identity, status=status,
                              precision=checked, first_fail=fail_at,
                              elapsed=perf_counter() - t0)


# ---- identity registry -------------------------------------------------------

# Every builder expands its series this far past the bound n it is compared
# through, so that each named series is built once per n whatever the order
# of the checks.
SERIES_MARGIN = 3


def _rw1(n):
    """1/R - 1 - R = eta(tau/5)/eta(5 tau) on the step-1/5 lattice."""
    m = n + SERIES_MARGIN
    r = named_series("rr_cf", m)
    lhs = r.invert() - QSeries.one() - r
    rhs = eta(Fraction(1, 5), m) / eta(5, m)
    return [(lhs, rhs)]


def _rw2(n):
    """1/R^5 - 11 - R^5 = (eta(tau)/eta(5 tau))^6."""
    m = n + SERIES_MARGIN
    r5 = named_series("rr_cf", m) ** 5
    lhs = r5.invert() - 11 * QSeries.one() - r5
    rhs = (eta(1, m) / eta(5, m)) ** 6
    return [(lhs, rhs)]


def _rw2_char(n):
    """ch2^11 ch1 - 11 ch1^6 ch2^6 - ch1^11 ch2 = 1, with the left side
    formed as ch1 ch2 ((v - u)(v + u) - 11 u v), u = ch1^5, v = ch2^5."""
    m = n + SERIES_MARGIN
    ch1 = named_series("ch1", m)
    ch2 = named_series("ch2", m)
    u, v = ch1 ** 5, ch2 ** 5
    lhs = ch1 * ch2 * ((v - u) * (v + u) - 11 * (u * v))
    return [(lhs, QSeries.one(m))]


def _a1_quot(n):
    """2 f1/f2 - 2 f2/f1 = (eta(tau/2)/eta(2 tau))^4."""
    m = n + SERIES_MARGIN
    f1 = named_series("a1_f1", m)
    f2 = named_series("a1_f2", m)
    lhs = 2 * (f1 / f2) - 2 * (f2 / f1)
    rhs = (eta(Fraction(1, 2), m) / eta(2, m)) ** 4
    return [(lhs, rhs)]


def _a1_const(n):
    """f1^5 f2 - f2^5 f1 = 2, with the left side formed as
    f1 f2 (a^2 - b^2), a = f1^2, b = f2^2.

    That is one product more than f1 f2 (a - b)(a + b), but the product it
    replaces ran on the half-integer lattice: a and b lead at q^(-1/12) and
    q^(5/12), so a - b and a + b have terms half an exponent apart.  a^2
    and b^2 lead at q^(-1/6) and q^(5/6), so both squares and a^2 - b^2
    stay on the integer lattice."""
    m = n + SERIES_MARGIN
    f1 = named_series("a1_f1", m)
    f2 = named_series("a1_f2", m)
    a, b = f1 ** 2, f2 ** 2
    lhs = f1 * f2 * (a * a - b * b)
    return [(lhs, 2 * QSeries.one(m))]


def _weber_prod(n):
    """prod(1+q^(2n-1))^8 - 16q prod(1+q^(2n))^8 = prod(1-q^(2n-1))^8."""
    m = n + SERIES_MARGIN
    odd_plus = product_series(ProductSpec([(2, 4, 8), (1, 2, -8)]), m)
    even_plus = product_series(ProductSpec([(0, 4, 8), (0, 2, -8)]), m)
    odd_minus = product_series(ProductSpec([(1, 2, 8)]), m)
    lhs = odd_plus - 16 * QSeries.monomial(1, 1, m) * even_plus
    return [(lhs, odd_minus)]


def _chprod(n):
    """ch1 ch2 = eta(5 tau)/eta(tau)."""
    m = n + SERIES_MARGIN
    lhs = named_series("ch1", m) * named_series("ch2", m)
    return [(lhs, eta(5, m) / eta(1, m))]


def _f1f2(n):
    """f1 f2 = 2 (eta(2 tau)/eta(tau))^4."""
    m = n + SERIES_MARGIN
    lhs = named_series("a1_f1", m) * named_series("a1_f2", m)
    rhs = 2 * (eta(2, m) / eta(1, m)) ** 4
    return [(lhs, rhs)]


def _ode(pair):
    def build(n):
        m = n + SERIES_MARGIN
        f, g = _pair(pair, m)
        op = d_operator(PAIR_LAMBDA[pair] * G4, 1)
        return [(apply(op, f), QSeries.zero(m)),
                (apply(op, g), QSeries.zero(m))]
    return build


IDENTITIES = {
    "rw1": _rw1,
    "rw2": _rw2,
    "rw2_char": _rw2_char,
    "a1_quot": _a1_quot,
    "a1_const": _a1_const,
    "weber_prod": _weber_prod,
    "chprod": _chprod,
    "f1f2": _f1f2,
    "ode_rr": _ode("rr"),
    "ode_weber": _ode("weber"),
    "ode_a1": _ode("a1"),
}


def verify(identity, prec=DEFAULT_PREC):
    """Verify one registered identity through the exponent bound prec,
    DEFAULT_PREC unless given, as for --prec."""
    if identity not in IDENTITIES:
        raise ValueError("unknown identity %r (choose from %s)"
                         % (identity, ", ".join(sorted(IDENTITIES))))
    target = Fraction(prec)
    if target <= 0:
        raise ValueError(_NOT_POSITIVE % target)
    t0 = perf_counter()
    pairs = IDENTITIES[identity](target)
    return _assess(identity, pairs, target, t0)


# ---- report rows ---------------------------------------------------------------

def _row(identity, precision, check, *args):
    """Time check(*args) and build its report row.

    check returns "" when it passes and the failed sub-check's name when it
    does not; a SymWronskianMismatch it raises is a fail at its exponent,
    and an InsufficientPrecision an insufficient-precision row.
    """
    t0 = perf_counter()
    first_fail = None
    try:
        detail = check(*args)
    except SymWronskianMismatch as e:
        detail, first_fail = e.check, e.exponent
    except InsufficientPrecision as e:
        return VerificationReport(identity, "insufficient-precision",
                                  precision, None, perf_counter() - t0, str(e))
    return VerificationReport(identity, "fail" if detail else "pass",
                              precision, first_fail, perf_counter() - t0,
                              detail)


def _symcheck(pair, m, prec):
    f, g = _reduced_pair(pair, prec)
    w, wd = wronskians(sym_basis(f, g, m))
    sym_wronskian_check(f, g, m, ws=w)
    try:
        routes = [("determinant", identify_quotient(w, wd, 2 * m + 2))]
    except NotIdentifiable as e:
        return "determinant quotient %s" % e
    rlast = r_recursion(PAIR_LAMBDA[pair] * G4, m)[-1]
    routes.append(("recursion", rlast if m % 2 else -rlast))
    if pair == "weber":
        routes.append(("closed form", sym_quotient_closed_form(m)))
    odd = [name for name, form in routes[1:] if form != routes[0][1]]
    return "determinant disagrees with %s" % " and ".join(odd) if odd else ""


def symcheck_report(pair, m, prec):
    """Wronskian factorization plus route agreement for one (pair, m).

    Routes compared: the determinant quotient W'/W identified in weight
    2m+2, the constant-coefficient recursion with the pair's Q = lambda G4
    (sign (-1)^(m+1)), and -- for the Weber pair -- the hypergeometric
    closed form.  W and W' come from one elimination, and the same W feeds
    the factorization check; both come from Sym^m of _reduced_pair.  A
    determinant quotient that identify rejects fails the row, and a
    Wronskian with no known nonzero term is an insufficient-precision row.
    """
    return _row("sym_%s_m%d" % (pair, m), prec, _symcheck, pair, m, prec)


def _r12_roots():
    roots = r12_vanishing_roots()
    if roots == R12_ROOTS:
        return ""
    return "R_12 root set {%s}" % ", ".join(str(r) for r in sorted(roots))


def _eta_powers(pair, prec):
    f, g = _reduced_pair(pair, prec)
    for m in range(1, 7):
        sym_wronskian_check(f, g, m)
    return ""


def _recurrence_sections(rec):
    """check id -> (label, counterexamples) of a RecurrenceReport."""
    return {
        "ssss": ("colored mod-5 recurrence", rec.colored_counterexamples),
        "p27": ("restricted mod-27 recurrence", rec.restricted_counterexamples),
    }


def _recurrences(upto):
    sections = _recurrence_sections(verify_recurrences(upto)).values()
    return ", ".join(label for label, bad in sections if bad)


def _ssing_failures(rep):
    """The failed sub-checks of a prime's supersingular report and of its
    congruence, "" when all pass: the verdict of `ssing` and of its row."""
    checks = (("routes disagree", rep.routes_agree),
              ("oracle differs", rep.oracle_match),
              ("congruence fails", congruence_constant_check(rep.p).ok))
    return ", ".join(name for name, ok in checks if not ok)


def _ssing_row(p):
    """The ssing_pP row's check: a ValueError that the prime's mathematics
    raises fails the row by its message."""
    try:
        return _ssing_failures(supersingular_report(p))
    except ValueError as e:
        return str(e)


# ---- formatting helpers ---------------------------------------------------------

def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _emit_reports(args, reports, *footer):
    _emit(args, [r.to_json() for r in reports],
          "\n".join([r.line() for r in reports] + list(footer)))
    return 0 if all(r.status == "pass" for r in reports) else 1


def _terms(form):
    """JSON terms of an MFPoly: "a,b" -> the coefficient of E4^a E6^b."""
    return {"%d,%d" % k: str(v) for k, v in form.terms.items()}


# ---- run-all ---------------------------------------------------------------------

def run_all(prec, primes):
    """Every registered identity, the symmetric-power routes m = 1..12,
    the R_12 root set, the eta-power factorizations, the partition
    recurrences, and the supersingular pipeline."""
    prec = Fraction(prec)
    for p in primes:
        check_prime(p)

    def capped(rows, cap):
        # a row run below --prec says so in its human line only
        note = "capped from --prec %s" % prec
        return rows if prec <= cap else [
            r._replace(detail="; ".join(filter(None, (r.detail, note))))
            for r in rows]

    reports = [verify(name, prec) for name in sorted(IDENTITIES)]
    det_prec = min(prec, Fraction(60))
    reports += capped([symcheck_report("weber", m, det_prec)
                       for m in range(1, 13)], det_prec)
    reports.append(_row("r12_roots", None, _r12_roots))
    eta_prec = min(prec, Fraction(45))
    reports += capped([_row("eta_power_%s" % pair, eta_prec, _eta_powers, pair,
                            eta_prec) for pair in ("rr", "weber")], eta_prec)
    reports.append(_row("partition_recurrences", 50, _recurrences, 50))
    reports += [_row("ssing_p%d" % p, None, _ssing_row, p) for p in primes]
    return reports


# ---- argument plumbing --------------------------------------------------------------

def _parse_basis(spec, prec):
    """--basis value: comma-separated named series or sym:<pair>:<m>."""
    if spec.startswith("sym:"):
        try:
            _, pair, m = spec.split(":")
            m = int(m)
        except ValueError:
            raise ValueError("malformed basis spec %r; expected sym:<pair>:<m>"
                             % spec)
        _fits(m, "basis m")
        if pair not in PAIR_NAMES:
            raise ValueError("unknown pair %r (choose from %s)"
                             % (pair, ", ".join(sorted(PAIR_NAMES))))
        return sym_basis(*_reduced_pair(pair, prec), m)
    return [named_series(name.strip(), prec) for name in spec.split(",")]


def _fraction(raw):
    """argparse type for a rational argument: a bad one is a usage error."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid fraction %r" % raw)


def _parse_primes(raw):
    try:
        primes = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ValueError("malformed --primes list %r" % raw)
    if not primes:
        raise ValueError("empty --primes list")
    for p in primes:
        _prime_arg(p, "prime")
    return primes


def build_parser():
    ap = argparse.ArgumentParser(
        prog="modwron",
        description="Exact q-series Wronskians, symmetric-power operators, "
                    "and supersingular polynomials.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        # argparse takes a value such as -7/5 that its own negative-number
        # pattern misses for an option; this pattern admits fractions
        p._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+|\d+/\d+)$")
        p.add_argument("--prec", type=_fraction, default=Fraction(DEFAULT_PREC),
                       help="absolute exponent bound")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("series", help="print a named q-series")
    p.add_argument("name", choices=sorted(NAMES))
    add_common(p)

    p = sub.add_parser("verify", help="verify registered identities")
    p.add_argument("identities", nargs="*",
                   help="identity ids (default: all)")
    add_common(p)

    p = sub.add_parser("wronskian", help="Wronskian of a basis")
    p.add_argument("--basis", required=True,
                   help="comma-separated series names or sym:<pair>:<m>")
    p.add_argument("--derived", action="store_true",
                   help="use first derivatives of the basis")
    p.add_argument("--identify", type=int, metavar="W", default=None,
                   help="identify the result in weight W")
    add_common(p)

    p = sub.add_parser("symcheck",
                       help="symmetric-power factorization and route agreement")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pair", choices=sorted(PAIR_NAMES), default="weber")
    add_common(p)

    p = sub.add_parser("kz", help="coefficient of x^(2l) in the "
                                  "(1 - 3 E4 x^4 + 2 E6 x^6)^alpha expansion")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    add_common(p)

    p = sub.add_parser("ssing", help="supersingular polynomial pipeline")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--route", choices=("deligne", "wronskian", "oracle", "all"),
                   default="all")
    add_common(p)

    p = sub.add_parser("partitions", help="partition recurrence checks")
    p.add_argument("--check", choices=("ssss", "p27", "both"), default="both")
    p.add_argument("--upto", type=int, default=50)
    add_common(p)

    p = sub.add_parser("divpoly", help="divisor polynomial of a form "
                                       "(JSON series on stdin)")
    p.add_argument("--weight", type=int, required=True)
    add_common(p)

    p = sub.add_parser("identify", help="identify a q-series as a form "
                                        "(JSON series on stdin)")
    p.add_argument("--weight", type=int, required=True)
    add_common(p)

    p = sub.add_parser("run-all", help="full verification suite")
    p.add_argument("--primes", default=None,
                   help="comma-separated primes (default %s)"
                        % (",".join(str(p) for p in DEFAULT_PRIMES)))
    add_common(p)
    return ap


# ---- subcommand bodies -----------------------------------------------------------------

def _cmd_series(args, prec):
    s = named_series(args.name, prec)
    _emit(args, s.to_json(), "%s = %s" % (args.name, s))
    return 0


def _cmd_verify(args, prec):
    names = args.identities or sorted(IDENTITIES)
    return _emit_reports(args, [verify(name, prec) for name in names])


def _cmd_wronskian(args, prec):
    if args.identify is not None:
        _fits(args.identify, "--identify")
    basis = _parse_basis(args.basis, prec)
    w = wronskian_derived(basis) if args.derived else wronskian(basis)
    payload = {"wronskian": w.to_json()}
    human = ["W%s = %s" % ("'" if args.derived else "", w)]
    if args.identify is not None:
        form = identify(w, args.identify)
        payload["identified"] = {"weight": args.identify,
                                 "terms": _terms(form)}
        human.append("weight-%d form: %s" % (args.identify, form))
    _emit(args, payload, "\n".join(human))
    return 0


def _cmd_symcheck(args, prec):
    report = symcheck_report(args.pair, _fits(args.m, "--m"), prec)
    _emit(args, report.to_json(), report.line())
    return 0 if report.status == "pass" else 1


def _cmd_kz(args, prec):
    form = kz_coeff(_fits(args.l, "--l"), args.alpha)
    series = to_qseries(form, prec)
    payload = {
        "l": args.l,
        "alpha": str(args.alpha),
        "weight": form.weight,
        "terms": _terms(form),
        "series": series.to_json(),
    }
    human = "G_{%d,%s} = %s\n        = %s" % (
        args.l, args.alpha, form, series)
    _emit(args, payload, human)
    return 0


def _cmd_ssing(args, prec):
    p = _prime_arg(args.p, "--p")
    check_prime(p)
    try:
        if args.route != "all":
            # looked up when it runs, so a rebound name is the one called
            poly = {"deligne": ss_poly_deligne, "wronskian": ss_poly_wronskian,
                    "oracle": hasse_oracle}[args.route](p)
        else:
            rep = supersingular_report(p)
            failed = _ssing_failures(rep)
    except ValueError as e:
        # p is a prime: what its mathematics raises fails it
        print("error: %s" % e, file=sys.stderr)
        return 1
    if args.route != "all":
        _emit(args, {"p": p, "route": args.route,
                     "polynomial": list(poly.coeffs)},
              "p=%d S_p (%s route) = %s" % (p, args.route, poly))
        return 0
    payload = {
        "p": rep.p,
        "polynomial": list(rep.polynomial.coeffs),
        "fp_roots": list(rep.fp_roots),
        "quadratic_factors": [list(q.coeffs) for q in rep.quadratic_factors],
        "routes_agree": rep.routes_agree,
        "oracle_match": rep.oracle_match,
        "epsilon": list(rep.epsilon),
    }
    human = ("p=%d  S_p = %s\n  roots in F_p: %s\n  quadratic factors: %s\n"
             "  routes agree: %s   oracle match: %s   (eps_omega, eps_i) = %s"
             % (rep.p, rep.polynomial, list(rep.fp_roots),
                [str(q) for q in rep.quadratic_factors] or "none",
                rep.routes_agree, rep.oracle_match, rep.epsilon))
    _emit(args, payload, human + "\n  FAIL: " + failed if failed else human)
    return 1 if failed else 0


def _cmd_partitions(args, prec):
    rec = verify_recurrences(_fits(args.upto, "--upto"))
    sections = _recurrence_sections(rec)
    wanted = ("ssss", "p27") if args.check == "both" else (args.check,)
    ok = all(not sections[w][1] for w in wanted)
    payload = {"upto": rec.upto, "ok": ok}
    lines = []
    for w in wanted:
        label, bad = sections[w]
        payload[w] = {"ok": not bad, "counterexamples": list(bad)}
        lines.append("%s through n=%d: %s"
                     % (label, rec.upto, "pass" if not bad else
                        "FAIL at %s" % (bad[:3],)))
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _read_series_stdin():
    try:
        d = json.load(sys.stdin)
        if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
            raise ValueError("expected an object with a \"coeffs\" list")
        return QSeries.from_json(d)
    except ZeroDivisionError:
        raise ValueError("could not parse a JSON q-series from stdin: a "
                         "fraction has denominator 0")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ValueError("could not parse a JSON q-series from stdin: %s" % e)


def _identify_stdin(weight):
    """The form of the JSON series on stdin."""
    y = _read_series_stdin()
    try:
        return identify(y, weight)
    except (OverflowError, MemoryError):
        raise ValueError(_TOO_LARGE % y.prec) from None


def _cmd_divpoly(args, prec):
    form = _identify_stdin(_fits(args.weight, "--weight"))
    poly = divisor_polynomial(form)
    _emit(args, {"weight": args.weight,
                 "divisor_polynomial": [str(c) for c in poly.coeffs]},
          "F(f, x) = %s" % poly)
    return 0


def _cmd_identify(args, prec):
    form = _identify_stdin(_fits(args.weight, "--weight"))
    _emit(args, {"weight": args.weight, "terms": _terms(form)}, str(form))
    return 0


def _cmd_run_all(args, prec):
    primes = (_parse_primes(args.primes) if args.primes is not None
              else DEFAULT_PRIMES)
    reports = run_all(prec, primes)
    npass = sum(r.status == "pass" for r in reports)
    return _emit_reports(args, reports, "%d/%d pass" % (npass, len(reports)))


_COMMANDS = {
    "series": _cmd_series,
    "verify": _cmd_verify,
    "wronskian": _cmd_wronskian,
    "symcheck": _cmd_symcheck,
    "kz": _cmd_kz,
    "ssing": _cmd_ssing,
    "partitions": _cmd_partitions,
    "divpoly": _cmd_divpoly,
    "identify": _cmd_identify,
    "run-all": _cmd_run_all,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    prec = args.prec
    try:
        if prec <= 0:
            raise ValueError(_NOT_POSITIVE % prec)
        if prec > sys.maxsize:
            # no list holds that many slots; refused before any series is built
            raise ValueError(_TOO_LARGE % prec)
        status = _COMMANDS[args.command](args, prec)
        sys.stdout.flush()
        return status
    except (OverflowError, MemoryError):
        # a slot list of the length that prec sets could not be made
        print("error: " + _TOO_LARGE % prec, file=sys.stderr)
        return 2
    except (InsufficientPrecision, NotIdentifiable) as e:
        # a short series or a non-form is a check's result, not a bad argument
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed early.  What is still buffered goes to devnull,
        # so the flush at exit cannot fail, and the run counts as incomplete.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
