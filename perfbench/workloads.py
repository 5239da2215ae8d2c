"""The workloads and the output check behind each of their checks.

The inputs are the paper's fixed series, primes and identities; the seed
only fixes the order of the checks.  Precision and range are set so that a
pass takes a few seconds on one core, which leaves several passes in one
run.  Each check returns (ok, detail); a check that raises counts as failed.

Every modwron function is looked up on its module at call time, so the
traced run's wrappers see the benchmark's own calls too.  The modules come
from sys.modules because the package rebinds some submodule names
(`modwron.wronskian` is the function).
"""

from fractions import Fraction
from importlib import import_module
from math import factorial, prod

cli, etaprod, partitions, ssing, symmpow, wronskian = (
    import_module("modwron." + name) for name in
    ("cli", "etaprod", "partitions", "ssing", "symmpow", "wronskian"))

# symquot_weber: m = 1..10 reaches k = 11 on the Bareiss path and both
# quotient branches (W' = 0 when 3 divides m).
WEBER_PREC = Fraction(16)
WEBER_M = 10
# etapower_ch: m = 5 has the worst lattice (L/Lv = 60) and dominates.
CH_PREC = Fraction(12)
CH_SYM12_PREC = Fraction(16)
# identities: ring products, powers, long division, eta and theta_h.
ID_PREC = 500
# ssing_primes: every prime from 5 to SS_PMAX; the F_p oracle grows as p^3.
SS_PMAX = 97

R12_ROOTS = {Fraction(0), Fraction(-11, 5), Fraction(-25, 4), Fraction(-15),
             Fraction(-40)}
# deg S_p = floor(p/12) + this, by p mod 12 (Eichler-Deuring count).
EICHLER_DEURING = {1: 0, 5: 1, 7: 1, 11: 2}


def _symquot(m):
    rep = cli.symcheck_report("weber", m, WEBER_PREC)
    return rep.status == "pass", rep.status


def _etapower(m):
    f = etaprod.named_series("ch1", CH_PREC)
    g = etaprod.named_series("ch2", CH_PREC)
    rep = symmpow.sym_wronskian_check(f, g, m)
    ok = (rep.constant == prod(factorial(k) for k in range(1, m + 1))
          and rep.power == m * (m + 1) // 2
          and rep.eta_power == 2 * m * (m + 1))
    return ok, "constant %s power %s eta_power %s" % (
        rep.constant, rep.power, rep.eta_power)


def _etapower_sym12():
    f = etaprod.named_series("ch1", CH_SYM12_PREC)
    g = etaprod.named_series("ch2", CH_SYM12_PREC)
    basis = symmpow.sym_basis(f, g, 12)
    w12 = wronskian.normalize(wronskian.wronskian(basis))
    window = w12.prec
    if window is None or window < CH_SYM12_PREC:
        return False, "window %s below %s" % (window, CH_SYM12_PREC)
    target = etaprod.eta(1, window) ** 312
    ok = w12.truncate(window) == target.truncate(window)
    return ok, "eta^312 through q^%s" % window


def _identity(name):
    rep = cli.verify(name, ID_PREC)
    ok = rep.status == "pass" and rep.precision >= ID_PREC
    return ok, "%s at precision %s" % (rep.status, rep.precision)


def _recurrences():
    rep = partitions.verify_recurrences(ID_PREC)
    return rep.ok, "through n=%d" % rep.upto


def _r12_roots():
    roots = symmpow.r12_vanishing_roots()
    return roots == R12_ROOTS, "roots %s" % sorted(roots)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _ssing(p):
    rep = ssing.supersingular_report(p)
    cong = ssing.congruence_constant_check(p)
    degree = rep.polynomial.degree()
    expected = p // 12 + EICHLER_DEURING[p % 12]
    ok = (rep.routes_agree and rep.oracle_match and cong.ok
          and degree == expected)
    return ok, ("routes_agree %s oracle_match %s congruence %s deg %d "
                "(expected %d)" % (rep.routes_agree, rep.oracle_match,
                                   cong.ok, degree, expected))


def checks(workload):
    """The (check id, thunk) list of one pass, in canonical order."""
    if workload == "symquot_weber":
        return [("sym_weber_m%d" % m, lambda m=m: _symquot(m))
                for m in range(1, WEBER_M + 1)]
    if workload == "etapower_ch":
        return ([("eta_power_ch_m%d" % m, lambda m=m: _etapower(m))
                 for m in range(1, 7)]
                + [("eta_power_ch_sym12", _etapower_sym12)])
    if workload == "identities":
        return ([("verify_%s" % name, lambda name=name: _identity(name))
                 for name in sorted(cli.IDENTITIES)]
                + [("partition_recurrences", _recurrences),
                   ("r12_roots", _r12_roots)])
    if workload == "ssing_primes":
        return [("ssing_p%d" % p, lambda p=p: _ssing(p))
                for p in range(5, SS_PMAX + 1) if _is_prime(p)]
    if workload == "identities_ssing":
        return checks("identities") + checks("ssing_primes")
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("symquot_weber", "etapower_ch", "identities", "ssing_primes",
             "identities_ssing")

# Workloads whose traced pass must record no span of the named layer.
STRUCTURAL_ZEROS = {
    "symquot_weber": "ssing",
    "etapower_ch": "ssing",
    "identities": "wronskian.det",
    "ssing_primes": "wronskian.det",
    "identities_ssing": "wronskian.det",
}
