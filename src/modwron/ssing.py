"""Supersingular polynomials in characteristic p by independent routes.

The supersingular locus S_p(x) is the monic polynomial over F_p whose
roots are the supersingular j-invariants.  Each route is a function
p -> S_p: from the divisor polynomial of the Eisenstein series E_{p-1}
(`ss_poly_deligne`), from the divisor polynomial of the normalized
symmetric-power Wronskian quotient of the Weber pair at m = (p-3)/2
(`ss_poly_wronskian`), and from Deuring's criterion on the Legendre family
(`hasse_oracle`), which certifies all of S_p, quadratic factors included.
The module also peels off the forced linear factors at j = 0 and j = 1728
and splits the remainder into linear and irreducible quadratic factors
over F_p by distinct- and equal-degree factorization.

The routes and the constant congruence reduce mod p first and then work
in F_p, on one table per prime: the Delta-ladder basis of weight p - 1,
built once in F_p, with every factor and product reduced mod p, and shared
by Deligne's route and the congruence.
"""

from math import comb, factorial
from typing import NamedTuple

from .modpoly import (_back_substitute, _ladder, _ladder_sum, _weight_shape,
                      decompose, dim_modular, h_poly)
from .poly import Poly, check_prime
from .symmpow import sym_quotient_closed_form

# coefficients of E_{p-1} that Deligne's route checks beyond dim M_{p-1}
DELIGNE_MARGIN = 16

# (weight, p) -> the Delta-ladder of M_weight reduced mod p (`_ladder_mod_p`)
_LADDERS = {}


def _window(p):
    """The last exponent the congruence checks: q^50, and never less than
    Sturm's bound floor((p-1)/12) for weight p - 1."""
    return max(50, (p - 1) // 12)


def _ladder_mod_p(weight, p):
    """The Delta-ladder basis of M_weight reduced mod p, member i from
    exponent i, through the slots both Deligne's route and the congruence
    at p read.  Built once per (weight, p) by `_ladder` over F_p."""
    table = _LADDERS.get((weight, p))
    if table is None:
        n = max(_window(p) + 1, dim_modular(weight) + DELIGNE_MARGIN)
        table = _LADDERS[(weight, p)] = list(_ladder(weight, n, p))
    return table


def _residue(c, p, e):
    """The Fraction c mod p, the coefficient at q^e of what is reduced."""
    if c.denominator % p == 0:
        raise ValueError("coefficient at exponent %s has denominator "
                         "divisible by %d" % (e, p))
    return c.numerator * pow(c.denominator, -1, p) % p


def _times_h(f_tilde, weight, p):
    """monic h_weight f~ over F_p: the divisor polynomial of a form of the
    weight, mod p, from the ascending coefficients of its f~ mod p."""
    return (Poly(f_tilde, p) * Poly(h_poly(weight).coeffs, p)).monic()


# ---- the two constructions ---------------------------------------------------

def ss_poly_deligne(p):
    """S_p(x) from the divisor polynomial of E_{p-1} reduced mod p.

    By von Staudt-Clausen p divides the denominator of B_{p-1} exactly
    once, so the factor 2(p-1)/B_{p-1} of every nonconstant coefficient of
    E_{p-1} is 0 mod p, and E_{p-1} = 1 (mod p) as a q-series: no exact
    E_{p-1} (nor B_{p-1}) is formed.  Back-substitution of 1 through
    dim M_{p-1} + DELIGNE_MARGIN coefficients against the ladder mod p
    gives its coordinates c_i, and every coefficient must match
    (NotIdentifiable otherwise).  Then f~(x) = sum_i c_i x^(t-i).
    """
    check_prime(p)
    w = p - 1
    residual = [1] + [0] * (dim_modular(w) + DELIGNE_MARGIN - 1)
    coords = _back_substitute(residual, _ladder_mod_p(w, p), p)
    return _times_h(coords[::-1], w, p)


def ss_poly_wronskian(p):
    """S_p(x) from the symmetric-power Wronskian quotient at m = (p-3)/2.

    The j-polynomial f~ of the closed-form quotient W'/W of the m-th
    symmetric power of the Weber pair is reduced mod p, multiplied by the
    forced factors and made monic, which removes any scalar factor of the
    form.
    """
    check_prime(p)
    d = decompose(sym_quotient_closed_form((p - 3) // 2))
    return _times_h(d.f_tilde.coeffs, d.weight, p)


# ---- the Legendre-family oracle ----------------------------------------------

def hasse_oracle(p):
    """S_p(x) by Deuring's criterion on the Legendre family.

    y^2 = x(x-1)(x-lambda) is supersingular exactly at the roots of
    H_p(lambda) = sum_{i<=e} C(e,i)^2 lambda^i, e = (p-1)/2 (Silverman,
    AEC, Thm V.4.1).  With mu = lambda^2 - lambda, j = 256 (mu+1)^3 / mu^2,
    so H_p over (mu+1)^eps_omega ((mu-2)(2 lambda-1))^eps_i is, up to a
    unit, sum_k s_k (256 (mu+1)^3)^k mu^(2(n-k)), and S_p is sum_k s_k x^k
    times x^eps_omega (x-1728)^eps_i.  The s_k are peeled off from s_n
    down, each at the lowest power of mu left; an odd part in mu, or a
    remainder after s_0, raises a ValueError naming its power of mu.
    """
    eps_omega, eps_i = epsilon_factors(p)      # checks p
    e = (p - 1) // 2
    lam = x = Poly((0, 1), p)              # lambda in H_p, x in S_p
    mu = lam * lam - lam
    forced = (mu + 1) ** eps_omega * ((mu - 2) * (2 * lam - 1)) ** eps_i
    h = Poly([comb(e, i) ** 2 for i in range(e + 1)], p)
    rest, g = list(h.exact_div(forced).coeffs) + [0], []   # g: rest in mu
    while len(rest) > 1:
        for i in range(len(rest) - 1, 1, -1):     # divide by mu
            rest[i - 1] = (rest[i - 1] + rest[i]) % p
        if rest[1]:
            raise ValueError("H_%d over its forced factors has an odd part "
                             "at mu^%d" % (p, len(g)))
        g.append(rest[0])
        rest = rest[2:]
    n = (len(g) - 1) // 3
    s = [0] * (n + 1)
    for k in range(n, -1, -1):
        low, c = 2 * (n - k), g[2 * (n - k)]
        s[k] = c * pow(256, -k, p) % p
        for i in range(3 * k + 1):
            g[low + i] = (g[low + i] - c * comb(3 * k, i)) % p
    left = [i for i, c in enumerate(g) if c]
    if left:
        raise ValueError("H_%d over its forced factors leaves a remainder at "
                         "mu^%d" % (p, left[0]))
    return (Poly(s, p) * x ** eps_omega * (x - 1728) ** eps_i).monic()


# ---- forced factors and the factor split --------------------------------------

def epsilon_factors(p):
    """(eps_omega, eps_i): multiplicities of the forced roots j = 0, 1728,
    the (delta, epsilon) of weight p - 1."""
    check_prime(p)
    return _weight_shape(p - 1)[:2]


def ss_tilde(p):
    """S_p with the forced factors x^eps_omega (x-1728)^eps_i divided out."""
    return ss_poly_deligne(p).exact_div(Poly(h_poly(p - 1).coeffs, p))


def linear_quadratic_split(f):
    """Split a squarefree monic Poly over F_p into linear and irreducible
    quadratic factors; raises if any other factor type remains.

    The roots in F_p are divided out.  What remains must be a product of
    distinct irreducible quadratics: gcd(x^p - x, rem) = 1, so it has no
    root in F_p, and rem divides x^(p^2) - x.  It is then split by
    gcd(g, (x+t)^((p^2-1)/2) - 1) for t = 0, 1, ... in order, until every
    piece has degree 2.  At a root r of an irreducible quadratic q,
    (r+t)^((p^2-1)/2) is the Legendre symbol of q(-t), and two distinct q
    are told apart by some t in F_p: by the Weil bound for p > 9, and by
    exhaustion for p = 5, 7.

    Returns (sorted list of roots, list of monic irreducible quadratics
    sorted by their x and constant coefficients).
    """
    p = f.p
    rem = f.monic()
    roots = sorted(rem.roots())
    x = Poly((0, 1), p)
    for a in roots:
        rem = rem.exact_div(x - a)
    pieces = []
    if rem.degree() > 0:
        xp = pow(x, p, rem)
        if rem.gcd(xp - x) != 1 or pow(xp, p, rem) != x:
            raise ValueError(
                "leftover factor %s is neither linear nor an irreducible "
                "quadratic" % (rem,))
        pieces = [rem]
    half = (p * p - 1) // 2
    for t in range(p):
        if all(g.degree() == 2 for g in pieces):
            break
        split = []
        for g in pieces:
            d = g.gcd(pow(x + t, half, g) - 1) if g.degree() > 2 else g
            if 0 < d.degree() < g.degree():
                split += [d, g.exact_div(d)]
            else:
                split.append(g)
        pieces = split
    return roots, sorted(pieces, key=lambda q: (q.coeff(1), q.coeff(0)))


# ---- the constant congruence ---------------------------------------------------

def legendre_symbol(a, p):
    """(a/p) in {-1, 0, 1} by Euler's criterion."""
    check_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class CongruenceReport(NamedTuple):
    """Mod-p collapse of the symmetric-power quotient at m = (p-3)/2.

    constant  -- residue of the constant q-coefficient
    expected  -- (-1)^((p-1)/2) (2/p) ((p-1)/2)! mod p
    nonconstant_vanish -- True when every q-coefficient above the constant
                          reduces to 0 through the checked window
    checked_through    -- the last exponent checked, at least Sturm's bound
    ok        -- both conditions hold
    """

    p: int
    constant: int
    expected: int
    nonconstant_vanish: bool
    checked_through: int
    ok: bool


def congruence_constant_check(p):
    """Check that the m = (p-3)/2 quotient reduces mod p to the constant
    (-1)^((p-1)/2) (2/p) ((p-1)/2)! with all other coefficients 0.

    The coefficients are checked through q^50, and never through less
    than Sturm's bound floor((p-1)/12): a form of weight p - 1 whose
    reduction vanishes through that exponent vanishes mod p.  The form is
    sum_i c_i L_i on its Delta-ladder, L_i = q^i + ... with integer
    coefficients, so its expansion is summed mod p from the ladder mod p;
    the first c_i with p in its denominator is also the first q-coefficient
    with p in its denominator, which the ValueError names.
    """
    check_prime(p)
    upto = _window(p)
    form = sym_quotient_closed_form((p - 3) // 2)
    residues = [0] * (upto + 1)
    if not form.is_zero():
        d = decompose(form)
        _ladder_sum(residues, [_residue(d.f_tilde.coeff(d.t - i), p, i)
                               for i in range(min(d.t, upto) + 1)],
                    _ladder_mod_p(d.weight, p))
    constant = residues.pop(0) % p
    vanish = not any(r % p for r in residues)
    half = (p - 1) // 2
    expected = ((-1) ** half * legendre_symbol(2, p) * factorial(half)) % p
    return CongruenceReport(p=p, constant=constant, expected=expected,
                            nonconstant_vanish=vanish,
                            checked_through=upto,
                            ok=vanish and constant == expected)


# ---- aggregate report ------------------------------------------------------------

class SupersingularReport(NamedTuple):
    """Everything the pipeline knows about one prime.

    polynomial   -- S_p by Deligne's route, `ss_poly_deligne(p)`
    routes_agree -- the Wronskian route `ss_poly_wronskian(p)` equals it
    oracle_match -- the Legendre-family S_p, `hasse_oracle(p)`, equals it as
                    a whole polynomial, so its roots and quadratic factors
                    are certified too
    fp_roots, quadratic_factors -- the roots in F_p and the monic
                    irreducible quadratic factors of the oracle's S_p
    epsilon      -- (eps_omega, eps_i), the orders of the forced roots
                    j = 0 and j = 1728
    """

    p: int
    polynomial: Poly
    fp_roots: tuple
    quadratic_factors: tuple
    routes_agree: bool
    oracle_match: bool
    epsilon: tuple


def supersingular_report(p):
    """The three routes to S_p for p, and the split of the oracle's."""
    sd = ss_poly_deligne(p)
    sw = ss_poly_wronskian(p)
    oracle = hasse_oracle(p)
    roots, quads = linear_quadratic_split(oracle)
    return SupersingularReport(
        p=p, polynomial=sd, fp_roots=tuple(roots),
        quadratic_factors=tuple(quads), routes_agree=sd == sw,
        oracle_match=sd == oracle, epsilon=epsilon_factors(p))
