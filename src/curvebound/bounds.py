"""Exact-arithmetic auditor for the bound chains on even-genus ordinary curves.

Every verdict is decided over the integers: fractional exponents are cleared
by raising both positive sides to the exponent denominator, and the cleared
sides are compared by cross-multiplying their integer numerators and
denominators.  Fractions appear only at the registry's inputs (decimal
constants as exact rationals); a comparison of two of them is itself an exact
cross-multiplication.

The registry stores each chain step in the normalization the source argument
uses.  One audit rule serves every step: its kind names a checker, the
checker is called on the step's params (``dominates`` and
``poly_positive_from`` are the checkers of their kinds), and the row's note
is the step's note followed by the checker's.  A handful of printed steps are
genuinely false as stated; they are registered with ``slip=True`` together
with an exact failure witness, and each has a validated companion step
covering the same link of the chain.  A chain passes iff every step
reproduces its frozen verdict.  The verdicts depend on the frozen registry
alone, so each chain is audited once per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm

from . import Record
from .arith import factorize
from .classical import family_order

F = Fraction

# -- power bounds -----------------------------------------------------------


class PowerBound(Record):
    """The function g -> coeff * (mult * (g + shift)^num)^(1/den).

    ``coeff`` is an exact positive rational, ``mult`` a positive integer
    radicand multiplier, and num/den the exponent of (g + shift).
    """

    __slots__ = ("coeff", "shift", "num", "den", "mult")

    def __init__(self, coeff: Fraction, shift: int = 0, num: int = 1, den: int = 1, mult: int = 1):
        # a Fraction's denominator is positive; a float has no numerator and is refused
        if getattr(coeff, "numerator", 0) <= 0 or den <= 0 or num < 0 or mult <= 0:
            raise ValueError("power bound must have an exact positive coefficient and a non-negative exponent")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "mult", mult)


def holds_at(b: PowerBound, value: int, g: int) -> bool:
    """Exact test value < bound(g), decided by raising both sides to den."""
    if g + b.shift < 0 or value < 0:
        raise ValueError("operands must be non-negative")
    c, den = b.coeff, b.den
    return value**den * c.denominator**den < c.numerator**den * b.mult * (g + b.shift) ** b.num


def _comparator(b1: PowerBound, b2: PowerBound):
    """(sign, tail, split): sign(g) is the sign of b1(g) - b2(g), decided exactly,
    tail its sign for all large g, and split the floor of the single extremum of
    the cleared log-difference, None if there is none.

    Raised to power = lcm(den1, den2), which clears both roots, and with the
    denominators cross-multiplied, the comparison is lead1*(g+s1)^alpha vs
    lead2*(g+s2)^beta; the constants are multiplied out once for the pair.  The
    tail is decided by the exponents, then by the constants, then by the
    shifts.  beta*ln(g+s2) - alpha*ln(g+s1) has at most one stationary point, at
    g = (alpha*s2 - beta*s1)/(beta - alpha), so the sign of the difference
    changes at most once on each side of it.
    """
    power = lcm(b1.den, b2.den)
    alpha, beta = b1.num * power // b1.den, b2.num * power // b2.den
    lead1 = b1.coeff.numerator**power * b1.mult ** (power // b1.den) * b2.coeff.denominator**power
    lead2 = b2.coeff.numerator**power * b2.mult ** (power // b2.den) * b1.coeff.denominator**power
    s1, s2 = b1.shift, b2.shift

    def sign(g: int) -> int:
        if g + s1 < 0 or g + s2 < 0:
            raise ValueError(f"g + shift negative at g={g}")
        lhs, rhs = lead1 * (g + s1) ** alpha, lead2 * (g + s2) ** beta
        return (lhs > rhs) - (lhs < rhs)

    if alpha != beta:
        return sign, 1 if alpha > beta else -1, (alpha * s2 - beta * s1) // (beta - alpha)
    if lead1 != lead2 or alpha == 0:
        return sign, (lead1 > lead2) - (lead1 < lead2), None
    return sign, (s1 > s2) - (s1 < s2), None


class AuditReport(Record):
    __slots__ = ("verdict", "witness", "note")

    def __init__(self, verdict: str, witness: int | None = None, note: str = ""):
        if verdict not in ("holds", "fails", "holds-on-range"):
            raise ValueError(f"bad verdict {verdict!r}")
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)


_TAIL_RELATION = {1: "reverses", -1: "persists", 0: "is exact equality"}


def dominates(b1: PowerBound, b2: PowerBound, g_min: int, g_max=None) -> AuditReport:
    """Exact verdict that b1(g) < b2(g) for every integer g in [g_min, g_max].

    With g_max None the range is [g_min, infinity).  The cleared comparison
    has at most one interior extremum, so evaluating at the range endpoints
    and around that extremum decides every integer in the range; the verdict
    ``holds-on-range`` flags dominance that degrades at infinity.  A failing
    verdict carries the smallest witness.
    """
    if g_max is not None and g_max < g_min:
        raise ValueError("empty range")
    sign, tail, lo = _comparator(b1, b2)
    checkpoints = (g_min,) if g_max is None or g_max == g_min else (g_min, g_max)
    if lo is not None:
        extra = [c for c in range(lo - 1, lo + 3) if c > g_min and (g_max is None or c < g_max)]
        if extra:
            checkpoints = sorted({*checkpoints, *extra})
    note = f"tail: exponents {b1.num}/{b1.den} vs {b2.num}/{b2.den}, dominance {_TAIL_RELATION[tail]} at infinity"
    good = None
    for c in checkpoints:
        if sign(c) >= 0:
            witness = c if good is None else _smallest_failure(sign, good, c)
            return AuditReport("fails", witness, note=note)
        good = c
    if g_max is None and tail >= 0:
        return AuditReport("holds-on-range", note="dominance degrades at infinity; " + note)
    return AuditReport("holds", note=note)


def _smallest_failure(sign, good: int, bad: int) -> int:
    """Least g in (good, bad] with sign(g) >= 0, by bisection.

    b1 < b2 at the checkpoint ``good`` and not at the next one, ``bad``.  The
    checkpoints bracket the extremum of the cleared log-difference, so the
    difference is monotone on the integers of [good, bad].
    """
    while bad - good > 1:
        mid = (good + bad) // 2
        if sign(mid) >= 0:
            bad = mid
        else:
            good = mid
    return bad


# -- exact polynomial positivity ----------------------------------------------


def _integer_kth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, exact."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    # integer Newton from 2^ceil(bits/k) > n^(1/k): the iterates fall
    # strictly until they reach the floor root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _lagrange_root_bound(coeffs) -> int:
    """Integer upper bound for the real roots (integer coefficients, positive leading one)."""
    lead = coeffs[-1]
    n = len(coeffs) - 1
    # a radicand of 1 (|c| < lead) has root 1
    worst = max((_integer_kth_root(r, n - i) + 1 if (r := -c // lead + 1) > 1 else 2
                 for i, c in enumerate(coeffs[:-1]) if c < 0), default=0)
    return 2 * worst + 1


def poly_positive_from(coeffs, start: int) -> AuditReport:
    """Exact check that the polynomial is > 0 for every integer >= start.

    The rational coefficients are scaled once to integers by the lcm of
    their denominators.  Every integer up to a root bound is checked; beyond
    it the sign is the (positive) leading coefficient's.
    """
    coeffs = list(coeffs)
    scale = lcm(*(c.denominator for c in coeffs))
    coeffs = [c.numerator * (scale // c.denominator) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return AuditReport("fails", witness=start, note="zero polynomial")
    if coeffs[-1] <= 0:
        return AuditReport("fails", witness=None, note="non-positive leading coefficient")
    horizon = max(start, _lagrange_root_bound(coeffs) + 1)
    highest_first = coeffs[::-1]
    for x in range(start, horizon + 1):
        acc = 0
        for c in highest_first:  # Horner
            acc = acc * x + c
        if acc <= 0:
            return AuditReport("fails", witness=x)
    return AuditReport("holds")


# -- small polynomial helpers for the registry tails -------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, list(a))
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def _poly_scale(a, c):
    return [c * x for x in a]


# -- the step registry -------------------------------------------------------


class Step(Record):
    """One audited inequality step.

    ``kind`` names the checker that is called on ``params``, and
    ``slip=True`` marks claims false exactly as printed; a companion step
    carries the validated replacement.  ``expect`` is the verdict the audit
    must return.
    """

    __slots__ = ("step_id", "kind", "anchor", "params", "slip", "note")

    def __init__(self, step_id: str, kind: str, anchor: str, params: tuple, slip: bool = False, note: str = ""):
        object.__setattr__(self, "step_id", step_id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "slip", slip)
        object.__setattr__(self, "note", note)

    @property
    def expect(self) -> str:
        return "fails" if self.slip else "holds"


def _min_even_genus(order_bound: int) -> int:
    """Smallest even g >= 2 with 84*g*(g-1) >= order_bound, walked up to from a start
    that is never past it: at most isqrt(order_bound // 84) - 1 unless clamped to 2."""
    g = max(2, isqrt(order_bound // 84) - 2)
    g += g % 2
    while 84 * g * (g - 1) < order_bound:
        g += 2
    return g


# step checkers: each kind's checker takes the step's params ------------------


def _report(ok: bool, witness=None, note: str = "") -> AuditReport:
    """The boolean kinds' verdict: holds, or fails with the witness."""
    return AuditReport("holds", note=note) if ok else AuditReport("fails", witness, note)


def _const_step(coeff, radicand, root, rhs):
    lhs = coeff.numerator**root * radicand.numerator * rhs.denominator**root
    return _report(lhs <= rhs.numerator**root * coeff.denominator**root * radicand.denominator)


def _arith_step(lhs, rhs):
    return _report(lhs == rhs)


def _even_genus_step(order_bound, expected_g):
    got = _min_even_genus(order_bound)
    return _report(got == expected_g, got, f"smallest even g with 84g(g-1) >= {order_bound} is {got}")


def _outer_factor_step(p_min, c):
    """c^2 f^2 <= p_min^f at f = 1 and 2, cross-multiplied: f <= sqrt(q)/c for q = p^f, p >= p_min."""
    return _report(all(c.numerator**2 * f * f <= c.denominator**2 * p_min**f for f in (1, 2)))


def _holds_at_step(bound, value, g, expect_true):
    return _report(holds_at(bound, value, g) == expect_true, g)


def _per_q_step(orders, gm1_fn, bound, tail_coeffs, tail_start):
    for q, order in orders.items():
        if not holds_at(bound, order, gm1_fn(q)):
            return AuditReport("fails", q)
    tail = poly_positive_from(tail_coeffs, tail_start)
    return tail if tail.verdict == "holds" else AuditReport("fails", tail.witness, "tail polynomial")


def _point_fail_step(lhs, rhs, witness):
    return _report(lhs < rhs, witness)


_KIND_DISPATCH = {
    "const": _const_step,
    "arith": _arith_step,
    "even_genus_min": _even_genus_step,
    "dominates": dominates,
    "poly": poly_positive_from,
    "outer_factor": _outer_factor_step,
    "holds_at": _holds_at_step,
    "per_q": _per_q_step,
    "point_fail": _point_fail_step,
}


def _expand_tail_psu():
    """59521^5 q^9 (q^2-1)^3 - 100^5 30^8 27 (q^3+1)^5 > 0 certifies the tail.

    From g-1 > q^3(q^2-1)/(30 delta) the claim |PSU3| < 595.21 (g-1)^(8/5)
    reduces, after clearing fifth powers, to this polynomial being positive;
    delta = 3 is the worst case.
    """
    lhs = _poly_scale(_poly_mul([0] * 9 + [1], _poly_pow((-1, 0, 1), 3)), 59521**5)
    rhs = _poly_scale(_poly_pow((1, 0, 0, 1), 5), 100**5 * 30**8 * 27)
    return tuple(_poly_sub(lhs, rhs))


def _expand_tail_psl3():
    """290^4 N(q)^7 - 90^7 PGL3(q)^4 > 0 certifies the tail for the PSL3 branch.

    N(q) = q^3 (q-1)^2 (q+1) is the Sylow-normalizer order times delta; from
    g-1 > N/(30 delta) the claim |PGL3| < 290 (g-1)^(7/4) reduces to this,
    with delta = 3 worst case folded into 90^7.
    """
    n_poly = _poly_mul(_poly_mul([0, 0, 0, 1], _poly_pow((-1, 1), 2)), (1, 1))
    pgl_poly = _poly_mul(_poly_mul([0, 0, 0, 1], (-1, 0, 0, 1)), (-1, 0, 1))
    lhs = _poly_scale(_poly_pow(n_poly, 7), 290**4)
    rhs = _poly_scale(_poly_pow(pgl_poly, 4), 90**7)
    return tuple(_poly_sub(lhs, rhs))


def _psu_gm1(q):
    delta = gcd(3, q + 1)
    return q**3 * (q**2 - 1) // delta // 30 + 1


def _psl3_gm1(q):
    delta = gcd(3, q - 1)
    return q**3 * (q - 1) ** 2 * (q + 1) // delta // 30 + 1


HURWITZ = PowerBound(F(84), shift=-1)
MAIN = PowerBound(F(82137, 100), num=7, den=4)


@cache
def registry():
    """{chain id: [Step, ...]}, built on first use."""
    chains = {}

    def add(chain, *steps):
        chains.setdefault(chain, []).extend(steps)

    add(
        "prelim",
        Step("prelim.ln5", "outer_factor", "outer factor count over q = 5^k", (5, F(8, 5)),
             note="64f^2 <= 25*5^f at f = 1 and 2, so f <= sqrt(q)/1.6 for q = p^f with p >= 5"),
        Step("prelim.ln3", "outer_factor", "outer factor count over q = 3^k", (3, F(109, 100)),
             note="11881f^2 <= 10000*3^f at f = 1 and 2, so f <= sqrt(q)/1.09 for q = p^f with p >= 3"),
        Step("prelim.log_vs_sqrt", "poly", "log bound for the outer cyclic factor", ((-1, -2, 2), 2),
             note="(f+1)^2 < 3f^2 <= p*f^2 for f >= 2 and p >= 3, so c^2 f^2 <= p^f passes from f to f+1"),
        Step("prelim.solvable_68sqrt2", "dominates", "solvable bound restated over g",
             (PowerBound(F(34), shift=1, num=3, den=2), PowerBound(F(68), num=3, den=2, mult=2), 2, None),
             note="34(g+1)^(3/2) < 68*sqrt(2)*g^(3/2) for g >= 2"),
    )

    sixty_gm1 = PowerBound(F(60), shift=-1)
    add(
        "psl2_case1",
        Step("psl2.c1.s775", "dominates", "absorb the linear term from g >= 2",
             (sixty_gm1, PowerBound(F(31, 4), shift=-1, num=3, den=2, mult=60), 2, None),
             note="60(g-1) < 7.75*sqrt(60)*(g-1)^(3/2)"),
        Step("psl2.c1.c29242", "const", "collapse 37.75*sqrt(60)",
             (F(151, 4), 60, 2, F(29242, 100)),
             note="37.75^2*60 = 85503.75 <= 292.42^2 = 85509.4564"),
        Step("psl2.c1.s29242", "dominates", "renormalize from g-1 to g",
             (PowerBound(F(151, 4), shift=-1, num=3, den=2, mult=60), PowerBound(F(29242, 100), num=3, den=2), 2, None),
             note="37.75*sqrt(60)*(g-1)^(3/2) < 292.42*g^(3/2) for g >= 2"),
        Step("psl2.c1.arith2359", "arith", "twisted constant 37.75/1.6", (F(151, 4) / F(8, 5), F(755, 32))),
        Step("psl2.c1.c50864", "const", "collapse (37.75/1.6)*60^(3/4)",
             (F(755, 32), 60**3, 4, F(50864, 100)),
             note="(37.75/1.6)^4 * 60^3 <= 508.64^4"),
        Step("psl2.c1.arith_pgl2_125", "arith", "3*|PGL(2,125)|", (3 * family_order("PGL2", 125), 5859000)),
        Step("psl2.c1.g266", "even_genus_min", "even genus floor in the twisted subcase", (5859000, 266)),
        Step("psl2.c1.s048", "dominates", "absorb the linear term from g >= 266",
             (sixty_gm1, PowerBound(F(12, 25), shift=-1, num=3, den=2, mult=60), 266, None),
             note="60(g-1) < 0.48*sqrt(60)*(g-1)^(3/2) for g >= 266 (sharp near 262)"),
        Step("psl2.c1.arith381", "arith", "headline constant 2*30.48/1.6", (2 * F(3048, 100) / F(8, 5), F(381, 10))),
        Step("psl2.c1.c82137", "const", "collapse (2*30.48/1.6)*60^(3/4)",
             (F(381, 10), 60**3, 4, F(82137, 100)),
             note="38.1^4 * 60^3 <= 821.37^4"),
        Step("psl2.c1.s82137", "dominates", "renormalize from g-1 to g",
             (PowerBound(F(82137, 100), shift=-1, num=7, den=4), PowerBound(F(82137, 100), num=7, den=4), 2, None)),
    )

    # (7.6(g+1)-2)^2 - 144(g+1) > 0 in g: coefficients expanded exactly
    c76 = F(76, 10)
    pg2 = c76**2
    pg1 = 2 * c76**2 - 4 * c76 - 144
    pg0 = c76**2 - 4 * c76 + 4 - 144
    add(
        "psl2_case2",
        Step("psl2.c2.linear_term", "poly", "square away 12*sqrt(g+1)+2 < 7.6(g+1), g >= 2",
             ((pg0, pg1, pg2), 2),
             note="equivalent to (7.6(g+1)-2)^2 > 144(g+1); sharp at g = 2"),
        Step("psl2.c2.arith472", "arith", "constant assembly 2*(16+7.6)", (2 * (16 + c76), F(472, 10))),
        Step("psl2.c2.c8672", "const", "step from g+1 to g via g+1 <= 3g/2",
             (F(472, 10), F(27, 8), 2, F(8672, 100)),
             note="47.2^2*(3/2)^3 <= 86.72^2"),
        Step("psl2.c2.gplus1", "poly", "g+1 < 3g/2 for g >= 3; equality at g = 2",
             ((F(-1), F(1, 2)), 3),
             note="non-strict at g = 2 where 3 = 3; the net step below is checked at g = 2 directly"),
        Step("psl2.c2.s8672", "dominates", "net renormalization step",
             (PowerBound(F(472, 10), shift=1, num=3, den=2), PowerBound(F(8672, 100), num=3, den=2), 2, None),
             note="47.2(g+1)^(3/2) < 86.72 g^(3/2) for g >= 2 (razor-thin at g = 2)"),
        Step("psl2.c2.arith59", "arith", "twisted constant 2*47.2/1.6", (2 * F(472, 10) / F(8, 5), F(59))),
        Step("psl2.c2.c6676", "const", "twisted constant headroom", (F(59), 1, 1, F(6676, 100))),
        Step("psl2.c2.s133_printed", "point_fail", "printed step fails at the even genus 2",
             (F(6676, 100) ** 4 * 3**7, F(133) ** 4 * 2**7, 2),
             slip=True,
             note="66.76(g+1)^(7/4) < 133 g^(7/4) is false at g = 2; validated from 3 in psl2.c2.s133_valid"),
        Step("psl2.c2.s133_valid", "dominates", "validated twisted step from g >= 3",
             (PowerBound(F(6676, 100), shift=1, num=7, den=4), PowerBound(F(133), num=7, den=4), 3, None),
             note="the twisted subcase forces q >= 125 and hence far larger g"),
        Step("psl2.c2.s266_printed", "point_fail", "doubled printed step fails at the even genus 2",
             (F(13352, 100) ** 4 * 3**7, F(266) ** 4 * 2**7, 2),
             slip=True,
             note="2*66.76(g+1)^(7/4) <= 266 g^(7/4) is false at g = 2; validated from 3 in psl2.c2.s266_valid"),
        Step("psl2.c2.s266_valid", "dominates", "validated doubled step from g >= 3",
             (PowerBound(F(13352, 100), shift=1, num=7, den=4), PowerBound(F(266), num=7, den=4), 3, None)),
    )

    psu_orders = {q: family_order("PSU3", q) for q in range(5, 401, 4) if len(factorize(q)) == 1}
    add(
        "psu3",
        Step("psu.arith_order5", "arith", "|PSU(3,5)|", (family_order("PSU3", 5), 126000)),
        Step("psu.g40", "even_genus_min", "even genus floor from PSU(3,5)", (126000, 40)),
        Step("psu.qpoly", "poly", "(q-1)^5 < q^3(q^2-1) for q >= 2",
             ((1, -5, 10, -11, 5), 2),
             note="q^3(q^2-1) - (q-1)^5 = 5q^4 - 11q^3 + 10q^2 - 5q + 1"),
        Step("psu.linear_term", "dominates", "absorb 30(g-1) from g >= 40",
             (PowerBound(F(30), shift=-1), PowerBound(F(2), shift=-1, num=8, den=5, mult=90), 40, None),
             note="30(g-1) < 2*90^(1/5)*(g-1)^(8/5) for g >= 40 (sharp near 22)"),
        Step("psu.arith242", "arith", "coefficient assembly 8*30+2", (8 * 30 + 2, 242)),
        Step("psu.c59521", "const", "collapse 242*90^(1/5)", (F(242), 90, 5, F(59521, 100)),
             note="242^5*90 <= 595.21^5"),
        Step("psu.assembly_printed", "point_fail", "printed assembly drops a 90^(2/5) factor",
             (9360**5 * 3510**3, 242**5 * 90 * 39**8, 40),
             slip=True,
             note="even the leading term 240(g-1)(90(g-1))^(3/5) exceeds 242*90^(1/5)(g-1)^(8/5) at g = 40; "
                  "the net claim is validated per q in psu.assembly_perq"),
        Step("psu.assembly_perq", "per_q", "net bound |PSU3(q)| < 595.21 (g-1)^(8/5) on its branch",
             (psu_orders, _psu_gm1, PowerBound(F(59521, 100), num=8, den=5), _expand_tail_psu(), 400),
             note="exact for prime powers q = 1 mod 4 up to 400; polynomial tail beyond"),
        Step("psu.s345", "dominates", "exponent drop 8/5 to 7/4 from g >= 40",
             (PowerBound(F(59521, 100), shift=-1, num=8, den=5), PowerBound(F(345), shift=-1, num=7, den=4), 40, None),
             note="595.21(g-1)^(8/5) < 345(g-1)^(7/4) for g >= 40 (sharp at 39)"),
        Step("psu.g15378928", "even_genus_min", "even genus floor from PSU(3,125)",
             (family_order("PSU3", 125), 15378928)),
        Step("psu.arith_10938", "arith", "twisted constant 3*595.21/1.6",
             (3 * F(59521, 100) / F(8, 5), F(178563, 160))),
        Step("psu.c175024", "const", "collapse (3*595.21/1.6)*90^(1/10)",
             (F(178563, 160), 90, 10, F(175024, 100)),
             note="(3*595.21/1.6)^10 * 90 <= 1750.24^10"),
        Step("psu.s766", "dominates", "exponent drop 17/10 to 7/4",
             (PowerBound(F(175024, 100), shift=-1, num=17, den=10), PowerBound(F(766), shift=-1, num=7, den=4),
              15378928, None),
             note="1750.24(g-1)^(17/10) < 766(g-1)^(7/4) for g >= 15378928"),
    )

    pgl3_orders = {q: family_order("PGL3", q) for q in range(3, 401, 4) if len(factorize(q)) == 1}
    add(
        "psl3",
        Step("psl3.arith_order3", "arith", "|PSL(3,3)|", (family_order("PSL3", 3), 5616)),
        Step("psl3.g10", "even_genus_min", "even genus floor from PSL(3,3)", (5616, 10)),
        Step("psl3.qpoly", "poly", "(q-1)^4 < q^3(q+1) for q >= 1",
             ((-1, 4, -6, 5), 1),
             note="q^3(q+1) - (q-1)^4 = 5q^3 - 6q^2 + 4q - 1"),
        Step("psl3.factor_identity", "arith", "q^3(q^3-1)(q^2-1) = q^3(q-1)^2(q+1)(q^2+q+1) identically",
             (_poly_mul(_poly_mul([0, 0, 0, 1], [-1, 0, 0, 1]), [-1, 0, 1]),
              _poly_mul(_poly_mul(_poly_mul([0, 0, 0, 1], _poly_pow((-1, 1), 2)), [1, 1]), [1, 1, 1])),
             note="the difference of the two factorizations expands to the zero polynomial"),
        Step("psl3.q2q1", "poly", "q^2+q+1 < 2q^2 for q >= 2", ((-1, -1, 1), 2)),
        Step("psl3.assembly_printed", "point_fail", "printed assembly drops a 90^(1/3) factor",
             (1620**3 * 810, 720**3 * 9**4, 10),
             slip=True,
             note="180(g-1)((90(g-1))^(1/6)+1)^2 expands to 720*90^(1/3)(g-1)^(4/3), not 720(g-1)^(4/3); "
                  "the net claim is validated per q in psl3.assembly_perq"),
        Step("psl3.assembly_perq", "per_q", "net bound |PGL3(q)| < 290 (g-1)^(7/4) on its branch",
             (pgl3_orders, _psl3_gm1, PowerBound(F(290), num=7, den=4), _expand_tail_psl3(), 400),
             note="exact for prime powers q = 3 mod 4 up to 400; polynomial tail beyond"),
        Step("psl3.s290", "dominates", "printed final comparison, as stated",
             (PowerBound(F(720), shift=-1, num=4, den=3), PowerBound(F(290), shift=-1, num=7, den=4), 10, None),
             note="720(g-1)^(4/3) < 290(g-1)^(7/4) for g >= 10 (sharp at 10)"),
        Step("psl3.arith_66055", "arith", "twisted constant 720/1.09", (F(720) / F(109, 100), F(72000, 109))),
        Step("psl3.c96109", "const", "collapse (720/1.09)*90^(1/12)",
             (F(72000, 109), 90, 12, F(96109, 100)),
             note="(720/1.09)^12 * 90 <= 961.09^12"),
        Step("psl3.s463", "dominates", "exponent drop 17/12 to 7/4 from g >= 10",
             (PowerBound(F(96109, 100), shift=-1, num=17, den=12), PowerBound(F(463), shift=-1, num=7, den=4), 10, None),
             note="961.09(g-1)^(17/12) < 463(g-1)^(7/4) for g >= 10 (sharp at 10)"),
    )

    add(
        "headline",
        Step("main.from_292", "dominates", "PSL2 small-Borel untwisted",
             (PowerBound(F(29242, 100), num=3, den=2), MAIN, 2, None)),
        Step("main.from_508", "dominates", "PSL2 small-Borel twisted",
             (PowerBound(F(50864, 100), shift=-1, num=7, den=4), MAIN, 2, None)),
        Step("main.from_86", "dominates", "PSL2 large-Borel untwisted",
             (PowerBound(F(8672, 100), num=3, den=2), MAIN, 2, None)),
        Step("main.from_133", "dominates", "PSL2 large-Borel twisted",
             (PowerBound(F(133), num=7, den=4), MAIN, 2, None)),
        Step("main.from_266", "dominates", "PGL2 large-Borel twisted",
             (PowerBound(F(266), num=7, den=4), MAIN, 2, None)),
        Step("main.from_345", "dominates", "PSU3 untwisted",
             (PowerBound(F(345), shift=-1, num=7, den=4), MAIN, 2, None)),
        Step("main.from_766", "dominates", "PSU3 twisted",
             (PowerBound(F(766), shift=-1, num=7, den=4), MAIN, 2, None)),
        Step("main.from_290", "dominates", "PSL3 untwisted",
             (PowerBound(F(290), shift=-1, num=7, den=4), MAIN, 2, None)),
        Step("main.from_463", "dominates", "PSL3 twisted",
             (PowerBound(F(463), shift=-1, num=7, den=4), MAIN, 2, None)),
        Step("main.from_solvable", "dominates", "solvable / elementary-abelian branch",
             (PowerBound(F(34), shift=1, num=3, den=2), MAIN, 2, None),
             note="34(g+1)^(3/2) < 821.37 g^(7/4) for g >= 2"),
        Step("main.from_hurwitz", "dominates", "sporadic branch through 84(g-1)",
             (HURWITZ, MAIN, 2, None)),
        Step("main.m11_g26", "holds_at", "exceptional pair satisfies the headline bound",
             (MAIN, 7920, 26, True)),
        Step("main.m11_g26_hurwitz", "holds_at", "exceptional pair violates 84(g-1)",
             (HURWITZ, 7920, 26, False),
             note="7920 > 84*25 = 2100"),
        Step("main.alt7_g31_equality", "holds_at", "strict Hurwitz fails exactly at 2520 = 84*30",
             (HURWITZ, 2520, 31, False),
             note="equality 2520 = 84(31-1), so the strict bound fails"),
        Step("main.alt7_g10", "holds_at", "provisional sporadic pair violates 84(g-1)",
             (HURWITZ, 2520, 10, False),
             note="2520 > 84*9 = 756"),
    )
    return chains


def chain_ids():
    return sorted(registry())


def chain_steps(chain_id: str):
    chains = registry()
    if chain_id not in chains:
        raise KeyError(f"unknown chain {chain_id!r}")
    return list(chains[chain_id])


@cache
def _audited(chain_id):
    """The reports of one chain, as a tuple: ``audit_chain`` copies it for each caller.

    Each step's checker is called on its params.  A row's note is the step
    note followed by the checker's note, "; "-joined, an empty part skipped.
    """
    reports = []
    for step in chain_steps(chain_id):
        report = _KIND_DISPATCH[step.kind](*step.params)
        if step.note:
            report = AuditReport(report.verdict, report.witness, "; ".join(filter(None, (step.note, report.note))))
        reports.append(report)
    return tuple(reports)


def audit_chain(chain_id: str):
    """Audit every step of one chain; raises KeyError for unknown ids."""
    return list(_audited(chain_id))


def audit_all():
    return {cid: audit_chain(cid) for cid in chain_ids()}


# -- classification ----------------------------------------------------------


def classify(order_g: int, g: int):
    """Which of the named bounds the pair satisfies, each decided exactly.

    hurwitz, nakajima and solvable-3/2 are the classical non-strict bounds;
    main-7/4 is the strict headline bound.
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    if order_g < 1:
        raise ValueError("order must be positive")
    named = {
        "hurwitz": order_g <= 84 * (g - 1),
        "nakajima": order_g <= 84 * g * (g - 1),
        "solvable-3/2": order_g**2 <= 34**2 * (g + 1) ** 3,
        "main-7/4": holds_at(MAIN, order_g, g),
    }
    return {label for label, ok in named.items() if ok}
