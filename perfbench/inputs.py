"""Seeded inputs for every workload, built without importing curvebound.

The squarefree test and the genus formula live here so that a change to
what curvebound accepts (a raised oracle cap, say) cannot change which
inputs a seed draws.
"""

from __future__ import annotations

import random
from math import gcd

# Standard generators, 0-based image tuples: A7 = <(1,2,3), (1,...,7)>,
# M11 = <(1,...,11), (3,7,11,8)(4,10,5,6)>.
GENERATORS = {
    "alt7": ((1, 2, 0, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)),
    "m11": ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0), (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)),
}

SPORADIC_COMMANDS = (
    ("group-audit", "alt7"),
    ("group-audit", "m11"),
    ("enumerate", "--group", "alt7", "--char", "3"),
    ("enumerate", "--group", "alt7", "--char", "5"),
    ("enumerate", "--group", "alt7", "--char", "7"),
    ("enumerate", "--group", "m11", "--char", "3"),
    ("enumerate", "--group", "m11", "--char", "5"),
    ("enumerate", "--group", "m11", "--char", "11"),
)

# (p, m, deg f) slots of the oracle draw.  The shapes are fixed and only the
# coefficients are drawn, so every seed costs about the same: the oracle's
# work is set by the field sizes p^1 .. p^(g+1), here 3 .. 2401.  Together
# the slots cover p in {3, 5, 7}, m in {2, 3, 4} and genus 2 and 3.
ORACLE_SLOTS = ((3, 2, 5), (3, 4, 3), (5, 2, 6), (5, 3, 4), (5, 4, 4), (7, 2, 5), (7, 4, 4))

# Cartier slots of library-warm, genus 2 to 6 over the paper's primes 3, 5, 7:
# genus above 3 is refused by the zeta oracle, so the Cartier route is the
# only p-rank those models have.  The model constructor factors f by trial
# division over all monic polynomials up to degree deg(f)/2, p^(deg/2) of
# them; every slot here keeps that under 10^3 divisions.
CARTIER_SLOTS = ((5, 2, 6), (7, 2, 5), (7, 2, 7), (7, 4, 3), (3, 2, 9), (5, 2, 9),
                 (5, 3, 5), (7, 3, 5), (3, 2, 11), (3, 4, 5), (5, 4, 5), (7, 4, 5))
# (p, m, deg f, r) point counts over GF(p^r), q <= 169.
COUNT_SLOTS = ((3, 2, 5, 2), (5, 2, 6, 2), (7, 3, 4, 2), (13, 4, 3, 2),
               (11, 2, 5, 1), (17, 3, 4, 1), (23, 2, 5, 1), (31, 4, 3, 1))

# Polynomials for poly_positive_from: 12-bit coefficients with a leading
# coefficient of the same bit length.  Its work is the Lagrange horizon,
# which grows with |c_i| / c_lead; at this scale the horizons are 5..20,
# the same range as the registry's own positivity steps (7..19).  The
# registry is what the audit feeds this function, so the draw neither
# hides nor provokes the growth with coefficient size.
POLY_BITS = 12

# audit_all() calls per library pass; each re-audits the 65-step registry.
AUDITS_PER_PASS = 8


# -- arithmetic over GF(p), independent of curvebound ---------------------------


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mod(a, b, p):
    a = poly_trim(x % p for x in a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        factor = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * y) % p
        a = poly_trim(a)
    return a


def poly_gcd(a, b, p):
    a, b = poly_trim(x % p for x in a), poly_trim(x % p for x in b)
    while b:
        a, b = b, poly_mod(a, b, p)
    return a


def derivative(c, p):
    return poly_trim(i * x % p for i, x in enumerate(c))[1:] if len(c) > 1 else []


def is_squarefree(c, p):
    """gcd(f, f') over GF(p) is a constant; f' = 0 means f is a p-th power."""
    d = derivative(c, p)
    if not d:
        return False
    return len(poly_gcd(c, d, p)) == 1


def genus(m, d):
    """Genus of the smooth model of y^m = f(x), f squarefree of degree d, p not dividing m.

    Riemann-Hurwitz for the tame cyclic cover of the line: each root of f is
    totally ramified, and infinity splits into gcd(m, d) places.
    """
    return ((m - 1) * d - m - gcd(m, d) + 2) // 2


def curve_text(m, coeffs):
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            terms.append(f"{c}*x^{e}" if e > 1 else (f"{c}*x" if e == 1 else str(c)))
    return f"y^{m} = " + " + ".join(terms)


def draw_squarefree(rng, p, d):
    while True:
        coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        if is_squarefree(coeffs, p):
            return coeffs


def draw_model(rng, p, m, d):
    coeffs = draw_squarefree(rng, p, d)
    return {"p": p, "m": m, "f": coeffs, "genus": genus(m, d), "curve": curve_text(m, coeffs)}


# -- permutations ---------------------------------------------------------------


def compose(a, b):
    """Left-to-right product, matching the library: (a*b)(x) = b(a(x))."""
    return tuple(b[i] for i in a)


def invert(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def random_word(rng, gens, length):
    letters = list(gens) + [invert(g) for g in gens]
    out = tuple(range(len(gens[0])))
    for _ in range(length):
        out = compose(out, rng.choice(letters))
    return out


# -- workloads -------------------------------------------------------------------


def sporadic_inputs(seed):
    order = list(SPORADIC_COMMANDS)
    random.Random(seed).shuffle(order)
    return {"commands": [list(c) for c in order]}


def oracle_inputs(seed):
    rng = random.Random(seed)
    return {"models": [draw_model(rng, p, m, d) for p, m, d in ORACLE_SLOTS]}


def library_inputs(seed):
    """One pass of warm library calls: about 0.5 s on one core of a small VM.

    Group work is about half of it, the point counts a fifth and the bound
    auditor most of the rest, so each of those layers moves wall time.
    """
    rng = random.Random(seed)
    groups = []
    for name in ("alt7", "m11"):
        gens = GENERATORS[name]
        n = len(gens[0])
        for i in range(24):
            # Alternately a cyclic group from one random word, and the whole
            # group from the standard generators conjugated by a random word.
            # Drawing two free words instead makes the cost of a seed swing
            # with how many of them happen to generate the whole group.
            if i % 2:
                w = random_word(rng, gens, rng.randint(4, 10))
                words = [compose(compose(invert(w), g), w) for g in gens]
            else:
                words = [random_word(rng, gens, rng.randint(1, 8))]
            members = [random_word(rng, words, rng.randint(1, 10)) for _ in range(8)]
            strangers = [tuple(rng.sample(range(n), n)) for _ in range(8)]
            groups.append({"parent": name, "gens": words, "probes": members + strangers,
                           "point": rng.randrange(n)})
    classify = [(rng.randint(1, 10**5), rng.randint(2, 400)) for _ in range(400)]
    pairs = []
    for _ in range(400):
        b1, b2 = (
            {"coeff": [rng.randint(1, 1000), rng.randint(1, 10)], "shift": rng.randint(-1, 2),
             "num": rng.randint(1, 4), "den": rng.randint(1, 4), "mult": rng.randint(1, 3)}
            for _ in range(2)
        )
        g_min = rng.randint(2, 50)
        g_max = g_min + rng.randint(10, 200) if rng.random() < 0.5 else None
        pairs.append({"b1": b1, "b2": b2, "g_min": g_min, "g_max": g_max})
    lo, hi = 2 ** (POLY_BITS - 1), 2**POLY_BITS
    polys = []
    for _ in range(400):
        degree = rng.randint(1, 5)
        coeffs = [rng.randint(-hi, hi) for _ in range(degree)] + [rng.randint(lo, hi)]
        polys.append({"coeffs": coeffs, "start": rng.randint(1, 10)})
    cartier = [draw_model(rng, p, m, d) for p, m, d in CARTIER_SLOTS for _ in range(4)]
    counts = [dict(draw_model(rng, p, m, d), r=r) for p, m, d, r in COUNT_SLOTS for _ in range(4)]
    return {"groups": groups, "classify": classify, "dominates": pairs, "polys": polys,
            "audits": AUDITS_PER_PASS, "cartier": cartier, "counts": counts}


INPUTS = {"sporadic-audit": sporadic_inputs, "prank-oracle": oracle_inputs,
          "library-warm": library_inputs}
