"""References the verdicts are checked against; none of them comes from curvebound.

Group facts are the textbook values for A7 and M11, the survivor genera are
the paper's answers, and each JSON report must keep the SHA-256 it had when
the benchmark was defined, because rerun byte-identity is a contract of the
CLI.  Library results are recomputed here from scratch: membership by BFS
closure, bound comparisons by cleared exact powers, p-ranks from our own
Hasse-Witt matrix and point counts by brute force.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

from inputs import compose, genus, poly_trim

# -- sporadic-audit ---------------------------------------------------------------

# anchor -> computed value, per group: |G|, element orders, and for each wild
# prime p the normalizer order of a Sylow p-subgroup and the number of them.
GROUP_FACTS = {
    "alt7": {"order by stabilizer chain": 2520, "simplicity via normal closures": True,
             "element order set": [1, 2, 3, 4, 5, 6, 7],
             "sylow-3 normalizer order": 36, "number of sylow-3 subgroups": 70,
             "sylow-5 normalizer order": 20, "number of sylow-5 subgroups": 126,
             "sylow-7 normalizer order": 21, "number of sylow-7 subgroups": 120,
             "point stabilizer order": 360},
    "m11": {"order by stabilizer chain": 7920, "simplicity via normal closures": True,
            "element order set": [1, 2, 3, 4, 5, 6, 8, 11],
            "sylow-3 normalizer order": 144, "number of sylow-3 subgroups": 55,
            "sylow-5 normalizer order": 20, "number of sylow-5 subgroups": 396,
            "sylow-11 normalizer order": 55, "number of sylow-11 subgroups": 144},
}

# Even-genus signatures that survive every filter: the paper's two cases.
SURVIVORS = {("alt7", "3"): [], ("alt7", "5"): [10], ("alt7", "7"): [],
             ("m11", "3"): [26], ("m11", "5"): [], ("m11", "11"): []}

REPORT_SHA256 = {
    "group-audit alt7": "160b074e9b02656d130758e01de75df7858c1809280bd8b481a2287f816441d9",
    "group-audit m11": "a8d18260f8422a7473f8e6cdaa9f75454eb7dee5856c1ae78648f4539c49c3d5",
    "enumerate --group alt7 --char 3": "73064f2b6489f6cb281d5416b15ba353ec5cfdc8fc57637bbf1fe7e20c5790dc",
    "enumerate --group alt7 --char 5": "22b2f81d5dcb56cea45d20592f4360ddecd97a8bdcc28f6f7e99992e5052c10d",
    "enumerate --group alt7 --char 7": "9d573afafa67c61f4238f894cd776e37d6e58a9be6891b401f29f248e55dce3b",
    "enumerate --group m11 --char 3": "8847e18015743a583e717e650c8f1660efc7581634815869d0b02b4ca634c836",
    "enumerate --group m11 --char 5": "fc8c060ccbf8b682511286ae90b0a58739b92629d3294bd2cf3b9be4eda4ad8f",
    "enumerate --group m11 --char 11": "c6246848370516c8f14b95383c4f90b155bcfa702b3603fbd780f0f4276f5702",
}

# SHA-256 of json.dumps([[chain, index, verdict, witness], ...]) over audit_all().
AUDIT_ALL_SHA256 = "5803cdec2fa88d4f2e1a6648164b069cbbf650250838ff883080bc405d47021a"


def check_sporadic(command, stdout):
    """Problems with one sporadic-audit report; empty when it is right."""
    key = " ".join(command)
    if hashlib.sha256(stdout).hexdigest() != REPORT_SHA256[key]:
        return ["report bytes changed"]
    report = json.loads(stdout)
    problems = [] if report["verdict_summary"] == "holds" else ["summary is not holds"]
    rows = {row["anchor"]: row for row in report["rows"]}
    if command[0] == "group-audit":
        for anchor, value in GROUP_FACTS[command[1]].items():
            if rows.get(anchor, {}).get("computed") != value:
                problems.append(f"{anchor} is not {value}")
    else:
        group, char = command[2], command[4]
        got = rows.get(f"{group} p={char} survivors", {}).get("genera")
        if got != SURVIVORS[(group, char)]:
            problems.append(f"survivors {got} != {SURVIVORS[(group, char)]}")
    return problems


# -- prank: Hasse-Witt matrix and brute-force point counts ------------------------


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _rank(mat, p):
    rows = [list(r) for r in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv % p
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def p_rank(p, m, f):
    """Stable rank of the Cartier-Manin matrix of y^m = f, f squarefree over GF(p).

    Basis x^(a-1) dx / y^b with a*m < b*deg f.  With b'p = b (mod m) and
    k = (b'p - b)/m, the Cartier operator sends it to sum c_(a'p - a) times
    x^(a'-1) dx / y^b', where c_n is a coefficient of f^k.
    """
    d = len(f) - 1
    basis = [(a, b) for b in range(1, m) for a in range(1, d + 1) if a * m < b * d]
    if len(basis) != genus(m, d):
        raise ValueError("basis size differs from the genus")
    mat = [[0] * len(basis) for _ in basis]
    for j, (a, b) in enumerate(basis):
        b2 = next(x for x in range(1, m) if x * p % m == b)
        h = [1]
        for _ in range((b2 * p - b) // m):
            h = _poly_mul(h, f, p)
        for i, (a2, b_row) in enumerate(basis):
            n = a2 * p - a
            if b_row == b2 and 0 <= n < len(h):
                mat[i][j] = h[n]
    power = mat
    for _ in range(len(basis) - 1):
        power = _mat_mul(power, mat, p)
    return _rank(power, p)


class _Field:
    """GF(p) or GF(p^2) = GF(p)[t]/(t^2 - n), elements as pairs."""

    def __init__(self, p, r):
        if r not in (1, 2):
            raise ValueError("only prime fields and quadratic extensions")
        self.p = p
        self.n = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1) if r == 2 else 0
        self.elements = [(a, b) for a in range(p) for b in range(p if r == 2 else 1)]

    def mul(self, x, y):
        p = self.p
        return ((x[0] * y[0] + self.n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def power(self, x, k):
        out = (1, 0)
        for _ in range(k):
            out = self.mul(out, x)
        return out


def point_count(p, m, f, r):
    """Places of degree one of the smooth model of y^m = f over GF(p^r), by brute force."""
    field = _Field(p, r)
    hist = {}
    for y in field.elements:
        key = field.power(y, m)
        hist[key] = hist.get(key, 0) + 1
    total = 0
    for x in field.elements:
        value = (0, 0)
        for c in reversed(f):
            value = field.mul(value, x)
            value = ((value[0] + c) % p, value[1])
        total += hist.get(value, 0)
    lead = (f[-1] % p, 0)
    e = gcd(m, len(f) - 1)
    return total + sum(1 for w in field.elements if w != (0, 0) and field.power(w, e) == lead)


# -- library-warm ----------------------------------------------------------------


def closure(gens):
    """All elements of <gens> as image tuples, by breadth-first search."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def classify(order, g):
    """Labels of the named bounds the pair (|G|, g) satisfies, by integer arithmetic."""
    labels = []
    if order <= 84 * (g - 1):
        labels.append("hurwitz")
    if order <= 84 * g * (g - 1):
        labels.append("nakajima")
    if order**2 <= 34**2 * (g + 1) ** 3:
        labels.append("solvable-3/2")
    if (100 * order) ** 4 < 82137**4 * g**7:
        labels.append("main-7/4")
    return sorted(labels)


def bound_sign(b1, b2, g):
    """Sign of b1(g) - b2(g) for b = c * (mult * (g + shift)^num)^(1/den), exactly."""
    power = lcm(b1["den"], b2["den"])

    def raised(b):
        c = Fraction(*b["coeff"])
        k = power // b["den"]
        return c**power * Fraction(b["mult"]) ** k * Fraction(g + b["shift"]) ** (b["num"] * k)

    lhs, rhs = raised(b1), raised(b2)
    return (lhs > rhs) - (lhs < rhs)


def check_dominates(pair, verdict, witness, seed):
    """A failing verdict needs the smallest witness; a holding one is spot-checked.

    ``holds-on-range`` is the documented verdict for an unbounded range on
    which b1 < b2 at the start but not at infinity.
    """
    b1, b2, lo, hi = pair["b1"], pair["b2"], pair["g_min"], pair["g_max"]
    far = 10**40
    if verdict == "fails":
        if witness is None or witness < lo or (hi is not None and witness > hi):
            return "witness out of range"
        if bound_sign(b1, b2, witness) < 0:
            return "witness does not fail"
        if any(bound_sign(b1, b2, g) >= 0 for g in range(lo, witness)):
            return "witness is not the smallest"
        return None
    if verdict == "holds-on-range":
        if hi is None and bound_sign(b1, b2, lo) < 0 <= bound_sign(b1, b2, far):
            return None
        return "holds-on-range needs an unbounded range that reverses at infinity"
    if verdict != "holds":
        return f"bad verdict {verdict}"
    rng = random.Random(seed)
    top = hi if hi is not None else lo + 10**4
    points = [lo, top] + [rng.randint(lo, top) for _ in range(8)] + ([far] if hi is None else [])
    if any(bound_sign(b1, b2, g) >= 0 for g in points):
        return "dominance fails at a sampled point"
    return None


def check_poly(poly, verdict, witness):
    """Exact: beyond the Cauchy bound 1 + max|c_i / c_lead| the sign is the leading one."""
    coeffs, start = [Fraction(c) for c in poly_trim(poly["coeffs"])], poly["start"]

    def value(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    cauchy = int(1 + max(abs(c / coeffs[-1]) for c in coeffs)) + 1
    first_bad = next((x for x in range(start, max(start, cauchy) + 1) if value(x) <= 0), None)
    if verdict == "holds":
        return None if first_bad is None else f"not positive at {first_bad}"
    if verdict == "fails":
        return None if witness == first_bad else f"witness {witness} != {first_bad}"
    return f"bad verdict {verdict}"


def audit_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_oracle(model, stdout):
    """Problems with one ``prank --oracle`` report; empty when it is right."""
    report = json.loads(stdout)
    rows = {row["anchor"]: row for row in report["rows"]}
    problems = [] if report["verdict_summary"] == "holds" else ["summary is not holds"]
    if rows.get("model genus", {}).get("genus") != model["genus"]:
        problems.append(f"genus is not {model['genus']}")
    if rows.get("zeta point-count oracle", {}).get("verdict") != "agrees":
        problems.append("oracle does not agree")
    expected = p_rank(model["p"], model["m"], model["f"])
    if rows.get("cartier operator", {}).get("stable_rank") != expected:
        problems.append(f"p-rank is not {expected}")
    return problems


def library_checks(inputs):
    """(label, check) per library call, in the order the worker makes them.

    A check takes the call's result and returns a problem or None.
    """
    checks = []
    for spec in inputs["groups"]:
        elements = closure([tuple(w) for w in spec["gens"]])
        checks.append(("build", lambda r, n=len(elements): None if r == n else f"order {r} != {n}"))
        for probe in spec["probes"]:
            want = tuple(probe) in elements
            checks.append(("member", lambda r, want=want: None if r == want else f"membership {r} != {want}"))
        pt = spec["point"]
        n = sum(1 for g in elements if g[pt] == pt)
        checks.append(("stabilizer", lambda r, n=n: None if r == n else f"stabilizer order {r} != {n}"))
    for order, g in inputs["classify"]:
        want = classify(order, g)
        checks.append(("classify", lambda r, want=want: None if r == want else f"labels {r} != {want}"))
    for i, pair in enumerate(inputs["dominates"]):
        checks.append(("dominates", lambda r, pair=pair, i=i: check_dominates(pair, r[0], r[1], i)))
    for poly in inputs["polys"]:
        checks.append(("poly_positive", lambda r, poly=poly: check_poly(poly, r[0], r[1])))
    audit = ("audit_all", lambda r: None if audit_digest(r) == AUDIT_ALL_SHA256 else "audit rows changed")
    checks += [audit] * inputs["audits"]
    for spec in inputs["cartier"]:
        want = p_rank(spec["p"], spec["m"], spec["f"])
        checks.append(("cartier", lambda r, want=want: None if r == want else f"p-rank {r} != {want}"))
    for spec in inputs["counts"]:
        want = point_count(spec["p"], spec["m"], spec["f"], spec["r"])
        checks.append(("count_points", lambda r, want=want: None if r == want else f"count {r} != {want}"))
    return checks
