"""Command-line surface: reproduction suites with machine-readable reports.

Reports serialize deterministically (sorted keys, fixed separators), so a
rerun on identical inputs is byte-identical.  JSON is the stable format and
follows the schema shipped in ``data/report-schema-v1.json``; CSV uses
RFC 4180 quoting; the text format is for reading and carries no stability
guarantee.  Each command imports only the layers and standard modules it
computes with; ``csv`` is loaded only to write CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import contextmanager

SCHEMA_VERSION = "1"

# Order and element-order set of each candidate: a finite group sharing both with a finite simple
# group is isomorphic to it (Shi; Vasil'ev, Grechkoseeva and Mazurov, Algebra and Logic 48, 2009).
# Then, for each wild prime p (an odd prime dividing the order): |P| for a Sylow p-subgroup P,
# |N(P)|, and the largest |Q||C| with Q a p-subgroup and C a cyclic complement in N(Q).
EXPECTED = {
    "alt7": (2520, [1, 2, 3, 4, 5, 6, 7], {3: (9, 36, 36), 5: (5, 20, 20), 7: (7, 21, 21)}),
    "m11": (7920, [1, 2, 3, 4, 5, 6, 8, 11], {3: (9, 144, 72), 5: (5, 20, 20), 11: (11, 55, 55)}),
}


class UsageError(Exception):
    """A request the command cannot run; ``main`` reports it and exits 2."""


class Report:
    __slots__ = ("command", "input_digest", "rows", "verdict_summary")

    def __init__(self, command: list, input_digest: str):
        self.command = command
        self.input_digest = input_digest
        self.rows = []
        self.verdict_summary = "holds"

    def add(self, anchor: str, verdict: str, **payload):
        row = {"anchor": anchor, "verdict": verdict}
        row.update(sorted(payload.items()))
        self.rows.append(row)

    def ok(self) -> bool:
        return self.verdict_summary == "holds"

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "command": list(self.command),
            "input_digest": self.input_digest,
            "rows": self.rows,
            "verdict_summary": self.verdict_summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        import csv
        keys = sorted({k for row in self.rows for k in row})
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(["schema_version", SCHEMA_VERSION, "digest", self.input_digest,
                         "summary", self.verdict_summary])
        writer.writerow(keys)
        for row in self.rows:
            writer.writerow([_csv_cell(row.get(k, "")) for k in keys])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"# {' '.join(str(c) for c in self.command)}",
                 f"# digest {self.input_digest}  summary {self.verdict_summary}"]
        for row in self.rows:
            detail = "  ".join(f"{k}={v}" for k, v in row.items() if k not in ("anchor", "verdict"))
            lines.append(f"{row['verdict']:10s} {row['anchor']}: {detail}")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str) -> str:
        return {"json": self.to_json, "csv": self.to_csv, "text": self.to_text}[fmt]()


def _csv_cell(value):
    if isinstance(value, list):
        return json.dumps(value)
    return value


@contextmanager
def _generator_file(name: str):
    """Yield the file's path; failing to read, parse or build it is a usage error."""
    from . import permgroup
    path = permgroup.generator_file_path(name)
    try:
        yield path
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise UsageError(f"cannot read generator file: {path}: {reason}") from None


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(group: str, char: int) -> Report:
    from . import classical, permgroup, ramification
    order, element_orders, by_prime = EXPECTED[group]
    if char not in by_prime:
        raise UsageError(f"characteristic {char} not supported for {group} "
                         f"(the characteristic must be an odd prime from {tuple(by_prime)})")
    with _generator_file(group):
        built = permgroup.load_group(group)
    if built.order() != order:
        raise UsageError(f"the {group} generator file builds a group of order {built.order()}")
    if sorted(built.element_order_set()) != element_orders:
        raise UsageError(f"the {group} generator file builds a group whose element orders are not {element_orders}")
    facts = classical.group_facts(built, char)
    candidates = ramification.enumerate_case_iii(facts)
    num, den = ramification.case_i_ii_coefficient(facts)
    report = Report(
        command=["enumerate", "--group", group, "--char", str(char)],
        input_digest=_digest(group, str(char), str(facts.wild_catalog), str(facts.tame_catalog)),
    )
    coeff_ok = num < ramification.HURWITZ_COEFF * den
    report.add(
        f"{group} p={char} one-wild-point coefficient",
        "holds" if coeff_ok else "fails",
        coefficient=f"{num}/{den}" if den != 1 else str(num),
        bound=ramification.HURWITZ_COEFF,
        wild_catalog=[list(w) for w in facts.wild_catalog],
    )
    survivors = []
    for cand in candidates:
        survives = cand.passes_parity and cand.passes_hurwitz_filter
        if survives:
            survivors.append(cand.g)
        report.add(
            f"{group} p={char} two-point signature ({cand.e1},{cand.e2})",
            "survivor" if survives else "filtered",
            e1=cand.e1, d1=cand.d1, e2=cand.e2, d2=cand.d2,
            q1=cand.q1, E1=cand.E1, g=cand.g, g_minus_1=cand.g - 1,
            even_genus=cand.passes_parity,
            exceeds_hurwitz=cand.passes_hurwitz_filter,
            p_group_stabilizer=cand.p_group_stabilizer,
            small_wild_part=cand.small_wild_part,
        )
    report.verdict_summary = "holds" if coeff_ok else "fails"
    report.add(f"{group} p={char} survivors", "holds" if coeff_ok else "fails",
               genera=survivors)
    return report


# -- group audit ---------------------------------------------------------------


def cmd_group_audit(name: str) -> Report:
    from . import permgroup
    with _generator_file(name) as path:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
        group = permgroup.PermGroup(*permgroup.parse_generator_file(text))
    if group.order() > permgroup.ELEMENT_SCAN_CAP:
        raise UsageError(f"the {name} generator file builds a group of order {group.order()}, "
                         f"above the element-scan cap of {permgroup.ELEMENT_SCAN_CAP}")
    report = Report(command=["group-audit", name], input_digest=_digest(name, text))
    checks = []

    expected_order, expected_orders, by_prime = EXPECTED[name]
    checks.append(("order by stabilizer chain", group.order(), expected_order))
    checks.append(("simplicity via normal closures", group.is_simple(), True))
    checks.append(("element order set", sorted(group.element_order_set()), expected_orders))

    for p, (exp_syl, exp_norm, _) in by_prime.items():
        syl = group.sylow_subgroup(p)
        count = group.conjugacy_class_size_of_subgroup(syl)
        checks.append((f"sylow-{p} order", syl.order(), exp_syl))
        checks.append((f"sylow-{p} elementary abelian", syl.is_elementary_abelian(p), True))
        checks.append((f"sylow-{p} normalizer order", group.order() // count, exp_norm))
        checks.append((f"number of sylow-{p} subgroups", count, expected_order // exp_norm))
    values = {}
    for p, (_, _, exp_solv) in by_prime.items():
        values[p] = permgroup.max_solvable_with_cyclic_complement(group, p)
        checks.append((f"max solvable with cyclic complement, p={p}", values[p], exp_solv))
    checks.append(("max solvable with cyclic complement over wild primes",
                   max(values.values()), max(s for _, _, s in by_prime.values())))
    if name == "alt7":
        stab = group.point_stabilizer(0)
        closure = permgroup.closure_elements(list(stab.generators), group.degree)
        checks.append(("point stabilizer order", stab.order(), 360))
        checks.append(("point stabilizer exhaustive closure", len(closure), 360))

    all_ok = True
    for anchor, got, expected in checks:
        ok = got == expected
        all_ok = all_ok and ok
        report.add(anchor, "holds" if ok else "fails", computed=got, expected=expected)
    report.verdict_summary = "holds" if all_ok else "fails"
    return report


# -- bounds --------------------------------------------------------------------


def cmd_bounds(chain: str, order: int | None = None, genus: int | None = None) -> Report:
    from . import bounds
    if order is not None or genus is not None:
        if chain != "main" or order is None or genus is None:
            raise UsageError("classification is: bounds main --order N --genus g")
        try:
            labels = bounds.classify(order, genus)
        except ValueError as exc:
            raise UsageError(str(exc))
        report = Report(command=["bounds", chain, "--order", str(order), "--genus", str(genus)],
                        input_digest=_digest(chain, str(order), str(genus)))
        for label in ("hurwitz", "nakajima", "solvable-3/2", "main-7/4"):
            report.add(f"classification {label} at (order={order}, g={genus})",
                       "satisfies" if label in labels else "violates")
        report.verdict_summary = "holds"
        return report
    ids = bounds.chain_ids() if chain == "all" else [chain]
    try:
        audits = {cid: bounds.audit_chain(cid) for cid in ids}
    except KeyError:
        raise UsageError(f"unknown chain {chain!r} (choose from {', '.join(bounds.chain_ids())} or all)")
    report = Report(command=["bounds", chain], input_digest=_digest(chain))
    all_ok = True
    for cid in ids:
        for step, rep in zip(bounds.chain_steps(cid), audits[cid]):
            ok = rep.verdict == step.expect
            all_ok = all_ok and ok
            report.add(
                f"{cid}: {step.anchor}",
                rep.verdict,
                step_id=step.step_id,
                expected=step.expect,
                as_documented=ok,
                printed_slip=step.slip,
                witness=rep.witness,
                note=rep.note,
            )
    report.verdict_summary = "holds" if all_ok else "fails"
    return report


# -- prank ----------------------------------------------------------------------


def cmd_prank(curve: str, p: int, oracle: bool = False) -> Report:
    from . import prank
    try:
        model = prank.parse_curve(curve, p)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = Report(command=["prank", "--p", str(p), "--curve", curve]
                    + (["--oracle"] if oracle else []),
                    input_digest=_digest(curve, str(p)))
    genus = prank.normalization_genus(model)
    report.add("model genus", "holds", genus=genus, m=model.m, p=p, f=repr(model.f))
    matrix = prank.cartier_matrix(model)
    rank = prank.stable_rank(matrix)
    report.add("cartier operator", "holds",
               matrix=[list(r) for r in matrix.entries],
               basis=[list(b) for b in matrix.basis],
               stable_rank=rank,
               ordinary=(rank == genus))
    if oracle:
        try:
            l_poly = prank.zeta_l_polynomial(model)
            zeta_rank = prank.l_polynomial_p_rank(l_poly, p)
            report.add("zeta point-count oracle", "agrees" if zeta_rank == rank else "fails",
                       zeta_p_rank=zeta_rank,
                       l_polynomial=list(l_poly))
        except prank.UnsupportedModelError as exc:
            report.add("zeta point-count oracle", "unsupported", reason=str(exc))
        except ArithmeticError as exc:
            report.add("zeta point-count oracle", "fails", reason=str(exc))
    if any(row["verdict"] == "fails" for row in report.rows):
        report.verdict_summary = "fails"
    return report


# -- entry point -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvebound",
        description="Exact verification suites for automorphism bounds of ordinary even-genus curves",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    en = sub.add_parser("enumerate", help="two-branch-point signature enumeration for alt7/m11")
    en.add_argument("--group", required=True, choices=sorted(EXPECTED))
    en.add_argument("--char", required=True, type=int)
    en.add_argument("--format", default="text", choices=("json", "csv", "text"))

    ga = sub.add_parser("group-audit", help="certify the sporadic-group facts from generator files")
    ga.add_argument("name", choices=sorted(EXPECTED))
    ga.add_argument("--format", default="text", choices=("json", "csv", "text"))

    bo = sub.add_parser("bounds", help="audit the inequality-chain registry")
    bo.add_argument("chain", help="a chain id or 'all'; 'main' with --order and --genus")
    bo.add_argument("--order", type=int, help="classify this group order instead")
    bo.add_argument("--genus", type=int, help="genus for classification")
    bo.add_argument("--format", default="text", choices=("json", "csv", "text"))

    pr = sub.add_parser("prank", help="Cartier matrix and p-rank of y^m = f(x)")
    pr.add_argument("--curve", required=True, help="expression like 'y^2 = x^5 - x'")
    pr.add_argument("--p", required=True, type=int)
    pr.add_argument("--oracle", action="store_true", help="also run the zeta point-count oracle")
    pr.add_argument("--format", default="text", choices=("json", "csv", "text"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "enumerate":
            report = cmd_enumerate(args.group, args.char)
        elif args.subcommand == "group-audit":
            report = cmd_group_audit(args.name)
        elif args.subcommand == "bounds":
            report = cmd_bounds(args.chain, args.order, args.genus)
        else:
            report = cmd_prank(args.curve, args.p, args.oracle)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.emit(args.format))
    return 0 if report.ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
