"""Command-line interface: dimension tables, bases, products and verification suites.

Output is deterministic byte for byte for a fixed configuration: JSON is
emitted with sorted keys and no timestamps, rows are ordered by degree, and
every suite produces a machine-readable certificate.  Exit status is 0 when
all requested checks pass, 1 on a failed check, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import QuantumCompleteIntersection, element_to_text
from .bar import DEFAULT_SIZE_CAP, BarComplex, SizeError
from .cohomology import BasisError, NotCocycleError, dimension_table, standard_basis
from .resolution import GENERAL, SIMPLIFIED_A2, SIMPLIFIED_A3, differential, preferred_variant
from .scalars import (
    cyclotomic_field,
    prime_field,
    prime_field_for,
    rational_field,
)
from .yoneda import (
    TableMismatchError,
    build_lifting,
    reduced_ring_table,
    relations_check,
    verify_lifting,
    yoneda_product,
)

SCHEMA = "qci-hochschild/1"

ENV_BACKEND = "QCIHH_BACKEND"
ENV_SIZE_CAP = "QCIHH_SIZE_CAP"


def make_field(name: str, a: int):
    name = name.strip()
    if name == "cyclotomic":
        return cyclotomic_field(a)
    if name == "rational":
        return rational_field(a)
    if name == "prime":
        return prime_field_for(a)
    if name.startswith("prime:"):
        try:
            modulus = int(name.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"backend {name!r} is not 'prime:P' with P an integer"
            ) from None
        return prime_field(modulus, a)
    raise argparse.ArgumentTypeError(f"unknown backend {name!r}")


def nonnegative_int(text: str) -> int:
    """argparse type for degrees and bounds: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def basis_index(name: str, index: int, degree_name: str, degree: int, size: int) -> int:
    """Check that index picks one of the first `size` named classes of a degree."""
    if not 0 <= index < size:
        raise ValueError(
            f"{name} must be in 0..{size - 1} for {degree_name} {degree}, got {index}"
        )
    return index


def make_algebra(args) -> QuantumCompleteIntersection:
    backend = args.backend or os.environ.get(ENV_BACKEND, "cyclotomic")
    return QuantumCompleteIntersection(args.a, make_field(backend, args.a))


def emit(obj, fmt: str = "json"):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(obj)


def certificate(suite: str, config: dict, checks: list) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "suite": suite,
        "config": config,
        "checks": [
            {"name": name, "status": "pass" if ok else "fail", "witness": detail}
            for name, ok, detail in checks
        ],
        "status": "pass" if all(ok for _, ok, _ in checks) else "fail",
    }


# the verification errors a subcommand turns into a failing certificate
CHECK_ERRORS = (BasisError, NotCocycleError, TableMismatchError)


def failed_check(exc: Exception) -> tuple:
    """(check name, False, witness) for one of CHECK_ERRORS."""
    if isinstance(exc, BasisError):
        name = "named basis"
    elif isinstance(exc, NotCocycleError):
        name = "cocycle"
    else:
        name = "closed form"
    return (name, False, str(exc))


def check_failed(suite: str, config: dict, exc: Exception) -> int:
    """Print a one-check failing certificate whose witness is exc; exit 1."""
    emit(certificate(suite, config, [failed_check(exc)]))
    return 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_dims(args) -> int:
    A = make_algebra(args)
    table = dimension_table(A, args.max_degree)
    if args.format == "csv":
        sys.stdout.write(table.to_csv_text())
    else:
        emit(table.to_json_obj())
    return 0 if table.consistent() else 1


def cmd_basis(args) -> int:
    A = make_algebra(args)
    try:
        classes = standard_basis(A, args.degree)
    except BasisError as exc:
        return check_failed("basis", {"a": args.a, "degree": args.degree}, exc)
    out = {
        "schema": SCHEMA,
        "a": A.a,
        "backend": A.field.describe(),
        "degree": args.degree,
        "classes": [
            {
                "label": cls.label,
                "values": [element_to_text(v) for v in cls.representative.values],
            }
            for cls in classes
        ],
    }
    emit(out)
    return 0


def cmd_product(args) -> int:
    # the left factor is any named class, the right one a scalar class
    i = basis_index("--i", args.i, "--deg1", args.deg1, 2 * args.deg1 + 2)
    j = basis_index("--j", args.j, "--deg2", args.deg2, args.deg2 + 1)
    A = make_algebra(args)
    try:
        left = standard_basis(A, args.deg1)[i]
        right = standard_basis(A, args.deg2)[j]
        cls, coords = yoneda_product(left, right)
        target = standard_basis(A, args.deg1 + args.deg2)
    except (BasisError, NotCocycleError) as exc:
        config = {"a": args.a, "deg1": args.deg1, "i": i, "deg2": args.deg2, "j": j}
        return check_failed("product", config, exc)
    out = {
        "schema": SCHEMA,
        "a": A.a,
        "backend": A.field.describe(),
        "left": left.label,
        "right": right.label,
        "degree": args.deg1 + args.deg2,
        "product": cls.label,
        "coordinates": {
            target[k].label: A.field.scalar_to_text(c)
            for k, c in enumerate(coords)
            if c
        },
    }
    emit(out)
    return 0


def cmd_table(args) -> int:
    A = make_algebra(args)
    try:
        obj = reduced_ring_table(A, args.max_degree).to_json_obj()
        for cell in obj["cells"]:
            if cell["product"] is None:
                cell["product"] = "0"
            else:
                target = standard_basis(A, cell["product"]["degree"])
                cell["product"] = target[cell["product"]["index"]].label + (
                    f"^{cell['product']['degree']}"
                )
    except CHECK_ERRORS as exc:
        return check_failed("table", {"a": args.a, "max_degree": args.max_degree}, exc)
    emit(obj)
    return 0


def cmd_verify(args) -> int:
    A = make_algebra(args)
    config = {"a": args.a, "backend": A.field.describe(), "suite": args.suite}
    checks = []
    if args.suite == "relations":
        report = relations_check(A)
        checks = [(f"({name})", ok, detail) for name, ok, detail in report.checks]
    elif args.suite == "liftings":
        config.update({"t_max": args.t_max, "s_max": args.s_max})
        for t in range(args.t_max + 1):
            for r in range(2 * t + 1):
                values = [A.field.zero()] * (2 * t + 1)
                values[r] = A.field.one()
                report = verify_lifting(build_lifting(A, values, args.s_max))
                detail = "; ".join(d for _, d in report.failures())
                checks.append((f"t={t} r={r}", report.ok, detail))
    elif args.suite == "table":
        config.update({"max_degree": args.max_degree})
        try:
            table = reduced_ring_table(A, args.max_degree)
            checks = [(name, True, "") for name in table.checked]
        except CHECK_ERRORS as exc:
            checks = [failed_check(exc)]
    cert = certificate(args.suite, config, checks)
    emit(cert)
    return 0 if cert["status"] == "pass" else 1


def size_cap_from_env() -> int:
    """The oracle's cap from QCIHH_SIZE_CAP: a positive integer, else a usage error."""
    raw = os.environ.get(ENV_SIZE_CAP)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{ENV_SIZE_CAP} must be a positive integer, got {raw!r}")
    return cap


def cmd_oracle(args) -> int:
    # an unusable cap, --a or --modulus raises here and is a usage error
    oracle = BarComplex(args.a, modulus=args.modulus, size_cap=size_cap_from_env())
    try:
        rows = oracle.dimension_rows(args.max_degree)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(
        {
            "schema": SCHEMA,
            "a": args.a,
            "backend": f"prime({oracle.p})",
            "route": "bar",
            "rows": rows,
        }
    )
    return 0


def cmd_dump_resolution(args) -> int:
    A = make_algebra(args)
    variant = args.variant or preferred_variant(A)
    for n in range(1, args.max_degree + 1):
        d = differential(A, n, variant)
        for i in range(n + 1):
            pieces = [
                f"({element_to_text(d[j, i])}) f{n-1}_{j}" for j in (i - 1, i) if (j, i) in d
            ]
            print(f"d{n} f{n}_{i} = " + (" + ".join(pieces) if pieces else "0"))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qci-hochschild",
        description="Exact Hochschild cohomology engine for q-symmetric "
        "two-generator nilpotent algebras at roots of unity.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--a", type=int, required=True, help="nilpotency order, a >= 2")
        p.add_argument(
            "--backend",
            default=None,
            help="cyclotomic | prime | prime:P | rational (default cyclotomic)",
        )

    p = sub.add_parser("dims", help="dimension table by both routes")
    common(p)
    p.add_argument("--max-degree", type=nonnegative_int, default=12)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("basis", help="named cocycle basis of an even degree")
    common(p)
    p.add_argument("--degree", type=nonnegative_int, required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("product", help="product of two scalar basis classes")
    common(p)
    p.add_argument("--deg1", type=nonnegative_int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--deg2", type=nonnegative_int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("table", help="full product table of the scalar classes")
    common(p)
    p.add_argument("--max-degree", type=nonnegative_int, default=8)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument(
        "--suite", choices=("liftings", "relations", "table"), required=True
    )
    p.add_argument("--t-max", type=nonnegative_int, default=2)
    p.add_argument("--s-max", type=nonnegative_int, default=6)
    p.add_argument("--max-degree", type=nonnegative_int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="independent dimension table over F_p")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--max-degree", type=nonnegative_int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-resolution", help="print differential columns as text")
    common(p)
    p.add_argument("--max-degree", type=nonnegative_int, default=4)
    p.add_argument(
        "--variant",
        choices=(GENERAL, SIMPLIFIED_A2, SIMPLIFIED_A3),
        default=None,
    )
    p.set_defaults(func=cmd_dump_resolution)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        parser.error(str(exc))  # exits with status 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
