"""Command-line surface: model registry, verification suites, ad-hoc queries."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import clifford, g2
from .errors import NoSkewConnection, SkewtorError
from .formexpr import parse_form, parse_homogeneous, render_form
from .modelfile import find_model
from .registry import registry
from .reporting import fmt
from .suites import SUITES, run_suite

Q = Fraction

CONVENTIONS = """pinned conventions
  clifford-square        e_i . e_i = -1; mirror ambiguities resolved by frame
                         orientation, never by the Clifford sign
  volume-normalization   odd modules: volume element acts as +1 (dim 3 mod 4)
                         or -i (dim 1 mod 4); pins the canonical 3-form of the
                         7-frame to the simple eigenvalue -7 and the Reeb
                         direction of the 5-frame to +i on the rank-one types
  hodge-orientation      ascending blade e_1^...^e_n positive in every
                         dimension; reproduces the worked torsion forms and
                         the (-4, 0, 0, 4) contact spectrum with these signs
  spin-connection        Lambda_i = (1/2) sum_{j<k} omega_ijk Gamma_j Gamma_k;
                         pinned by the parallel-spinor counts 4 and 2
  ricci-index-order      Ric(X,Y) = sum_i R(e_i, X, Y, e_i); pinned by the
                         worked diag(-2,0,-2,0,0,-2,-2) table
  two-form-action        rho(alpha) e_m = sum_k alpha(m,k) e_k as derivation;
                         pinned by rho(Z -| w3)(w3) = -3 (Z -| *w3)
  distinguished-spinors  rank-one type (1,0,0,0), kernel type (0,1,0,0) in the
                         constructed basis; their closed-form kernel equation
                         sets match the two displayed sign variants verbatim
  fundamental-form       F(X,Y) = g(X, phi(Y)) with F = e1^e2 + e3^e4 (+ ...)
                         so that 2F = d(eta) on the Sasakian fixtures; the
                         Kaehler form uses the same orientation
  dt-contraction         lambda(X,Y) = sum_i dT(X,Y,e_i,phi(e_i)) without a
                         1/2 factor (both parities); pinned by the Ricci-form
                         identity and the Sasakian value 16(1-k)F
  dirac-square           the codifferential enters the Dirac-square identity
                         with coefficient 1/2; pinned by exact closure on
                         models whose torsion is not coclosed and by the
                         parallel-spinor corollary
"""


def _fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_models(args):
    if args.action == "list":
        for name, entry in registry().items():   # in name order
            print(f"{name:<12} dim {entry.model.n}  structure {entry.kind:<9} {entry.notes}")
        return 0
    entry = find_model(args.name)
    print(json.dumps(entry.doc, indent=2))
    return 0


def cmd_verify(args):
    if args.suite != "all" and args.suite not in SUITES:
        return _fail(f"unknown suite '{args.suite}' "
                     f"(have: {', '.join(SUITES)}, all)")
    report = run_suite(args.suite)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_characteristic(args):
    """`torsion` prints the structure's torsion, `ricci` the Ricci table of its connection."""
    entry = find_model(args.model)
    if entry.structure is None:
        return _fail(f"model '{entry.name}' carries no structure")
    try:
        t = entry.structure.torsion
    except NoSkewConnection as err:
        return _fail(f"no compatible connection with skew torsion ({err.reason})", 1)
    if args.command == "torsion":
        print(f"T = {render_form(t)}")
        return 0
    table = entry.structure.connection.curvature
    print("Ric (characteristic connection):")
    for row in table.ric:
        print("  [" + ", ".join(fmt(x) for x in row) + "]")
    print(f"Scal = {fmt(table.scal)}")
    return 0


def cmd_decompose(args):
    entry = find_model(args.model)
    if entry.model.n != 7:
        return _fail("type decomposition is defined on 7-dimensional frames")
    form = parse_homogeneous(args.expr, 7)
    if form.degree == 2:
        p7, p14 = g2.project2(form)
        print(f"part7  = {render_form(p7)}")
        print(f"part14 = {render_form(p14)}")
    elif form.degree == 3:
        p1, p7, p27 = g2.project3(form)
        print(f"part1  = {render_form(p1)}")
        print(f"part7  = {render_form(p7)}")
        print(f"part27 = {render_form(p27)}")
    else:
        return _fail("decomposition implemented for 2- and 3-forms")
    return 0


def cmd_spin_eig(args):
    n = args.dim
    if not 2 <= n <= 8:
        return _fail("spin modules provided for dimensions 2..8")
    report = clifford.eigen_report(clifford.act_form(parse_form(args.expr, n)))
    values = ", ".join(f"{fmt(v)} x{m}" for v, m in report.pairs)
    print(f"eigenvalues: {values}")
    if report.residual is not None:
        print(f"residual factor (highest first): {report.residual}")
    print(f"hermitian: {report.hermitian}")
    return 0


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process and reused by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="skewtor",
        description="exact workbench for metric connections with totally "
                    "skew-symmetric torsion on invariant models")
    parser.add_argument("--convention-ledger", action="store_true",
                        help="print the pinned sign and orientation conventions")
    sub = parser.add_subparsers(dest="command")

    p_models = sub.add_parser("models", help="registry access")
    sub_models = p_models.add_subparsers(dest="action", required=True)
    sub_models.add_parser("list")
    p_show = sub_models.add_parser("show")
    p_show.add_argument("name")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}, all")
    p_verify.add_argument("--json", action="store_true")

    p_torsion = sub.add_parser("torsion", help="characteristic torsion of a model")
    p_torsion.add_argument("model")

    p_ricci = sub.add_parser("ricci", help="Ricci table of the characteristic connection")
    p_ricci.add_argument("model")

    p_dec = sub.add_parser("decompose", help="type decomposition of a form")
    p_dec.add_argument("model")
    p_dec.add_argument("expr", nargs="?")

    p_eig = sub.add_parser("spin-eig", help="exact spinor spectrum of a form")
    p_eig.add_argument("dim", type=int)
    p_eig.add_argument("expr", nargs="?")
    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse leaves over an expression that starts with a minus sign, such
    # as "-e1^e2", as an unknown option; the first one left over is the expression
    if getattr(args, "expr", "") is None and extra:
        args.expr = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "expr", "") is None:
        parser.error("the following arguments are required: expr")
    handlers = {"models": cmd_models, "verify": cmd_verify,
                "torsion": cmd_characteristic, "ricci": cmd_characteristic,
                "decompose": cmd_decompose, "spin-eig": cmd_spin_eig}
    try:
        if args.convention_ledger:
            print(CONVENTIONS, end="")
            code = 0
        elif not args.command:
            parser.print_help()
            code = 2
        else:
            code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except SkewtorError as err:
        return _fail(str(err))
    except BrokenPipeError:
        # the reader closed stdout (`skewtor ... | head`): exit as a writer
        # killed by SIGPIPE would, silently; stdout is pointed at os.devnull
        # so that the interpreter's last flush finds nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
