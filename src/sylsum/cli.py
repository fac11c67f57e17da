"""Command-line interface.

Subcommands:

  apery      minimal representatives per residue class mod a pivot
  frobenius  the largest gap
  genus      the number of gaps
  gaps       the full gap list
  sum        weighted gap sum, routed through the formula dispatcher
  verify     sum plus an independent brute-force cross-check
  closed3    three-generator closed forms (generators taken in given order)

Weights are written in a small exact grammar:

  -3/2                 a rational
  zeta(8)^3            a power of a primitive root of unity
  q(5; 0, -1/5)        r0 + r1*sqrt(d)   (here -1/sqrt(5))
  nf([c0,..,cd]; [e0,..,e_{d-1}])   coefficients in Q[x]/(c0+..+cd x^d)

Exit codes: 0 success, 1 ``verify`` disagreement, 2 invalid input,
3 formula precondition violated, 4 zero divisor met in a user-supplied
reducible coefficient ring, 5 internal invariant failed (any other
``ArithmeticError``: an unreachable Apery residue, a failed integrality
check, a division by zero).  Codes 2-5 print a one-line JSON error record
on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .exactnum import (
    FieldElement,
    InvalidField,
    NumberField,
    ZeroDivisor,
    QQ,
    _fraction_from_str,
    canonical_str,
    cyclotomic_field,
    element_to_obj,
    pretty_str,
    quadratic_field,
)
from .oracle import brute_force_weighted_sum, cross_validate
from .semigroup import (
    EmptyGenerators,
    NonPositive,
    NotCoprime,
    apery_set,
    frobenius_number,
    gap_set,
    sylvester_number,
    validate_generators,
)
from .sums import (
    ConditionNotMet,
    Formula,
    InvalidWeight,
    PreconditionViolated,
    SumRequest,
    SumResult,
    ThreeVarContext,
    closed_three_var,
    closed_three_var_degenerate,
    dispatch_sum,
    evaluate,
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_RAT = r"[+-]?\d+(?:\s*/\s*\d+)?"
_RE_RATIONAL = re.compile(rf"\s*({_RAT})\s*$")
_RE_ZETA = re.compile(r"\s*zeta\(\s*(\d+)\s*\)\s*(?:\^\s*([+-]?\d+))?\s*$")
_RE_QUAD = re.compile(rf"\s*q\(\s*([+-]?\d+)\s*;\s*({_RAT})\s*,\s*({_RAT})\s*\)\s*$")
_RE_NF = re.compile(r"\s*nf\(\s*\[([^]]*)\]\s*;\s*\[([^]]*)\]\s*\)\s*$")


def _fraction(text: str, s: str) -> Fraction:
    # "p" and "p/q" are read at any size; other forms Fraction accepts
    # (such as "1.5" in an nf list) stay within the int-to-str digit limit
    try:
        if _RE_RATIONAL.match(text):
            return _fraction_from_str(text.replace(" ", ""))
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}", s.find(text)) from None


def parse_element(s: str) -> FieldElement:
    """Parse the weight grammar; zero is allowed here."""
    m = _RE_RATIONAL.match(s)
    if m:
        return QQ.from_rational(_fraction(m.group(1), s))
    m = _RE_ZETA.match(s)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ParseError("zeta index must be >= 1", s.find(m.group(1)))
        k = int(m.group(2)) if m.group(2) else 1
        return cyclotomic_field(n).generator ** (k % n)
    m = _RE_QUAD.match(s)
    if m:
        field = quadratic_field(int(m.group(1)))
        return field.element([_fraction(m.group(2), s), _fraction(m.group(3), s)])
    m = _RE_NF.match(s)
    if m:
        modulus = [_fraction(t, s) for t in m.group(1).split(",")]
        coeffs = [_fraction(t, s) for t in m.group(2).split(",")] if m.group(2).strip() else []
        field = NumberField(modulus)
        if len(coeffs) > field.degree:
            raise ParseError(
                f"expected at most {field.degree} coefficients, got {len(coeffs)}",
                s.find("[", s.find(";")),
            )
        return field.element(coeffs)
    raise ParseError(f"unrecognised weight syntax {s!r}", 0)


class LambdaSpec:
    """A parsed, nonzero weight; ``raw`` round-trips through the grammar."""

    __slots__ = ("raw", "resolved")

    def __init__(self, raw: str, resolved: FieldElement):
        self.raw = raw
        self.resolved = resolved

    def __eq__(self, other):
        return isinstance(other, LambdaSpec) and self.resolved == other.resolved

    def __repr__(self):
        return f"LambdaSpec({self.raw!r})"


def parse_lambda(s: str) -> LambdaSpec:
    resolved = parse_element(s)
    if resolved.is_zero():
        raise InvalidWeight("weight must be nonzero")
    return LambdaSpec(s, resolved)


def format_lambda(spec: LambdaSpec) -> str:
    return canonical_str(spec.resolved)


# ---------------------------------------------------------------------------


def _parse_gens(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError(f"bad generator list {text!r}") from None


def _value_obj(value: FieldElement) -> dict:
    obj = element_to_obj(value)
    obj["text"] = canonical_str(value)
    obj["pretty"] = pretty_str(value)
    return obj


def _forced_result(req: SumRequest, name: str) -> SumResult:
    """Run one specific formula; ``evaluate`` enforces the domain it declares."""
    formula = Formula(name)
    if formula is Formula.ORACLE:
        return SumResult(brute_force_weighted_sum(req.A, req.mu, req.lam), Formula.ORACLE)
    return evaluate(formula, req.A, req.mu, req.lam)


def _emit(envelope: dict, lines: list[str], args) -> None:
    if args.format == "json":
        print(json.dumps(envelope))
    else:
        if lines:
            print(lines[0])
        if not args.quiet:
            for line in lines[1:]:
                print(line)


def _cmd_apery(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    ap = apery_set(A, args.pivot)
    result = {"pivot": ap.pivot, "reps": list(ap.reps)}
    lines = [",".join(str(m) for m in ap.reps), f"pivot: {ap.pivot}"]
    inputs = {"gens": list(A.gens), "pivot": args.pivot}
    return {"inputs": inputs, "result": result, "pivot": ap.pivot}, lines


def _cmd_frobenius(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    g = frobenius_number(A)
    lines = ["undefined" if g is None else str(g)]
    return {"inputs": {"gens": list(A.gens)}, "result": g}, lines


def _cmd_genus(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    n = sylvester_number(A)
    return {"inputs": {"gens": list(A.gens)}, "result": n}, [str(n)]


def _cmd_gaps(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    gaps = list(gap_set(A))
    return (
        {"inputs": {"gens": list(A.gens)}, "result": gaps},
        [",".join(str(n) for n in gaps)],
    )


def _sum_output(inputs: dict, result: SumResult) -> tuple[dict, list[str]]:
    """The envelope and text lines of one sum; each view is rendered once."""
    value = _value_obj(result.value)
    formula = result.formula_used.value
    pivot = result.pivot_used
    envelope = {"inputs": inputs, "result": value, "formula_used": formula, "pivot": pivot}
    lines = [value["pretty"], f"canonical: {value['text']}", f"formula: {formula}"]
    if pivot is not None:
        lines.append(f"pivot: {pivot}")
    return envelope, lines


def _cmd_sum(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    spec = parse_lambda(args.weight)
    req = SumRequest(A, args.mu, spec.resolved)
    if args.force_formula:
        result = _forced_result(req, args.force_formula)
    else:
        result = dispatch_sum(req)
    return _sum_output({"gens": list(A.gens), "mu": args.mu, "lambda": spec.raw}, result)


def _cmd_verify(args) -> tuple[dict, list[str]]:
    A = validate_generators(_parse_gens(args.gens))
    spec = parse_lambda(args.weight)
    report = cross_validate(SumRequest(A, args.mu, spec.resolved))
    formula_value = _value_obj(report.formula_value)
    oracle_value = _value_obj(report.oracle_value)
    envelope = {
        "inputs": {"gens": list(A.gens), "mu": args.mu, "lambda": spec.raw},
        "result": {
            "agrees": report.agrees,
            "formula_value": formula_value,
            "oracle_value": oracle_value,
            "gap_count": report.gap_count,
        },
        "formula_used": report.formula_used.value,
        "pivot": None,
    }
    lines = [
        "true" if report.agrees else "false",
        f"formula_value: {formula_value['pretty']}",
        f"oracle_value: {oracle_value['pretty']}",
        f"formula: {report.formula_used.value}",
        f"gap_count: {report.gap_count}",
    ]
    return envelope, lines


def _cmd_closed3(args) -> tuple[dict, list[str]]:
    gens = _parse_gens(args.gens)
    if len(gens) != 3:
        raise ParseError("closed3 needs exactly three generators a,b,c")
    spec = parse_lambda(args.weight)
    ctx = ThreeVarContext(*gens)
    lam = spec.resolved
    if (lam**ctx.c).is_one():
        result = closed_three_var_degenerate(ctx, lam)
    else:
        result = closed_three_var(ctx, lam)
    return _sum_output({"gens": gens, "lambda": spec.raw}, result)


_HANDLERS = {
    "apery": _cmd_apery,
    "frobenius": _cmd_frobenius,
    "genus": _cmd_genus,
    "gaps": _cmd_gaps,
    "sum": _cmd_sum,
    "verify": _cmd_verify,
    "closed3": _cmd_closed3,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="sylsum", description="Exact weighted gap sums over numerical semigroups."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apery", parents=[common])
    p.add_argument("--gens", required=True)
    p.add_argument("--pivot", type=int, default=None)

    for name in ("frobenius", "genus", "gaps"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--gens", required=True)

    p = sub.add_parser("sum", parents=[common])
    p.add_argument("--gens", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--lambda", dest="weight", required=True)
    p.add_argument(
        "--force-formula",
        choices=[f.value for f in Formula],
        default=None,
    )

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--gens", required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--lambda", dest="weight", required=True)

    p = sub.add_parser("closed3", parents=[common])
    p.add_argument("--gens", required=True)
    p.add_argument("--lambda", dest="weight", required=True)

    return parser


_NEGATIVE_RATIONAL = re.compile(r"-\d")


def _attach_negative_weights(argv: list[str]) -> list[str]:
    """Rewrite ``--lambda -3/2`` as ``--lambda=-3/2``.

    argparse reads a token starting with '-' as an option unless it looks
    like a plain negative number, which a fraction does not, so the flag
    would be left without its value.  Abbreviations of the flag count too.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and "--lambda".startswith(prev) and _NEGATIVE_RATIONAL.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_weights(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    start = time.perf_counter()
    try:
        envelope, lines = _HANDLERS[args.command](args)
    except (PreconditionViolated, ConditionNotMet) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    except ZeroDivisor as exc:
        print(_error_record(exc), file=sys.stderr)
        return 4
    except ArithmeticError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 5
    except (
        ParseError,
        InvalidWeight,
        InvalidField,
        NotCoprime,
        NonPositive,
        EmptyGenerators,
        ValueError,
    ) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2

    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    full = {"command": args.command}
    full.update(envelope)
    full.setdefault("formula_used", None)
    full.setdefault("pivot", None)
    full["elapsed_ms"] = elapsed_ms
    _emit(full, lines, args)

    if args.command == "verify" and not full["result"]["agrees"]:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
