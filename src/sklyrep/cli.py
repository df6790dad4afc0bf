"""Command-line front end: verify, classify, sigma, solve, slice.

Every command is deterministic.  The randomized ones, sigma and solve,
take their seed from --seed, else from the SKLYREP_SEED environment
variable, else a fixed constant.  Human and CSV output prints
floating-point values with 17 significant digits.  Exit codes: 0 success,
1 verification failure, 2 usage or schema error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import re
import sys

import numpy as np

from . import sklyanin, solver
from .matkit import DEFAULT_RTOL
from .reptheory import (
    _complex_to_pair,
    classify,
    find_invariant_line,
    fingerprint,
    is_irreducible_burnside,
    relation_residual,
    rep_from_json,
)
from .skewpoly import skew_center_point, skew_presentation

DEFAULT_SEED = 12345
SEED_ENV_VAR = "SKLYREP_SEED"

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


class UsageError(ValueError):
    pass


def parse_complex(text: str) -> complex:
    """Complex literal: ``re`` or ``re+imi`` (e.g. ``2``, ``0.5-1.2i``, ``1.2i``)."""
    text = text.strip().replace(" ", "")
    if text.endswith("i"):
        body = text[:-1]
        if body in ("", "+"):
            return 1j
        if body == "-":
            return -1j
        if body[-1] in "+-":
            body += "1"
        m = re.fullmatch(rf"(?P<re>[+-]?{_NUM})(?P<im>[+-]{_NUM})", body)
        if m is not None:
            return complex(float(m.group("re")), float(m.group("im")))
        if re.fullmatch(rf"[+-]?{_NUM}", body):
            return complex(0.0, float(body))
        raise UsageError(f"cannot parse complex literal {text!r}")
    if re.fullmatch(rf"[+-]?{_NUM}", text):
        return complex(float(text), 0.0)
    raise UsageError(f"cannot parse complex literal {text!r}")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_c(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    return "%s%s%si" % (_fmt(z.real), "+" if z.imag >= 0 else "-", _fmt(abs(z.imag)))


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output):
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def _default_seed():
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_SEED


def _parse_assignments(text: str) -> dict:
    env = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"expected name=value, got {item!r}")
        name, value = (part.strip() for part in item.split("=", 1))
        env[name] = parse_complex(value)
        if not cmath.isfinite(env[name]):
            raise UsageError(f"--set: {name} must be finite")
    return env


def _presentation_for(rep):
    gens = rep.generators
    if gens == ("x", "y", "z"):
        c = rep.env.get("c")
        if c is None:
            raise UsageError("3-generator representation must bind the parameter c")
        return sklyanin.s11c_presentation(c)
    if gens == ("x", "y"):
        return skew_presentation()
    raise UsageError(f"unsupported generator set {gens}")


def _verify_payload(rep, tol):
    pres = _presentation_for(rep)
    residual = relation_residual(pres, rep)
    irr_burnside = is_irreducible_burnside(rep)
    witness = find_invariant_line(rep) if rep.n == 2 else None
    payload = {
        "n": rep.n,
        "generators": list(rep.generators),
        "residual": residual,
        "tol": tol,
        "irreducible_burnside": bool(irr_burnside),
        "invariant_line": [_complex_to_pair(v) for v in witness] if witness is not None else None,
        "fingerprint": [_complex_to_pair(z) for z in fingerprint(rep)] if rep.n == 2 else None,
    }
    if residual <= tol:
        # a non-scalar centre (a reducible rep mixing points) has no character;
        # the verdict stands and the reason is reported beside the null
        try:
            if len(rep.generators) == 3:
                char = sklyanin.central_character(rep, tol=max(tol, 1e-7))
                payload["central_character"] = {
                    "u1": _complex_to_pair(char.u1),
                    "u2": _complex_to_pair(char.u2),
                    "u3": _complex_to_pair(char.u3),
                    "g": _complex_to_pair(char.g),
                    "f_residual": char.f_residual,
                }
            else:
                u1, u2 = skew_center_point(rep, tol=max(tol, 1e-7))
                payload["central_character"] = {
                    "u1": _complex_to_pair(u1), "u2": _complex_to_pair(u2)
                }
        except ValueError as exc:
            payload["central_character"] = None
            payload["central_character_error"] = str(exc)
    return payload


def _verify_human(payload) -> str:
    lines = [
        "residual: " + _fmt(payload["residual"]),
        "irreducible (burnside): " + str(payload["irreducible_burnside"]).lower(),
        "invariant line: "
        + (
            "none"
            if payload["invariant_line"] is None
            else "[" + ", ".join(_fmt_c(complex(a, b)) for a, b in payload["invariant_line"]) + "]"
        ),
    ]
    if payload.get("fingerprint"):
        lines.append(
            "fingerprint: "
            + ", ".join(_fmt_c(complex(a, b)) for a, b in payload["fingerprint"])
        )
    char = payload.get("central_character")
    if "central_character_error" in payload:
        lines.append(f"central character: none ({payload['central_character_error']})")
    elif char:
        vals = ", ".join(
            f"{k}={_fmt_c(complex(*char[k]))}" for k in ("u1", "u2", "u3", "g") if k in char
        )
        if "f_residual" in char:
            vals += ", f_residual=" + _fmt(char["f_residual"])
        lines.append("central character: " + vals)
    lines.append("verdict: " + ("PASS" if payload["residual"] <= payload["tol"] else "FAIL"))
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if (args.rep is None) == (args.family is None):
        raise UsageError("exactly one of --rep and --family is required")
    try:
        # inputs are finite, so an inf or NaN can only come from an overflow;
        # raising at the first one keeps numpy from warning on every later step
        with np.errstate(over="raise"):
            if args.rep is not None:
                with open(args.rep) as fh:
                    rep = rep_from_json(json.load(fh))
            else:
                env = _parse_assignments(args.set or "")
                rep = sklyanin.family(args.family, env, branch=args.branch)
            payload = _verify_payload(rep, args.tol)
    except (OverflowError, FloatingPointError):
        flag = "--rep" if args.rep is not None else "--set"
        raise UsageError(f"{flag}: values too large, the arithmetic overflows") from None
    if args.format == "human":
        _emit(_verify_human(payload), args.output)
    else:
        _emit_json(payload, args.output)
    return 0 if payload["residual"] <= args.tol else 1


def cmd_classify(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise UsageError("--input: expected a JSON list of representations")
    reps = [rep_from_json(item) for item in data]
    if reps:
        gens, n = reps[0].generators, reps[0].n
        c0 = reps[0].env.get("c")
        for r in reps[1:]:
            if r.generators != gens or r.n != n or r.env.get("c") != c0:
                raise UsageError("representations come from mixed presentations")
    try:
        # entries are finite, so an inf or NaN can only come from an overflow
        with np.errstate(over="raise"):
            classes = classify(reps, args.tol)
    except (OverflowError, FloatingPointError):
        raise UsageError("--input: values too large, the arithmetic overflows") from None
    payload = {
        "count": len(reps),
        "classes": [
            {
                "representative": cls.representative,
                "members": sorted(cls.members),
                "conjugators": {
                    str(i): [[_complex_to_pair(z) for z in row] for row in q]
                    for i, q in sorted(cls.conjugators.items())
                },
            }
            for cls in classes
        ],
    }
    _emit_json(payload, args.output)
    return 0


def cmd_sigma(args) -> int:
    for name in ("a", "b", "c"):
        if not np.isfinite(getattr(args, name)):
            raise UsageError(f"--{name} must be finite")
    params = sklyanin.SklyaninParams(args.a, args.b, args.c)
    relaxed = False
    try:
        params.validate()
    except sklyanin.InvalidParametersError:
        relaxed = True
    try:
        order = sklyanin.sigma_order(
            params, args.max_order, trials=args.trials, seed=args.seed, strict=False
        )
        rng = np.random.default_rng(args.seed)
        pt = sklyanin.curve_sample(params, rng, strict=False)
        trace = [pt]
        for _ in range(min(args.max_order, 8)):
            try:
                pt = sklyanin.sigma(params, pt, strict=False)
            except sklyanin.DegeneratePointError:
                break
            trace.append(pt)
    except sklyanin.CurveSampleError as exc:
        raise UsageError(str(exc))
    payload = {
        "a": _complex_to_pair(args.a),
        "b": _complex_to_pair(args.b),
        "c": _complex_to_pair(args.c),
        "max_order": args.max_order,
        "trials": args.trials,
        "seed": args.seed,
        "order": order,
        "validity_relaxed": relaxed,
        "trace": [[_complex_to_pair(z) for z in (p.u, p.v, p.w)] for p in trace],
    }
    if args.format == "human":
        lines = [
            "order: " + (str(order) if order is not None else f"exceeds {args.max_order}")
        ]
        if relaxed:
            lines.append("note: parameters fail the validity inequalities; checks relaxed")
        lines.append("sampled-point trace:")
        for p in trace:
            lines.append(f"  [{_fmt_c(p.u)} : {_fmt_c(p.v)} : {_fmt_c(p.w)}]")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit_json(payload, args.output)
    return 0


def cmd_solve(args) -> int:
    jordan = {"one": "one_block", "two": "two_blocks"}[args.jordan]
    if args.algebra == "sklyanin" and args.c is None:
        raise UsageError("--c is required for the sklyanin algebra")
    if args.algebra == "skew" and args.c is not None:
        raise UsageError("--c does not apply to the skew algebra")
    task = solver.SolveTask(
        algebra=args.algebra,
        jordan_kind=jordan,
        c=args.c,
        num_starts=args.starts,
        seed=args.seed,
        slice_count=args.slices,
    )
    report = solver.solve_reps(task, tol=args.tol)
    _emit_json(solver.report_to_json(report), args.output)
    return 0


def cmd_slice(args) -> int:
    m = re.match(r"^([^:]+):([^:]+):(\d+)$", args.grid)
    if m is None:
        raise UsageError(f"malformed grid {args.grid!r}, expected min:max:steps")
    try:
        lo, hi, steps = float(m.group(1)), float(m.group(2)), int(m.group(3))
    except ValueError:
        raise UsageError(f"malformed grid {args.grid!r}") from None
    try:
        csv = sklyanin.xc_slice(args.c, args.u1, (lo, hi, steps))
    except OverflowError:
        raise UsageError("--c, --u1, --grid: values too large, the arithmetic overflows") from None
    _emit(csv, args.output)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="sklyrep",
        description=(
            "Construct, verify, classify and locate matrix representations of "
            "the Sklyanin algebras S(1,1,c) and of C_{-1}[x,y]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "human"), seeded=False, tol=True):
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_RTOL)
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("verify", help="check one representation against its relations")
    p.add_argument("--rep", help="JSON representation file")
    p.add_argument("--family", help="family id (t1f1..t1f5, t2f1..t2f6, t3f1, t3f2, t4f1..t4f4)")
    p.add_argument("--set", help="comma-separated parameter assignments, e.g. c=2,z4=1")
    p.add_argument("--branch", choices=("principal", "negated"), default="principal")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="group representations up to equivalence")
    p.add_argument("--input", required=True, help="JSON file with a list of representations")
    common(p, formats=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sigma", help="order of the translation automorphism")
    p.add_argument("--a", type=parse_complex, required=True)
    p.add_argument("--b", type=parse_complex, required=True)
    p.add_argument("--c", type=parse_complex, required=True)
    p.add_argument("--max-order", type=int, default=8, dest="max_order")
    p.add_argument("--trials", type=int, default=10)
    common(p, seeded=True, tol=False)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("solve", help="rediscover 2-dimensional solutions numerically")
    p.add_argument("--algebra", choices=("sklyanin", "skew"), required=True)
    p.add_argument("--c", type=parse_complex, default=None)
    p.add_argument("--jordan", choices=("one", "two"), required=True)
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--slices", type=int, default=None)
    common(p, formats=None, seeded=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("slice", help="CSV slice of the center variety at fixed u1")
    p.add_argument("--c", type=parse_complex, required=True)
    p.add_argument("--u1", type=float, required=True)
    p.add_argument("--grid", required=True, help="min:max:steps")
    common(p, formats=None, tol=False)
    p.set_defaults(func=cmd_slice)

    return parser


_VALUE_FLAGS = {
    "--a", "--b", "--c", "--u1", "--grid", "--set", "--tol", "--seed",
    "--starts", "--slices", "--max-order", "--trials",
}


def _fold_argv(argv):
    """Join value flags with values that begin with '-' (negative numbers,
    complex literals, grids) so argparse does not read them as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_fold_argv(list(argv)))
    # only the randomized commands take a seed, so only they read the variable
    if "seed" in vars(args) and args.seed is None:
        try:
            args.seed = _default_seed()
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (
        UsageError,
        sklyanin.ConstraintError,
        sklyanin.DenominatorError,
        sklyanin.InvalidParametersError,
        KeyError,
        FileNotFoundError,
        json.JSONDecodeError,
        ValueError,
    ) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
