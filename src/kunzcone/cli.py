"""Command line front end: JSON tables, DOT diagrams, verification sweeps.

Exit codes: 0 on success, 1 when a computation raises a domain error (the
message goes to stderr verbatim) or a verify suite reports failures, 2 on
usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys

from .arithmetic import (
    EgaParams,
    ega_detect,
    ega_face_dimension,
    ega_frobenius,
    ega_new,
    ega_rays,
)
from .cone import face_of
from .errors import DomainError
from .gluing import EmbeddingSpec, GluingSpec, beta_ray, glue, glued_poset
from .poset import apery_poset, kunz_poset_of
from .semigroup import APERY, KUNZ, NumericalSemigroup
from .sweeps import SUITES, run_suite


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _gens(text: str) -> list[int]:
    gens = _int_list(text)
    if any(g < 1 for g in gens):
        raise argparse.ArgumentTypeError(f"generators must be positive, got {text!r}")
    return gens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kunzcone",
        description="Numerical semigroups, Kunz posets, group-cone faces, "
        "arithmetic-like families, and monoscopic gluings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gens(p, required=True):
        p.add_argument("--gens", type=_gens, required=required,
                       help="generators, e.g. 4,13,18")

    p_info = sub.add_parser("info", help="summary of a semigroup")
    add_gens(p_info)

    p_apery = sub.add_parser("apery", help="Apery set and Kunz tuple")
    add_gens(p_apery)
    p_apery.add_argument("--m", type=int, help="modulus (default: multiplicity)")

    p_poset = sub.add_parser("poset", help="Apery poset as JSON or DOT")
    add_gens(p_poset)
    p_poset.add_argument("--m", type=int, help="modulus (default: multiplicity)")
    p_poset.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p_poset.add_argument("--out", help="write output to a file instead of stdout")

    p_face = sub.add_parser("face", help="face data of the Apery tuple")
    add_gens(p_face)
    p_face.add_argument("--m", type=int, help="modulus (default: multiplicity)")

    p_ega = sub.add_parser("ega", help="arithmetic-like family closed forms")
    p_ega.add_argument("--params", type=_int_list, help="a,h,k,d")
    p_ega.add_argument("--detect", action="store_true",
                       help="recognize parameters from --gens")
    add_gens(p_ega, required=False)

    p_glue = sub.add_parser("glue", help="monoscopic gluing <alpha> + beta*S")
    add_gens(p_glue)
    p_glue.add_argument("--alpha", type=int, required=True)
    p_glue.add_argument("--beta", type=int, required=True)

    p_embed = sub.add_parser("embed", help="cone embedding tables and beta ray")
    p_embed.add_argument("--n", type=int, required=True, help="ambient modulus")
    p_embed.add_argument("--hgen", type=int, required=True, help="subgroup generator")
    p_embed.add_argument("--rho", type=int, required=True, help="quotient generator")

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-m", type=int, default=15, dest="max_m")
    p_verify.add_argument("--max-beta", type=int, default=5, dest="max_beta")

    return parser


class _UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _semigroup(args) -> NumericalSemigroup:
    return NumericalSemigroup(args.gens)


def _modulus(args, S: NumericalSemigroup) -> int:
    return args.m if args.m is not None else S.multiplicity


def _cmd_info(args) -> str:
    S = _semigroup(args)
    return _dump({
        "generators": list(S.generators),
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius(),
    })


def _cmd_apery(args) -> str:
    S = _semigroup(args)
    m = _modulus(args, S)
    return _dump({
        "generators": list(S.generators),
        "modulus": m,
        "apery": S.apery_set(m),
        "kunz": list(S.coordinates(m, KUNZ).entries),
    })


def _cmd_poset(args) -> str:
    S = _semigroup(args)
    P = apery_poset(S, _modulus(args, S))
    if args.dot:
        return P.to_dot()
    return _dump(P.to_json_dict())


def _cmd_face(args) -> str:
    S = _semigroup(args)
    m = _modulus(args, S)
    face = face_of(S.coordinates(m, APERY))
    data = face.to_json_dict()
    data["poset"] = face.kunz_poset.to_json_dict()
    return _dump(data)


def _cmd_ega(args) -> str:
    if args.detect:
        if not args.gens:
            raise _UsageError("ega --detect requires --gens")
        params = ega_detect(NumericalSemigroup(args.gens))
        return _dump({
            "generators": args.gens,
            "detected": None if params is None else
            {"a": params.a, "h": params.h, "k": params.k, "d": params.d},
        })
    if not args.params or len(args.params) != 4:
        raise _UsageError("ega requires --params a,h,k,d (or --detect --gens ...)")
    params, S = ega_new(*args.params)
    data = {
        "a": params.a,
        "h": params.h,
        "k": params.k,
        "d": params.d,
        "generators": list(S.generators),
        "frobenius": ega_frobenius(params),
        "face_dimension": ega_face_dimension(params.a, params.k),
    }
    if 1 < params.k < params.a - 2:
        r, t = ega_rays(params)
        data["rays"] = {"r": list(r.entries), "t": list(t.entries)}
    return _dump(data)


def _cmd_glue(args) -> str:
    S = NumericalSemigroup(args.gens)
    spec = GluingSpec(S, args.alpha, args.beta)
    T = glue(spec)
    m = S.multiplicity
    n = args.beta * m
    dim_s = face_of(S.coordinates(m, APERY)).dimension
    dim_t = face_of(T.coordinates(n, APERY)).dimension
    return _dump({
        "base": list(S.generators),
        "alpha": args.alpha,
        "beta": args.beta,
        "glued": list(T.generators),
        "augmented": args.alpha in set(S.apery_set(m)),
        "face_dims": [dim_s, dim_t],
        "base_poset": kunz_poset_of(S, m).to_json_dict(),
        "glued_poset": glued_poset(spec).to_json_dict(),
    })


def _cmd_embed(args) -> str:
    spec = EmbeddingSpec(args.n, args.hgen, args.rho)
    data = spec.to_json_dict()
    data["beta_ray"] = list(beta_ray(spec).entries)
    return _dump(data)


def _cmd_verify(args) -> tuple[str, int]:
    report = run_suite(args.suite, args.seed, max_m=args.max_m, max_beta=args.max_beta)
    return _dump(report), (0 if report["failures"] == 0 else 1)


_COMMANDS = {
    "info": _cmd_info,
    "apery": _cmd_apery,
    "poset": _cmd_poset,
    "face": _cmd_face,
    "ega": _cmd_ega,
    "glue": _cmd_glue,
    "embed": _cmd_embed,
}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--gens -3,5`` as ``--gens=-3,5``, and ``--params`` alike.

    argparse takes a value that starts with '-' and is not a plain
    negative number for a flag, so its value check would never see it.
    """
    out = []
    for arg in argv:
        flag = out[-1] if out else None
        if flag in ("--gens", "--params") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
    code = 0
    try:
        if args.command == "verify":
            out, code = _cmd_verify(args)
        else:
            out = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
