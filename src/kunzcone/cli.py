"""Command line front end: JSON tables, DOT diagrams, verification sweeps.

Exit codes: 0 on success, 1 when a computation raises a domain error (the
message goes to stderr verbatim) or a verify suite reports failures, 2 on
usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .arithmetic import (
    ega_detect,
    ega_face_dimension,
    ega_frobenius,
    ega_new,
    ega_rays,
)
from .cone import face_of
from .errors import DomainError
from .gluing import EmbeddingSpec, GluingSpec, beta_ray, glue, glued_poset
from .poset import apery_poset
from .semigroup import APERY, KUNZ, CoordTuple, NumericalSemigroup
from .sweeps import SUITES, run_suite, size_error


# the largest --m, --gens multiplicity, ega a, glue beta * multiplicity and
# embed --n accepted: their tables and JSON output hold that many entries
MAX_MODULUS = MAX_EMBED_N = 10_000
# the largest modulus of a face or poset (face, poset, glue, ega with rays):
# the facet scan, the tight list and the echelon grow as its square
MAX_FACE_N = 1_000


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

    def add_gens(p, required=True, modulus=False):
        p.add_argument("--gens", type=_gens, required=required,
                       help="generators, e.g. 4,13,18")
        if modulus:
            p.add_argument("--m", type=int, help="modulus (default: multiplicity)")

    p_info = sub.add_parser("info", help="summary of a semigroup")
    add_gens(p_info)

    p_apery = sub.add_parser("apery", help="Apery set and Kunz tuple")
    add_gens(p_apery, modulus=True)

    p_poset = sub.add_parser("poset", help="Apery poset as JSON or DOT")
    add_gens(p_poset, modulus=True)
    p_poset.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p_poset.add_argument("--out", help="write output to a file instead of stdout")

    p_face = sub.add_parser("face", help="face data of the Apery tuple")
    add_gens(p_face, modulus=True)

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

    parser.commands = sub.choices  # subcommand name -> its parser, for main
    return parser


class _UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


def _dump(data, code: int = 0) -> tuple[str, int]:
    return _json(data, "\n") + "\n", code


def _json(x, nl: str) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)`` for x at the line break and indent ``nl``,
    with one C join per container (json encodes an indent in Python); keys must be str."""
    if not isinstance(x, (dict, list, tuple)) or not x:  # a leaf, "{}" or "[]"
        return int.__repr__(x) if type(x) is int else json.dumps(x)
    sep = "," + (inner := nl + "  ")
    if isinstance(x, dict):  # encode_basestring_ascii refuses a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + sep.join(items) + nl + "}"
    if (kinds := set(map(type, x))) == {int}:
        items = map(int.__repr__, x)
    elif kinds <= {list, tuple} and len({*map(len, x)}) == 1 and {*map(type, chain(*x))} == {int}:
        row = "[" + inner + "  " + ("," + inner + "  ").join(["%d"] * len(x[0])) + inner + "]"
        items = map(row.__mod__, map(tuple, x))  # rows of ints, all of one length
    else:
        items = [_json(v, inner) for v in x]
    return "[" + inner + sep.join(items) + nl + "]"


def _at_most(value: int, most: int, needs: str) -> None:
    if value > most:
        raise _UsageError(f"{needs} <= {most}")


def _semigroup(args) -> NumericalSemigroup:
    # the least generator is the multiplicity, the length of the Apery table
    if args.gens:
        _at_most(min(args.gens), MAX_MODULUS, f"{args.command} needs --gens with multiplicity")
    return NumericalSemigroup(args.gens)


def _with_modulus(args, most: int) -> tuple[NumericalSemigroup, int]:
    S = _semigroup(args)
    m = S.multiplicity if args.m is None else args.m
    _at_most(m, MAX_MODULUS, f"{args.command} needs --m")
    _at_most(m, most, f"{args.command} needs --m (default: the multiplicity)")
    return S, m


def _cmd_info(args) -> tuple[str, int]:
    S = _semigroup(args)
    return _dump({
        "generators": S.generators,
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius(),
    })


def _cmd_apery(args) -> tuple[str, int]:
    S, m = _with_modulus(args, MAX_MODULUS)
    return _dump({
        "generators": S.generators,
        "modulus": m,
        "apery": S.apery_set(m),
        "kunz": S.coordinates(m, KUNZ).entries,
    })


def _cmd_poset(args) -> tuple[str, int]:
    P = apery_poset(*_with_modulus(args, MAX_FACE_N))
    if args.dot:
        return P.to_dot(), 0
    return _dump(P.to_json_dict())


def _cmd_face(args) -> tuple[str, int]:
    S, m = _with_modulus(args, MAX_FACE_N)
    face = face_of(S.coordinates(m, APERY))
    return _dump({**face.to_json_dict(), "poset": face.kunz_poset.to_json_dict()})


def _cmd_ega(args) -> tuple[str, int]:
    if args.detect:
        if not args.gens:
            raise _UsageError("ega --detect requires --gens")
        params = ega_detect(_semigroup(args))
        return _dump({
            "generators": args.gens,
            "detected": None if params is None else
            {"a": params.a, "h": params.h, "k": params.k, "d": params.d},
        })
    if not args.params or len(args.params) != 4:
        raise _UsageError("ega requires --params a,h,k,d (or --detect --gens ...)")
    a, _, k, _ = args.params
    _at_most(a, MAX_MODULUS, "ega needs --params with a")
    if 1 < k < a - 2:
        _at_most(a, MAX_FACE_N, "ega with rays (1 < k < a - 2) needs a")
    params, S = ega_new(*args.params)
    data = {
        "a": params.a, "h": params.h, "k": params.k, "d": params.d,
        "generators": S.generators,
        "frobenius": ega_frobenius(params),
        "face_dimension": ega_face_dimension(params.a, params.k),
    }
    if 1 < params.k < params.a - 2:
        r, t = ega_rays(params)
        data["rays"] = {"r": r.entries, "t": t.entries}
    return _dump(data)


def _cmd_glue(args) -> tuple[str, int]:
    S = _semigroup(args)
    m = S.multiplicity
    n = args.beta * m
    _at_most(n, MAX_FACE_N, "glue needs --beta times the multiplicity")
    spec = GluingSpec(S, args.alpha, args.beta)
    T = glue(spec)
    F = face_of(S.coordinates(m, APERY))
    P = glued_poset(spec)  # its labels passed T's membership test: they are Ap(T; n)
    return _dump({
        "base": S.generators,
        "alpha": args.alpha,
        "beta": args.beta,
        "glued": T.generators,
        "augmented": not S.contains(args.alpha - m),  # in Ap(S; m) iff alpha - m is not in S
        "face_dims": [F.dimension, face_of(CoordTuple(n, APERY, P.labels)).dimension],
        "base_poset": F.kunz_poset.to_json_dict(),
        "glued_poset": P.to_json_dict(),
    })


def _cmd_embed(args) -> tuple[str, int]:
    _at_most(args.n, MAX_EMBED_N, "embed needs --n")
    spec = EmbeddingSpec(args.n, args.hgen, args.rho)
    return _dump({**spec.to_json_dict(), "beta_ray": beta_ray(spec).entries})


def _cmd_verify(args) -> tuple[str, int]:
    bad = size_error(args.suite, max_m=args.max_m, max_beta=args.max_beta)
    if bad is not None:
        arg, relation, bound = bad
        flag = "--" + arg.replace("_", "-")
        raise _UsageError(f"verify --suite {args.suite} needs {flag} {relation} {bound}")
    report = run_suite(args.suite, args.seed, max_m=args.max_m, max_beta=args.max_beta)
    return _dump(report, 0 if report["failures"] == 0 else 1)


# subcommand x runs _cmd_x
_COMMANDS = {name[5:]: cmd for name, cmd in globals().items() if name.startswith("_cmd_")}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Rewrite ``--gens -3,5`` as ``--gens=-3,5`` (``--params`` alike), since argparse
    takes a value that starts with '-' and is not a plain negative number for a flag,
    so the value check would never see it; split ``--n=--`` (any flag) into ``--n --``,
    a flag with no value, since argparse drops a '--' value and sets n to []."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--gens", "--params") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        elif arg[:2] == "--" and arg.partition("=")[2] == "--":
            out += [arg[:-3], "--"]
        else:
            out.append(arg)
    return out


# built once per process: parse_args fills a new Namespace on every call
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    if sub := argv and _PARSER.commands.get(argv[0]):  # one pass, by the subcommand's parser
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if not sub or extra:  # help, an odd first token or leftovers: _PARSER's exit and text
        args = _PARSER.parse_args(argv)
    try:
        out, code = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
