"""One op per workload: the calls into kunzcone, each inside a span.

``run_<workload>(inp, tr)`` is the timed part and returns raw results;
``summarize_<workload>(raw)`` turns them into plain JSON data outside
the timed region.  With a real tracer (``tr.on``) an op also takes the
per-layer probes: sizes, an extra ``integer_rank`` call on a face's
tight rows, the glued semigroup's own ``kunz_poset_of``, and a CLI
child process (plus ``run_suite`` for verify) beside each in-process
``cli.main``.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import kunzcone as kc

SRC = Path(__file__).resolve().parent.parent / "src"


def _poset_sizes(tr, P) -> None:
    tr.count("poset.ground_size", len(P.ground))
    tr.count("poset.relations", len(P.relations()))


# -- face_large ---------------------------------------------------------


def run_face_large(inp, tr):
    with tr.span("semigroup.construct"):
        S = kc.NumericalSemigroup(inp["gens"])
    m = S.multiplicity
    with tr.span("semigroup.coordinates"):
        x = S.coordinates(m, kc.APERY)
    with tr.span("cone.face_of"):
        F = kc.face_of(x)
    with tr.span("cone.dimension"):
        dim = F.dimension
    with tr.span("cone.kunz_subgroup"):
        sub = F.kunz_subgroup
    with tr.span("cone.kunz_poset"):
        P = F.kunz_poset
    with tr.span("poset.covers"):
        covers = P.covers()
    if tr.on:
        tight = F.canonical_tight()
        rows = []
        for i, j in tight:
            row = [0] * (m - 1)
            row[i - 1] += 1
            row[j - 1] += 1
            row[(i + j) % m - 1] -= 1
            rows.append(row)
        with tr.span("linalg.integer_rank"):
            rank = kc.integer_rank(rows, m - 1)
        if rank != m - 1 - dim:
            raise AssertionError(f"integer_rank {rank} disagrees with dimension {dim}")
        tr.count("linalg.rows_in", len(rows))
        tr.count("linalg.rank", rank)
        tr.count("cone.facets_scanned", sum(1 for i in range(1, m) for j in range(i, m)
                                            if (i + j) % m))
        tr.count("cone.tight_facets", len(tight))
        _poset_sizes(tr, P)
    return dim, sub, covers


def summarize_face_large(raw):
    dim, sub, covers = raw
    return {"dimension": dim, "subgroup": list(sub), "covers": [list(c) for c in covers]}


# -- gluing_sweep -------------------------------------------------------


def run_gluing_sweep(inp, tr):
    with tr.span("semigroup.construct"):
        S = kc.NumericalSemigroup(inp["gens"])
    m, alpha, beta = S.multiplicity, inp["alpha"], inp["beta"]
    n = beta * m
    with tr.span("gluing.spec"):
        spec = kc.GluingSpec(S, alpha, beta)
        emb = kc.EmbeddingSpec(n, beta, alpha % n)
    with tr.span("gluing.glue"):
        T = kc.glue(spec)
    with tr.span("gluing.glued_apery"):
        apery = kc.glued_apery(spec)
    with tr.span("gluing.glued_poset"):
        P = kc.glued_poset(spec)
    with tr.span("poset.construct"):
        base = kc.kunz_poset_of(S, m)
    with tr.span("gluing.extend_poset"):
        E = kc.extend_poset(base, emb, augmented=inp["augmented"])
    with tr.span("gluing.factor_monoscopic"):
        triple = kc.factor_monoscopic(T)
    if tr.on:
        # probe: the glued semigroup's own poset, which glued_poset also
        # builds internally, times KunzPoset construction at size beta*m
        with tr.span("poset.construct"):
            oracle_poset = kc.kunz_poset_of(T, n)
        if oracle_poset != P:
            raise AssertionError("kunz_poset_of(glue(spec)) differs from glued_poset")
        tr.count("gluing.augmented", int(inp["augmented"]))
        for poset in (P, base, E):
            _poset_sizes(tr, poset)
    return T, apery, P, E, triple


def summarize_gluing_sweep(raw):
    T, apery, P, E, triple = raw
    return {
        "glued": list(T.generators),
        "apery": apery,
        "poset": [list(p) for p in P.relations()],
        "labels": list(P.labels),
        "extend": [list(p) for p in E.relations()],
        "extend_subgroup": list(E.subgroup),
        "factor": None if triple is None else
        [list(triple[0].generators), triple[1], triple[2]],
    }


# -- semigroup_ega ------------------------------------------------------


def run_semigroup_ega(inp, tr):
    # write part: build, Kunz round trip, family constructor
    with tr.span("semigroup.construct"):
        S = kc.NumericalSemigroup(inp["gens"])
    m = S.multiplicity
    with tr.span("semigroup.coordinates"):
        z = S.coordinates(m, kc.KUNZ)
    with tr.span("semigroup.from_kunz_tuple"):
        back = kc.from_kunz_tuple(m, z)
    with tr.span("arithmetic.ega_new"):
        params, E = kc.ega_new(*inp["ega"])
    # read part: membership batches and closed-form queries
    limit, ega_limit = inp["limit"], inp["ega_limit"]
    with tr.span("semigroup.contains", calls=limit + 1):
        member = [S.contains(v) for v in range(limit + 1)]
    with tr.span("arithmetic.ega_contains", calls=ega_limit + 1):
        ega_member = [kc.ega_contains(params, v) for v in range(ega_limit + 1)]
    with tr.span("semigroup.frobenius"):
        frob = S.frobenius()
    with tr.span("arithmetic.ega_frobenius"):
        ega_frob = kc.ega_frobenius(params)
    with tr.span("semigroup.apery_set"):
        apery2 = S.apery_set(inp["second"])
    with tr.span("arithmetic.ega_apery_grid"):
        grid = kc.ega_apery_grid(params)
    with tr.span("arithmetic.ega_kunz_poset"):
        poset = kc.ega_kunz_poset(params.a, params.k, params.d)
    rays = None
    if 1 < params.k < params.a - 2:
        with tr.span("arithmetic.ega_rays"):
            rays = kc.ega_rays(params)
    if tr.on:
        _poset_sizes(tr, poset)
    return S, back, E, member, ega_member, frob, ega_frob, apery2, grid, poset, rays


def _bits(flags) -> str:
    return "".join("1" if f else "0" for f in flags)


def summarize_semigroup_ega(raw):
    S, back, E, member, ega_member, frob, ega_frob, apery2, grid, poset, rays = raw
    return {
        "gens": list(S.generators),
        "roundtrip": list(back.generators),
        "ega_gens": list(E.generators),
        "contains": _bits(member),
        "ega_contains": _bits(ega_member),
        "frobenius": frob,
        "ega_frobenius": ega_frob,
        "apery2": apery2,
        "grid": [[spot.x, spot.y, value] for spot, value in grid],
        "ega_poset": [list(p) for p in poset.relations()],
        "rays": None if rays is None else [list(r.entries) for r in rays],
    }


# -- cli_main -----------------------------------------------------------


_CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_main(inp, tr):
    from kunzcone import cli

    argv = inp["argv"]
    buf = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(buf):
        code = cli.main(list(argv))
    if tr.on:
        # probe: the same command as its own process, as a CLI user runs it
        with tr.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "kunzcone.cli", *argv],
                capture_output=True, text=True, env=_CLI_ENV, timeout=120,
            )
        if (proc.returncode, proc.stdout) != (code, buf.getvalue()):
            raise AssertionError(f"the CLI child differs from in-process cli.main for {argv}")
        if argv[0] == "verify":
            args = cli.build_parser().parse_args(argv)
            with tr.span("sweeps.run_suite"):
                kc.run_suite(args.suite, args.seed, max_m=args.max_m, max_beta=args.max_beta)
    return code, buf.getvalue()


def summarize_cli_main(raw):
    code, out = raw
    return {"code": code, "stdout": out}
