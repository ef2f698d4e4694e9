"""Expected op outputs from the oracle, and the comparison with what ran.

``problem(workload, inp, got)`` returns None when the summary an op
produced is right and a one-line reason otherwise.  Expected values are
built from ``oracle`` only; the CLI's expected stdout is the oracle data
written with the CLI's documented JSON layout (sorted keys, indent 2).
"""

from __future__ import annotations

import json
from math import gcd

import oracle
from oracle import Members


def _first_difference(expected: dict, got: dict) -> str | None:
    for key in expected:
        if got.get(key) != expected[key]:
            return f"{key}: expected {str(expected[key])[:80]}, got {str(got.get(key))[:80]}"
    return None


def face_large(inp, got):
    members = Members(inp["gens"])
    m = inp["gens"][0]
    return _first_difference({
        "dimension": oracle.face_dimension(members.apery(m)),
        # the semigroup's own tuple is positive off 0, so no class is pinned
        "subgroup": [0],
        "covers": members.covers(m),
    }, got)


def gluing_sweep(inp, got):
    alpha, beta = inp["alpha"], inp["beta"]
    m = inp["gens"][0]
    n = beta * m
    glued = Members([alpha] + [beta * g for g in inp["gens"]])
    relations = glued.poset_relations(n)
    apery = glued.apery(n)
    reason = _first_difference({
        "glued": glued.minimal_generators(),
        "apery": sorted(apery),
        "poset": relations,
        "labels": apery,
        "extend": relations,
        "extend_subgroup": [0],
    }, got)
    if reason is None:
        reason = _factor_problem(got["factor"], glued.minimal_generators())
    return reason


def _factor_problem(factor, glued_gens) -> str | None:
    """Any valid factorization is accepted, not only the one glued."""
    if factor is None:
        return "factor: no factorization found"
    base, alpha, beta = factor
    members = Members(base)
    if members.minimal_generators() != base:
        return f"factor: base {base} is not minimally generated"
    if beta < 2 or gcd(alpha, beta) != 1 or alpha not in members or alpha in base:
        return f"factor: ({base}, {alpha}, {beta}) is not a gluing"
    if sorted([alpha] + [beta * g for g in base]) != glued_gens:
        return f"factor: ({base}, {alpha}, {beta}) does not glue back"
    return None


def semigroup_ega(inp, got):
    members = Members(inp["gens"])
    a, h, k, d = inp["ega"]
    ega = Members(oracle.ega_generators(a, h, k, d))
    ega_apery = ega.apery(a)
    gens = members.minimal_generators()
    grid = []
    for pos in range(1, a):
        grid.append([(pos - 1) // k + 1, (pos - 1) % k + 1, ega_apery[pos * d % a]])
    return _first_difference({
        "gens": gens,
        "roundtrip": gens,
        "ega_gens": ega.minimal_generators(),
        "contains": members.bits(inp["limit"]),
        "ega_contains": ega.bits(inp["ega_limit"]),
        "frobenius": members.frobenius(),
        "ega_frobenius": ega.frobenius(),
        "apery2": sorted(members.apery(inp["second"])),
        "grid": grid,
        "ega_poset": ega.poset_relations(a),
        "rays": list(oracle.ega_rays(a, h, k, d)) if 1 < k < a - 2 else None,
    }, got)


def cli_main(inp, got):
    expected = {"code": 0, "stdout": cli_stdout(inp["argv"])}
    return _first_difference(expected, got)


# -- CLI goldens --------------------------------------------------------


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _ints(text):
    return [int(v) for v in text.split(",")]


def _poset_json(modulus, relations, labels=None):
    data = {"modulus": modulus, "subgroup": [0], "relations": relations}
    if labels is not None:
        data["labels"] = {str(c): v for c, v in enumerate(labels)}
    return data


def _cli_data(argv):
    cmd = argv[0]
    if cmd == "verify":
        suite, seed = _flag(argv, "--suite"), int(_flag(argv, "--seed"))
        # roundtrip makes 3 checks on each of 200 semigroups, embedding 4
        # on each of 25 specs
        checks = {"roundtrip": 600, "embedding": 100}[suite]
        return {"suite": suite, "seed": seed, "checks": checks, "failures": 0,
                "failed_checks": []}
    if cmd == "embed":
        n, h_gen, rho = (int(_flag(argv, f)) for f in ("--n", "--hgen", "--rho"))
        beta = gcd(n, h_gen % n)
        decomposition = {}
        for g in range(n):
            b = next(b for b in range(beta) if (g - b * rho) % n % beta == 0)
            decomposition[str(g)] = [(g - b * rho) % n, b]
        return {"n": n, "h_gen": h_gen % n, "rho": rho % n, "beta": beta,
                "sub_modulus": n // beta, "subgroup": list(range(0, n, beta)),
                "decomposition": decomposition,
                "beta_ray": [decomposition[str(g)][1] for g in range(n)]}
    if cmd == "ega":
        a, h, k, d = _ints(_flag(argv, "--params"))
        members = Members(oracle.ega_generators(a, h, k, d))
        data = {"a": a, "h": h, "k": k, "d": d,
                "generators": members.minimal_generators(),
                "frobenius": members.frobenius(),
                "face_dimension": oracle.face_dimension(members.apery(a))}
        if 1 < k < a - 2:
            r, t = oracle.ega_rays(a, h, k, d)
            data["rays"] = {"r": r, "t": t}
        return data
    members = Members(_ints(_flag(argv, "--gens")))
    gens = members.minimal_generators()
    m = gens[0]
    apery = members.apery(m)
    if cmd == "info":
        return {"generators": gens, "multiplicity": m,
                "embedding_dimension": len(gens), "frobenius": members.frobenius()}
    if cmd == "apery":
        return {"generators": gens, "modulus": m, "apery": sorted(apery),
                "kunz": [(apery[i] - i) // m for i in range(m)]}
    if cmd == "poset":
        return _poset_json(m, members.poset_relations(m), apery)
    if cmd == "face":
        tight = oracle.tight_pairs(apery)
        return {"modulus": m, "tight": [list(p) for p in tight],
                "dimension": oracle.face_dimension(apery), "subgroup": [0],
                "poset": _poset_json(m, members.poset_relations(m))}
    if cmd == "glue":
        alpha, beta = int(_flag(argv, "--alpha")), int(_flag(argv, "--beta"))
        n = beta * m
        glued = Members([alpha] + [beta * g for g in gens])
        glued_apery = glued.apery(n)
        return {"base": gens, "alpha": alpha, "beta": beta,
                "glued": glued.minimal_generators(),
                "augmented": alpha in set(apery),
                "face_dims": [oracle.face_dimension(apery),
                              oracle.face_dimension(glued_apery)],
                "base_poset": _poset_json(m, members.poset_relations(m)),
                "glued_poset": _poset_json(n, glued.poset_relations(n), glued_apery)}
    raise ValueError(f"no golden for {cmd}")


def cli_stdout(argv) -> str:
    return json.dumps(_cli_data(argv), sort_keys=True, indent=2) + "\n"


def problem(workload: str, inp: dict, got: dict) -> str | None:
    try:
        return globals()[workload](inp, got)
    except oracle.OracleError as exc:
        return f"oracle: {exc}"
