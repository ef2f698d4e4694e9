"""Seeded inputs for each workload; standard library and the oracle only.

The same (workload, seed) always gives the same list.  Sizes are laid
out on a fixed schedule and only the concrete generators come from the
seed, so every seed spends its time on the same mix of sizes; prefixes
of each list are spread over that mix because runs are timed and may
stop part way through it.
"""

from __future__ import annotations

import random
from math import gcd

from oracle import Members, dp, ega_generators

WORKLOADS = ("face_large", "gluing_sweep", "semigroup_ega", "cli_main")

_GOLDEN = 0.6180339887498949

# membership batch per semigroup_ega op: [0, F + BATCH * m]; sized so
# the reads take about as long as the writes on this workload
BATCH = 60


def _spread(count: int) -> list[int]:
    """0..count-1 reordered so that every prefix is spread over the range."""
    return sorted(range(count), key=lambda i: (i * _GOLDEN) % 1.0)


def random_cofinite(rng: random.Random, m: int, extra: int, top: int) -> list[int]:
    """m plus `extra` distinct values in (m, top), redrawn until gcd 1."""
    while True:
        gens = sorted({m} | {rng.randint(m + 1, top - 1) for _ in range(extra)})
        g = 0
        for v in gens:
            g = gcd(g, v)
        if g == 1:
            return gens


def _minimal_cofinite(rng: random.Random, m: int, k: int) -> list[int]:
    """m and k more values below 3m, all of them minimal generators."""
    while True:
        gens = random_cofinite(rng, m, k, 3 * m)
        if len(gens) == k + 1 and all(
            not dp.dp_members([h for h in gens if h != g], g)[g] for g in gens
        ):
            return gens


def face_large(rng: random.Random, tiny: bool) -> list[dict]:
    # Ops at m = 100 with one extra generator take up to 1.5 s, and their
    # cost varies 3x with the generator; capping m at 70 keeps one pass
    # over the 246 inputs near 12 s.
    lo, hi, rounds = (10, 16, 1) if tiny else (30, 70, 2)
    strata = [(m, k) for m in range(lo, hi + 1) for k in (1, 2, 3)]
    order = _spread(len(strata))
    return [
        {"gens": _minimal_cofinite(rng, m, k)}
        for _ in range(rounds) for m, k in (strata[i] for i in order)
    ]


def gluing_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    # Each round takes one spec from every (m, k, beta) stratum: a fresh
    # base with multiplicity m and k extra generators, and the valid
    # alpha at a scheduled position among all valid alphas of the base
    # for that beta.  The mix of base sizes, betas and alpha positions is
    # thus the same for every seed; the seed picks the bases.
    rounds, max_beta = (1, 3) if tiny else (32, 5)
    strata = [(m, k, beta) for m in range(3, 11) for k in (1, 2, 3)
              for beta in range(2, max_beta + 1)]
    order = _spread(len(strata))
    specs = []
    for r in range(rounds):
        for i in order:
            m, k, beta = strata[i]
            gens = _minimal_cofinite(rng, m, min(m - 1, k))
            members = Members(gens)
            valid = [a for a in range(1, members.frobenius() + 2 * m + 1)
                     if a in members and a not in gens and gcd(a, beta) == 1]
            alpha = valid[int(len(valid) * ((r * len(order) + i) * _GOLDEN % 1.0))]
            specs.append({"gens": gens, "alpha": alpha, "beta": beta,
                          "augmented": alpha in set(members.apery(m))})
    return specs


def _ega_params(rng: random.Random, a: int, rays: bool) -> tuple[int, int, int, int]:
    """Valid (a, h, k, d) with a minimal presentation, with 1 < k < a-2
    (the regime that has rays) or not."""
    while True:
        h = rng.randint(1, 3)
        k = rng.randint(2, a - 3) if rays else rng.choice((1, a - 2, a - 1))
        d = rng.choice((1, -1)) * rng.randint(1, 2 * a)
        if gcd(a, d) != 1 or a * h + k * d <= a or a * h + d <= 0:
            continue
        gens = ega_generators(a, h, k, d)
        if Members(gens).minimal_generators() == gens:
            return a, h, k, d


def semigroup_ega(rng: random.Random, tiny: bool) -> list[dict]:
    # m, a, the generator count and the rays regime (3 ops in 4) follow the
    # schedule; the seed picks the values.
    count, (m_lo, m_span), (a_lo, a_span) = (
        (4, (20, 10), (8, 4)) if tiny else (384, (50, 200), (20, 40))
    )
    out = []
    for i in _spread(count):
        m = m_lo + round(m_span * ((i * _GOLDEN) % 1.0))
        a = a_lo + round(a_span * ((i * _GOLDEN + 0.5) % 1.0))
        extra = m // 8 + round((m // 3 - m // 8) * ((i * _GOLDEN + 0.25) % 1.0))
        gens = random_cofinite(rng, m, extra, 3 * m)
        params = _ega_params(rng, a, rays=i % 4 != 3)
        ega_members = Members(ega_generators(*params))
        out.append({
            "gens": gens,
            "second": gens[1],
            "limit": Members(gens).frobenius() + BATCH * m,
            "ega": list(params),
            "ega_limit": ega_members.frobenius() + BATCH * a,
        })
    return out


def _embed_args(rng: random.Random) -> list[str]:
    while True:
        n = rng.randint(4, 24)
        betas = [b for b in range(2, n) if n % b == 0 and n // b >= 2]
        if betas:
            break
    beta = rng.choice(betas)
    units = [u for u in range(1, n // beta) if gcd(u, n // beta) == 1]
    rho = rng.choice([r for r in range(1, n) if gcd(r % beta, beta) == 1])
    return ["--n", str(n), "--hgen", str(beta * rng.choice(units)), "--rho", str(rho)]


def _glue_args(rng: random.Random) -> list[str]:
    while True:
        m = rng.randint(3, 6)
        members = Members(random_cofinite(rng, m, rng.randint(1, 2), 3 * m))
        gens = members.minimal_generators()
        beta = rng.randint(2, 4)
        alphas = [
            x for x in range(1, members.frobenius() + 2 * m + 1)
            if x in members and x not in gens and gcd(x, beta) == 1
        ]
        if alphas:
            return ["--gens", _csv(gens), "--alpha", str(rng.choice(alphas)),
                    "--beta", str(beta)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def cli_main(rng: random.Random, tiny: bool) -> list[dict]:
    # A round runs the seven quick subcommands four times and verify
    # once.  In process a quick call takes 1-6 ms and a verify call
    # 100-200 ms, which varies about 2x with its seed; 48 rounds average
    # that out of ops_per_s, and at 1 call in 29 the verify calls stay
    # above the 90th percentile instead of straddling it.
    def gens():
        m = rng.randint(3, 8)
        return ["--gens", _csv(random_cofinite(rng, m, rng.randint(1, 3), 3 * m))]

    out = []
    for r in range(1 if tiny else 48):
        for _ in range(4):
            out += [
                {"argv": ["info", *gens()]},
                {"argv": ["apery", *gens()]},
                {"argv": ["poset", *gens()]},
                {"argv": ["face", *gens()]},
                {"argv": ["ega", "--params",
                          _csv(_ega_params(rng, rng.randint(5, 9), rng.random() < 0.5))]},
                {"argv": ["glue", *_glue_args(rng)]},
                {"argv": ["embed", *_embed_args(rng)]},
            ]
        seed = str(rng.randint(0, 10**6))
        suite = ["roundtrip", "--seed", seed, "--max-m", "8"] if r % 2 == 0 else \
            ["embedding", "--seed", seed]
        out.append({"argv": ["verify", "--suite", *suite]})
    return out


def make(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](rng, tiny)


def warmup(workload: str) -> list[dict]:
    """Fixed small inputs run before timing; part of setup_s."""
    return make(workload, 0, tiny=True)[: 1 if workload == "cli_main" else 3]
