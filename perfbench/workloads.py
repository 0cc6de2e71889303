"""The benchmark's workloads: the CLI argument lists one pass runs.

Each workload is a list of ``spinchern`` argv lists.  ``prop2_sweep`` and
``quillen_full_j`` are fixed.  ``restrict_mix`` is a fixed core of
expensive ``restrict`` items, a draw of cheaper ones made from the seed and
the two ``theorem1`` runs, in an order the seed shuffles.  The program only
ever sees the generated argv lists.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

WORKLOADS = ("prop2_sweep", "quillen_full_j", "restrict_mix")

PROP2_ITEMS = [["prop2", "--m", "3..12"]]
QUILLEN_ITEMS = [["quillen", "--n", "6..18", "--full-j", "--format", "json"]]
THEOREM1_ITEMS = [
    ["theorem1", "--convention", convention, "--format", "json"]
    for convention in ("vector-rep", "paper-literal")
]

RESTRICT_N = (14, 15, 16, 17)
RESTRICT_COUNT = 32
SUBTRACT_P = 0.3
LIGHT_SHARE = 0.5

# Toy sizes for the self-test: same shapes, a fraction of a second each.
TOY_PROP2_ITEMS = [["prop2", "--m", "3..5"]]
TOY_QUILLEN_ITEMS = [["quillen", "--n", "6..10", "--full-j", "--format", "json"]]
TOY_RESTRICT_N = (8, 9)
TOY_RESTRICT_COUNT = 4


def generators(n: int) -> list[str]:
    """The generator names ``restrict`` accepts for Spin(n)."""
    m = n // 2
    if n % 2 == 0:
        return [f"lambda{i}" for i in range(1, m - 1)] + ["delta+", "delta-"]
    return [f"lambda{i}" for i in range(1, m)] + ["delta"]


def _circle_shape(n: int, terms: list[tuple[str, int]]) -> tuple[int, int, int]:
    """Coefficients (of z^0, of z^+-2, of z^+-1) of the paper-literal circle
    character, from the closed forms of the paper; independent of the library."""
    m = n // 2
    c0 = c2 = c1 = 0
    for sym, mult in terms:
        if sym.startswith("lambda"):
            i = int(sym[len("lambda"):])
            c0 += mult * 2**i * math.comb(m - 1, i)
            c2 += mult * 2 ** (i - 1) * math.comb(m - 1, i - 1)
        else:
            c1 += mult * 2 ** (m - 2 if n % 2 == 0 else m - 1)
    return c0, c2, c1


def _format(terms: list[tuple[str, int]]) -> str:
    parts = []
    for k, (sym, mult) in enumerate(terms):
        body = sym if abs(mult) == 1 else f"{abs(mult)}*{sym}"
        if k == 0:
            parts.append(body)
        else:
            parts.append(("- " if mult < 0 else "+ ") + body)
    return " ".join(parts)


def _population(ns: tuple[int, ...]) -> tuple[list[float], list[list[str]]]:
    """Every restrict item the random draw can produce, sorted by cost key,
    with the cumulative probability of the draw up to each item.

    The draw: n uniform over ``ns``; 1-3 distinct generators in random
    order; multiplicities uniform over 1-3; each term after the first
    subtracted with probability 0.3.  The cost key is the closed-form size
    of the Chern computation: for each moving weight of multiplicity a, a
    coefficients of up to ~a bits over min(a, L) powers of u, plus L^2 for
    the series inversion a virtual item needs (L = 2^(m+1), the cutoff).
    """
    entries = []
    for n in ns:
        gens = generators(n)
        cutoff = 2 ** (n // 2 + 1)
        for k in (1, 2, 3):
            p_pick = 1.0 / (len(ns) * 3 * math.perm(len(gens), k) * 3**k)
            for syms in itertools.permutations(gens, k):
                for mults in itertools.product((1, 2, 3), repeat=k):
                    for signs in itertools.product((1, -1), repeat=k - 1):
                        p = p_pick
                        for s in signs:
                            p *= SUBTRACT_P if s < 0 else 1 - SUBTRACT_P
                        terms = [
                            (sym, mult * sign)
                            for sym, mult, sign in zip(syms, mults, (1,) + signs)
                        ]
                        c0, c2, c1 = _circle_shape(n, terms)
                        key = sum(abs(a) * min(abs(a), cutoff) for a in (c2, c1))
                        if min(c0, c2, c1) < 0:
                            key += cutoff * cutoff
                        expr = _format(terms)
                        argv = ["restrict", "--n", str(n), "--cutoff", str(cutoff),
                                "--format", "json", expr]
                        entries.append((key, n, expr, p, argv))
    entries.sort(key=lambda e: e[:3])
    cumulative = list(itertools.accumulate(e[3] for e in entries))
    return cumulative, [e[4] for e in entries]


def restrict_core(ns: tuple[int, ...]) -> list[list[str]]:
    """The fixed, expensive part of a restrict_mix pass: for each n, every
    generator at multiplicity 3, the virtual difference of lambda1 and three
    times the top lambda (a series inversion over big integers), and three
    times a spinor plus three times the next lambda (both moving weights)."""
    out = []
    for n in ns:
        gens = generators(n)
        lambdas = [g for g in gens if g.startswith("lambda")]
        exprs = [f"3*{g}" for g in gens]
        exprs += [f"lambda1 - 3*{lambdas[-1]}", f"3*{gens[-1]} + 3*{lambdas[-2]}"]
        cutoff = str(2 ** (n // 2 + 1))
        out += [["restrict", "--n", str(n), "--cutoff", cutoff, "--format", "json", e]
                for e in exprs]
    return out


def restrict_draw(rng: random.Random, count: int, ns: tuple[int, ...]) -> list[list[str]]:
    """``count`` random restrict items drawn by stratified sampling.

    The draw is restricted to the cheaper ``LIGHT_SHARE`` of its own
    probability, ordered by the cost key (about 0.1 s an item at most);
    that part is split into ``count`` slices of equal probability and one
    item is drawn from each.  The expensive tail is covered by
    :func:`restrict_core` instead: drawn at random, its items vary by a
    factor of 100 in cost, and a plain draw of 32 items took 2.6-6.9 s
    depending on the seed.
    """
    cumulative, argvs = _population(ns)
    span = cumulative[-1] * LIGHT_SHARE
    drawn = []
    for stratum in range(count):
        u = (stratum + rng.random()) / count * span
        drawn.append(argvs[bisect.bisect_left(cumulative, u)])
    return drawn


def restrict_items(seed: int, count: int, ns: tuple[int, ...]) -> list[list[str]]:
    """One restrict_mix pass: core, seeded draw and theorem1, in seeded order."""
    rng = random.Random(seed)
    out = restrict_core(ns) + restrict_draw(rng, count, ns) + THEOREM1_ITEMS
    rng.shuffle(out)
    return out


def items(workload: str, seed: int, toy: bool = False) -> list[list[str]]:
    """The argv lists of one pass of ``workload``."""
    if workload == "prop2_sweep":
        return TOY_PROP2_ITEMS if toy else PROP2_ITEMS
    if workload == "quillen_full_j":
        return TOY_QUILLEN_ITEMS if toy else QUILLEN_ITEMS
    if workload == "restrict_mix":
        if toy:
            return restrict_items(seed, TOY_RESTRICT_COUNT, TOY_RESTRICT_N)
        return restrict_items(seed, RESTRICT_COUNT, RESTRICT_N)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
