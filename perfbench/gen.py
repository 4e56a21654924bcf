"""Seeded input generator for the benchmark.

Everything the program under test receives is made here from the workload
seed: NFA and word texts, window sizes and the expected answers the worker
checks against. The module never imports ``qds``: the expected verdicts come
from the small, independent decision code below (a square-graph cycle test
and a row-by-row check of the (k,l) definition), so they are an oracle for
the program rather than a copy of it.

The same (workload, seed) pair always yields the same inputs.
"""

from __future__ import annotations

import itertools
import random

LETTERS = "abc"

# compile: (states, alphabet size, window k). Every slot has 0.75k-1.3k
# (state, window) rows, so items cost about the same and a run compiles
# a few hundred of them; the corpus is larger than a run, so each item runs
# about once and the tail (a few of the costliest items) hardly depends on
# the seed.
COMPILE_SLOTS = (
    (4, 2, 8), (5, 2, 8), (6, 2, 7), (7, 2, 7), (8, 2, 7),
    (4, 3, 5), (5, 3, 5),
)
COMPILE_FAMILY = ((2, 8), (3, 8), (4, 7))  # (K of L_K, window k)
COMPILE_ROUNDS = 48  # copies of the slot list, each with fresh automata
COMPILE_KMIN_CAP = 4  # random NFAs need a minimal window at most this
ORACLE_WORDS = 24  # words per compiled item checked against the NFA

STREAM_K = 6  # L_6 compiled at its minimal window, and the hand-built S_6
STREAM_RANDOM = (6, 2)  # states, alphabet size of the random structure
STREAM_LONG = 4096
STREAM_SHORT = 64  # the long word cut into 64 short words
STREAM_JOBS = 24  # distinct jobs; each streams one word through every structure

DECIDE_STATES = 5
DECIDE_WINDOWS = (18, 19, 20)
DECIDE_PER_SLOT = 8  # per window: half checked at l = 1, half at l = k
DECIDE_SMALL_K = 6  # backend cross-check against the reference scan
MINIMAL_FAMILY = (8, 9, 10, 11, 12)
MINIMAL_COPIES = 2

WARMUP_K = 2  # the small L_K every worker compiles during set-up


# --- independent analysis ---------------------------------------------------


def succ_masks(spec: dict) -> list[list[int]]:
    """succ[symbol index][state index] = bitmask of successor states."""
    ix = {q: i for i, q in enumerate(spec["states"])}
    sx = {a: i for i, a in enumerate(spec["alphabet"])}
    succ = [[0] * len(ix) for _ in sx]
    for p, a, q in spec["transitions"]:
        succ[sx[a]][ix[p]] |= 1 << ix[q]
    return succ


def _image(succ_row: list[int], mask: int) -> int:
    out = 0
    q = 0
    while mask:
        if mask & 1:
            out |= succ_row[q]
        mask >>= 1
        q += 1
    return out


def square_has_cycle(spec: dict) -> bool:
    """True iff the accessible pair graph minus its diagonal has a cycle,
    i.e. no window size makes the automaton unambiguous."""
    n = len(spec["states"])
    succ = [[[r for r in range(n) if mask >> r & 1] for mask in row]
            for row in succ_masks(spec)]
    init = spec["states"].index(spec["initial"])
    edges: dict[tuple[int, int], set[tuple[int, int]]] = {}
    seen = {(init, init)}
    stack = [(init, init)]
    while stack:
        p, q = stack.pop()
        out = edges.setdefault((p, q), set())
        for row in succ:
            out.update((p2, q2) for p2 in row[p] for q2 in row[q])
        for pair in out - seen:
            seen.add(pair)
            stack.append(pair)
    nodes = {v for v in seen if v[0] != v[1]}
    state = dict.fromkeys(nodes, 0)  # 0 new, 1 on stack, 2 done
    for root in nodes:
        if state[root]:
            continue
        path = [(root, iter(sorted(edges[root] & nodes)))]
        state[root] = 1
        while path:
            v, it = path[-1]
            nxt = next(it, None)
            if nxt is None:
                state[v] = 2
                path.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                path.append((nxt, iter(sorted(edges[nxt] & nodes))))
    return False


def row_is_bad(succ: list[list[int]], q: int, w: tuple[int, ...], l: int) -> bool:
    """The (k,l) definition for one row: every split i <= l leaves at least
    two states reached from q by w[:i] that can still read w[i:]."""
    n = len(succ[0])
    k = len(w)
    fronts = [1 << q]
    for sym in w:
        fronts.append(_image(succ[sym], fronts[-1]))
    viable = (1 << n) - 1  # states that can read w[i:]
    for i in range(k, 0, -1):
        if i <= l and bin(fronts[i] & viable).count("1") < 2:
            return False
        row = succ[w[i - 1]]
        viable = sum(1 << p for p in range(n) if row[p] & viable)
    return True


def has_bad_row(spec: dict, k: int, l: int) -> bool:
    succ = succ_masks(spec)
    return any(row_is_bad(succ, q, w, l)
               for q in range(len(spec["states"]))
               for w in itertools.product(range(len(spec["alphabet"])), repeat=k))


def minimal_kl(spec: dict, k_cap: int) -> tuple[int, int] | None:
    """Smallest (k,l) with k <= k_cap, found by checking the definition."""
    for k in range(1, k_cap + 1):
        if not has_bad_row(spec, k, k):
            l = next(l for l in range(1, k + 1) if not has_bad_row(spec, k, l))
            return k, l
    return None


# --- automata ---------------------------------------------------------------


def random_spec(rng: random.Random, n: int, sigma: int, density: float) -> dict:
    states = [str(i) for i in range(n)]
    alphabet = list(LETTERS[:sigma])
    transitions = [
        (p, a, q) for p in states for a in alphabet for q in states
        if rng.random() < density
    ]
    finals = [q for q in states if rng.random() < 0.5]
    return {"alphabet": alphabet, "states": states, "initial": "0",
            "finals": finals, "transitions": transitions}


def dies_within(spec: dict, word: str, limit: int) -> bool:
    """True iff the automaton has no run on some prefix of `word` of at most
    `limit` symbols."""
    succ = succ_masks(spec)
    sx = {a: i for i, a in enumerate(spec["alphabet"])}
    front = 1 << spec["states"].index(spec["initial"])
    for x in word[:limit]:
        front = _image(succ[sx[x]], front)
        if not front:
            return True
    return False


def all_accessible(spec: dict) -> bool:
    succ = succ_masks(spec)
    reach = 1 << spec["states"].index(spec["initial"])
    while True:
        nxt = reach
        for row in succ:
            nxt |= _image(row, reach)
        if nxt == reach:
            return reach == (1 << len(spec["states"])) - 1
        reach = nxt


def lk_spec(K: int, rng: random.Random | None = None) -> dict:
    """L_K = {a,b}* a {a,b}^K: state 0 loops and guesses the marked `a`,
    then K more symbols lead to the final state. With an rng, state names
    and declaration order (and so the program's scan order) are shuffled."""
    names = [f"s{i}" for i in range(K + 2)]
    order = list(range(K + 2))
    if rng is not None:
        rng.shuffle(names)
        rng.shuffle(order)
    transitions = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    transitions += [(j, x, j + 1) for j in range(1, K + 1) for x in "ab"]
    return {"alphabet": ["a", "b"], "states": [names[i] for i in order],
            "initial": names[0], "finals": [names[K + 1]],
            "transitions": [(names[p], x, names[q]) for p, x, q in transitions]}


def nfa_text(spec: dict) -> str:
    lines = ["@type nfa", "@alphabet " + " ".join(spec["alphabet"]),
             "@states " + " ".join(spec["states"]),
             "@initial " + spec["initial"],
             "@final " + " ".join(spec["finals"])]
    lines += [f"{p} {a} {q}" for p, a, q in spec["transitions"]]
    return "\n".join(lines) + "\n"


def admissible(rng: random.Random, n: int, sigma: int, kmin_cap: int,
               want_cycle: bool = False):
    """Draw random NFAs until one has every state accessible, and either a
    diagonal-free cycle in its square (want_cycle) or a minimal pair with
    k <= kmin_cap (not want_cycle). Returns (spec, minimal pair or None)."""
    while True:
        # about one to two successors per (state, symbol): denser automata
        # almost never admit a window, sparser ones are rarely accessible
        spec = random_spec(rng, n, sigma, rng.uniform(0.9, 1.6) / n)
        if not spec["finals"] or not all_accessible(spec):
            continue
        if square_has_cycle(spec):
            if want_cycle:
                return spec, None
            continue
        if want_cycle:
            continue
        pair = minimal_kl(spec, kmin_cap)
        if pair is not None:
            return spec, pair


def random_word(rng: random.Random, alphabet, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


# --- workloads --------------------------------------------------------------


def warmup() -> dict:
    """A fixed, tiny tour of every layer; the same for every seed."""
    return {"nfa": nfa_text(lk_spec(WARMUP_K)), "K": WARMUP_K}


def gen_compile(rng: random.Random) -> list[dict]:
    items = []
    for _ in range(COMPILE_ROUNDS):
        for n, sigma, k in COMPILE_SLOTS:
            spec, pair = admissible(rng, n, sigma, min(COMPILE_KMIN_CAP, k - 1))
            items.append({"nfa": nfa_text(spec), "k": k, "minimal": list(pair),
                          "rows": n * sigma ** k})
        for K, k in COMPILE_FAMILY:
            items.append({"nfa": nfa_text(lk_spec(K, rng)), "k": k,
                          "minimal": [K + 2, 1], "rows": (K + 2) * 2 ** k})
    rng.shuffle(items)
    for item in items:
        alphabet = item["nfa"].splitlines()[1].split()[1:]
        item["words"] = [random_word(rng, "".join(alphabet), rng.randint(0, item["k"] + 6))
                         for _ in range(ORACLE_WORDS)]
    return items


def gen_stream(rng: random.Random) -> dict:
    # the random structure is there for the early-reject path: redraw it
    # until every one of its words dies within a short word's length, so
    # no seed turns it into a second full-length stream
    while True:
        spec, pair = admissible(rng, *STREAM_RANDOM, COMPILE_KMIN_CAP)
        dying = [random_word(rng, "ab", STREAM_LONG) for _ in range(STREAM_JOBS)]
        if all(dies_within(spec, w, STREAM_SHORT) for w in dying):
            break
    structures = [
        {"name": "lk_compiled", "nfa": nfa_text(lk_spec(STREAM_K, rng)),
         "k": STREAM_K + 2, "minimal": [STREAM_K + 2, 1], "lk": STREAM_K},
        {"name": "sk_family", "sk": STREAM_K, "lk": STREAM_K},
        {"name": "random_compiled", "nfa": nfa_text(spec),
         "k": pair[0] + 2, "minimal": list(pair), "lk": None},
    ]
    jobs = [[random_word(rng, "ab", STREAM_LONG), random_word(rng, "ab", STREAM_LONG), w]
            for w in dying]
    return {"structures": structures, "jobs": jobs, "short": STREAM_SHORT}


def gen_decide(rng: random.Random) -> list[dict]:
    """(k,l) checks near the enumeration guard with both square verdicts,
    and minimal-pair searches on L_K, shuffled together."""
    items = []
    for ambiguous in (True, False):
        for k in DECIDE_WINDOWS:
            for j in range(DECIDE_PER_SLOT):
                l = 1 if j % 2 else k
                while True:
                    spec, pair = admissible(rng, DECIDE_STATES, 2, DECIDE_SMALL_K,
                                            want_cycle=ambiguous)
                    # unambiguous at (k, l) by monotonicity from the minimal pair
                    if ambiguous or pair[1] <= l:
                        break
                items.append({"kind": "amb" if ambiguous else "unamb",
                              "nfa": nfa_text(spec), "k": k, "l": l,
                              "rows": DECIDE_STATES * 2 ** k,
                              "small_k": max(DECIDE_SMALL_K, pair[0] if pair else 0)})
    items += [{"kind": "minimal", "nfa": nfa_text(lk_spec(K, rng)), "K": K,
               "minimal": [K + 2, 1], "rows": (K + 2) * 2 ** (K + 2)}
              for K in MINIMAL_FAMILY for _ in range(MINIMAL_COPIES)]
    rng.shuffle(items)
    return items


WORKLOADS = ("compile", "stream", "decide")


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compile":
        items = gen_compile(rng)
    elif workload == "stream":
        items = gen_stream(rng)
    elif workload == "decide":
        items = gen_decide(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "items": items, "warmup": warmup()}
