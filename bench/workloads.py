"""The three seeded workloads and their oracles.

Each workload function takes the imported `toriclct` modules (a dict of
short name -> module) and a seeded `random.Random`, and returns a
`Workload`: the list of requests that make one pass, in the order they are
sent. A request's `call`
does the work that is timed and looks up every package function through its
module at call time, so the traced run's rebinding reaches it. Its `check`
compares the result with an oracle outside the timed region and returns
False on a wrong answer.
"""

from __future__ import annotations

import io
import itertools
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

CLI_MAIN = "import sys; from toriclct.cli import main; sys.exit(main())"


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    requests: list[Request]
    info: dict = field(default_factory=dict)
    # catalog only: the same invocations replayed in-process through cli.run
    replay: list[Request] = field(default_factory=list)


# ---------------------------------------------------------------------------
# lattice helpers, independent of the package


def _mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _apply(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _closure(gens, limit=None):
    """Group generated by integer matrices, by breadth-first products;
    stops once it holds more than limit elements."""
    n = len(gens[0])
    elements = {_identity(n)}
    frontier = [_identity(n)]
    while frontier:
        fresh = []
        for g in frontier:
            for h in gens:
                p = _mul(g, h)
                if p not in elements:
                    elements.add(p)
                    fresh.append(p)
            if limit is not None and len(elements) > limit:
                return elements
        frontier = fresh
    return elements


def _signed_permutations(n):
    """All 2^n n! signed permutation matrices: the group B_n."""
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                             for i in range(n)))
    return out


def _unimodular(rng, n):
    """A random change of lattice basis: a signed permutation after three
    elementary shears by +-1, so coordinates stay small."""
    m = [list(row) for row in _identity(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in perm]
    return tuple(tuple(s * x for x in m[p]) for p, s in zip(perm, signs))


def _transform(rng, rays):
    u = _unimodular(rng, len(rays[0]))
    return tuple(_apply(u, v) for v in rays)


def _pairing(w, v):
    return sum(Fraction(a) * b for a, b in zip(w, v))


# ---------------------------------------------------------------------------
# products: the geometry kernel


def products(mods, rng) -> Workload:
    """The 153 pairwise product fans of the 18 stored threefold fans, each
    factor in a seeded basis, in seeded order. Oracle: the product takes the
    smaller recorded factor value, and the witness attains max_pairing."""
    toric = mods["toric"]
    db = mods["database"].load_builtin()
    stored = [(r.status.value, r.fan) for r in db.records if r.fan is not None]
    factors = [(value, toric.RaySet(_transform(rng, fan.rays))) for value, fan in stored]
    pairs = list(itertools.combinations(range(len(factors)), 2))
    rng.shuffle(pairs)
    requests = []
    for a, b in pairs:
        (va, fa), (vb, fb) = factors[a], factors[b]
        fan = toric.product_fan(fa, fb)
        expected = min(va, vb)

        def check(report, expected=expected):
            return (report.lct == expected
                    and _pairing(report.witness_vertex, report.witness_ray)
                    == report.max_pairing
                    and report.lct * (1 + report.max_pairing) == 1)

        requests.append(Request(f"product {a}x{b}",
                                lambda fan=fan: toric.toric_lct(fan), check))
    return Workload(requests, {"fans": len(requests)})


# ---------------------------------------------------------------------------
# symmetric: the group layer

# (setup, generator count, group order). B_n acts on (P^1)^n by signed
# permutations; S3 and S4 act on P^2 and P^3 by permuting the rays. The
# orders are fixed so every seed sends the same mix of group sizes, and the
# full groups are included (B4 has order 384).
SYMMETRIC_TARGETS = (
    ("B2", 1, 2), ("B2", 1, 4), ("B2", 2, 4), ("B2", 2, 8),
    ("B3", 1, 2), ("B3", 1, 3), ("B3", 1, 4), ("B3", 1, 6), ("B3", 2, 4),
    ("B3", 2, 6), ("B3", 2, 8), ("B3", 2, 12), ("B3", 2, 24), ("B3", 2, 48),
    ("B4", 1, 4), ("B4", 1, 6), ("B4", 1, 8), ("B4", 2, 8), ("B4", 2, 12),
    ("B4", 2, 16), ("B4", 2, 24), ("B4", 2, 32), ("B4", 2, 48), ("B4", 2, 64),
    ("B4", 2, 192), ("B4", 2, 384),
    ("S3", 1, 2), ("S3", 1, 3), ("S3", 2, 6),
    ("S4", 1, 2), ("S4", 1, 3), ("S4", 1, 4), ("S4", 2, 8), ("S4", 2, 12),
    ("S4", 2, 24),
)

_SWAP12 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
_SETUP_GENERATORS = {
    "S3": [((0, 1), (1, 0)), ((0, -1), (1, -1))],
    "S4": [_SWAP12, ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
           ((-1, 0, 0), (-1, 1, 0), (-1, 0, 1))],
}


def _symmetric_setups(toric):
    """setup -> (fan, full group elements, plain lct)."""
    setups = {}
    for n in (2, 3, 4):
        fan = toric.RaySet(tuple(tuple(s * int(i == j) for j in range(n))
                                 for i in range(n) for s in (1, -1)))
        setups[f"B{n}"] = (fan, set(_signed_permutations(n)), Fraction(1, 2))
    for name, gens in _SETUP_GENERATORS.items():
        n = len(gens[0])
        setups[name] = (toric.projective_space_fan(n), _closure(gens),
                        Fraction(1, n + 1))
    return setups


def symmetric(mods, rng) -> Workload:
    """Seeded generator sets for groups of fixed orders, each request a
    GroupAction.generate plus an equivariant toric_lct. Oracle: the group
    has the target order inside the full group, plain <= value <= 1, and the
    full group gives 1."""
    toric = mods["toric"]
    setups = _symmetric_setups(toric)
    requests = []
    for setup, ngens, order in SYMMETRIC_TARGETS:
        fan, full, plain = setups[setup]
        pool = sorted(full)
        for _ in range(100000):
            gens = rng.sample(pool, ngens)
            if len(_closure(gens, order)) == order:
                break
        else:
            raise RuntimeError(f"no {ngens}-generator subgroup of order {order} in {setup}")

        def call(gens=gens, fan=fan):
            group = toric.GroupAction.generate(gens)
            return group, toric.toric_lct(fan, group)

        def check(result, order=order, full=full, plain=plain):
            group, report = result
            return (len(group) == order and set(group.elements) <= full
                    and plain <= report.lct <= 1
                    and (report.lct == 1 or order < len(full)))

        requests.append(Request(f"{setup} order {order}", call, check))
    rng.shuffle(requests)
    histogram = Counter(order for _, _, order in SYMMETRIC_TARGETS)
    return Workload(requests, {"group_orders": dict(sorted(histogram.items()))})


# ---------------------------------------------------------------------------
# catalog: CLI cold start, database, formulas

WPS_WEIGHTS = ((1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 2), (1, 1, 3),
               (1, 2, 3), (2, 3, 5), (1, 1, 2, 3), (1, 2, 2, 3), (3, 4, 5))
DP_ARGS = (("--degree", "1", "--cuspidal"), ("--degree", "2", "--tacnodal"),
           ("--degree", "3", "--eckardt"), ("--degree", "4"),
           ("--degree", "5", "--nodes", "1"), ("--degree", "6", "--nodes", "1"),
           ("--degree", "7"), ("--degree", "8", "--deg8", "product"),
           ("--degree", "9"))
CUBIC_TYPES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")


def _ray_arg(rays):
    return ";".join(",".join(str(c) for c in v) for v in rays)


def _catalog_invocations(mods, rng):
    """(argv, stdin text, expected exit code) for one pass, in seeded order."""
    database, formulas = mods["database"], mods["formulas"]
    db = database.load_builtin()
    ids = [str(r.id) for r in db.records]
    fans = [r.fan.rays for r in db.records if r.fan is not None]
    table = database.export_table(db)
    lines = table.splitlines()
    broken = list(lines)
    row = rng.randrange(len(db.records))
    fields = broken[row].split("|")
    fields[2] = "bogus"
    broken[row] = "|".join(fields)
    malformed = "\n".join(broken) + "\n"

    out = []
    for family in rng.sample(ids, 3):
        out.append((["family", family, "--machine"], None, 0))
    out.append((["family", "--list", "--machine"], None, 0))
    out.append((["family", "--list", "--rank", str(rng.randint(1, 5)), "--machine"],
                None, 0))
    out.append((["db", "--machine"], None, 0))
    out.append((["db", "--cross-check", "--machine"], None, 0))
    out += [(["db", "--export", "-"], None, 0)] * 2
    out += [(["db", "--import", "-", "--machine"], table, 0)] * 2
    out.append((["db", "--import", "-", "--machine"], malformed, 1))
    for _ in range(3):
        rays = _transform(rng, rng.choice(fans))
        out.append((["toric", f"--rays={_ray_arg(rays)}", "--machine"], None, 0))
    s3 = rng.choice([g for g in _closure(_SETUP_GENERATORS["S3"])
                     if g != _identity(2)])
    swap = ((0, 1), (1, 0))
    group = _ray_arg([sum(s3, ()), sum(swap, ())])
    out.append((["toric", "--rays=1,0;0,1;-1,-1", f"--group={group}", "--machine"],
                None, 0))
    for weights in rng.sample(WPS_WEIGHTS, 2):
        out.append((["wps", *map(str, weights), "--machine"], None, 0))
    base, k = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)))
    twists = ",".join(str(rng.randint(0, 3)) for _ in range(k))
    out.append((["bundle", "--base-dim", str(base), "--twists", twists,
                 "--machine"], None, 0))
    exps = lambda: ",".join(str(rng.randint(2, 9)) for _ in range(rng.randint(2, 4)))
    out.append((["cse", "--monomial", exps(), "--machine"], None, 0))
    out.append((["cse", "--fermat", exps(), "--machine"], None, 0))
    out.append((["dp", *rng.choice(DP_ARGS), "--machine"], None, 0))
    types = rng.sample(CUBIC_TYPES, rng.randint(1, 2))
    out.append((["cubic-sing", ",".join(types), "--machine"], None, 0))
    out.append((["equivariant", rng.choice(sorted(formulas.KNOWN_EQUIVARIANT)),
                 "--machine"], None, 0))
    out.append((["equivariant"], None, 0))
    rng.shuffle(out)
    return out, table


def run_in_process(cli, argv, stdin_text):
    """cli.run with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        code = cli.run(argv, stdout=out, stderr=err)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def catalog(mods, rng, root, env) -> Workload:
    """A seeded mix of CLI invocations, each a fresh subprocess. Oracle:
    stdout is byte-identical to the in-process cli.run output recorded here,
    the exit code is as listed (the malformed import exits 1), and importing
    the exported table prints the builtin summary."""
    cli = mods["cli"]
    invocations, table = _catalog_invocations(mods, rng)
    summary = run_in_process(cli, ["db", "--machine"], None)[1]
    clear_cache = mods["database"].load_builtin.cache_clear
    requests, replay = [], []
    for argv, stdin_text, code in invocations:
        got = run_in_process(cli, argv, stdin_text)
        expected_out = summary if stdin_text == table else got[1]
        ok = got[0] == code and got[1] == expected_out
        expected = (code, expected_out.encode())
        label = " ".join(argv[:2])
        stdin_bytes = None if stdin_text is None else stdin_text.encode()

        def spawn(argv=argv, stdin_bytes=stdin_bytes):
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv],
                                  input=stdin_bytes, capture_output=True,
                                  cwd=root, env=env, timeout=60)
            return proc.returncode, proc.stdout

        def replay_call(argv=argv, stdin_text=stdin_text):
            clear_cache()
            code, out, _ = run_in_process(cli, argv, stdin_text)
            return code, out.encode()

        check = lambda result, ok=ok, expected=expected: ok and result == expected
        requests.append(Request(label, spawn, check))
        replay.append(Request(label, replay_call, check))
    kinds = Counter(argv[0] for argv, _, _ in invocations)
    return Workload(requests, {"invocations": dict(sorted(kinds.items()))}, replay)


WORKLOADS = {"products": products, "symmetric": symmetric, "catalog": catalog}
