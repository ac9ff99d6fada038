"""One benchmark workload in its own process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        [--size full|smoke] [--setup-only] [--spans FILE]

Prints "ready" as soon as interpreter start, the hcov imports and the
catalog load are done (perfbench/run.py times set-up up to that line), then
repeats passes of the workload until --seconds have elapsed (at least one)
and prints one JSON object as its last line; wall_s sums each timed
step's fastest time over the passes (best_steps).
Untraced passes are timed on speed.SpeedClock, which factors the shared
host's changing speed out; the JSON also carries each pass's real time.
With --trace 1 every pass is traced, timed in real seconds, and the
per-layer metrics are their medians; perfbench/run.py runs the untraced
passes in a process of their own, so that both sides start equally cold.
Every output is checked against an exact oracle; oracle time is not
counted.

hcov is always called through module attributes (`maximal.build_maximal`,
`hcov.cli.main`), never through names bound here, so that the tracer's
patching of those attributes sees every call.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402

clock = time.perf_counter


# -- independent oracles --------------------------------------------------------
# Group orders come from the catalog file's section headers and from
# |PSL(2,p)| = p(p^2-1)/2, connectivity from a closure computed here; none of
# them goes through hcov's own chain or closure code.


def catalog_orders():
    data = json.loads((ROOT / "src/hcov/data/catalog.json").read_text())
    return {rec["name"]: sec["order"] for sec in data for rec in sec["groups"]}


def psl2_order(p):
    return p * (p * p - 1) // 2


def closure_size(gens, degree):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


# -- timing -------------------------------------------------------------------------


class Pass:
    """Timed steps of one pass. Items are the unit of latency and failure;
    other steps (a group's pair search) count toward wall time only."""

    def __init__(self, tracer=None, read=speed.raw_read):
        self.tracer = tracer
        self.read = read
        self.wall = 0.0  # seconds on the clock that read() gives
        self.real = 0.0  # real seconds, calibration left out
        self.durations = []  # of each timed step, in order
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.steps = 0

    def _timed(self, fn):
        if self.tracer is not None:
            self.tracer.item = self.steps
        self.steps += 1
        t0, r0 = self.read()
        try:
            out = fn()
        finally:
            t1, r1 = self.read()
            dt = t1 - t0
            self.wall += dt
            self.durations.append(dt)
            self.real += r1 - r0
            if self.tracer is not None:
                self.tracer.item = None
        return out, dt

    def step(self, fn, label):
        try:
            return self._timed(fn)[0]
        except Exception as exc:  # recorded; the pass-level oracle then fails
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def item(self, fn, check, label):
        self.attempted += 1
        try:
            out, dt = self._timed(fn)
        except Exception as exc:  # a raising item is a failed item
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        self.latencies.append(dt)
        problem = check(out)
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)


def cli(argv):
    """Run `hc argv` in-process; returns (exit code, parsed JSON payload)."""
    import hcov.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hcov.cli.main(list(argv) + ["--json", "--jobs", "1"])
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


def mismatch(got, want):
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return f"got/want {bad}" if bad else None


# -- workloads ------------------------------------------------------------------


class SurfaceSweep:
    """Criterion 6: build_maximal + theorem_44_check for every class-
    representative (2,3)-pair of every catalog group of order <= 60, plus
    psl2(7) and psl2(13)."""

    def __init__(self, smoke):
        self.max_order = 12 if smoke else 60
        self.primes = (7,) if smoke else (7, 13)
        # (groups, pairs); the smoke-size figures were recorded from the seed code
        self.expected = (8, 28) if smoke else (33, 140)

    def prepare(self, seed, catalog_loader):
        from hcov import permgroup

        orders = catalog_orders()
        groups = [
            (G, orders[G.name])
            for G in catalog_loader().groups
            if orders[G.name] <= self.max_order
        ]
        return groups + [(permgroup.psl2(p), psl2_order(p)) for p in self.primes]

    def run(self, groups, p):
        from hcov import maximal, oriented, permgroup

        pairs = 0
        for G, order in groups:
            res = p.step(lambda: permgroup.search_23_pairs(G), f"{G.name} pair search")
            for tau, sigma in res.pairs if res is not None else ():
                pairs += 1
                p.item(
                    lambda: oriented.theorem_44_check(maximal.build_maximal(G, tau, sigma)),
                    lambda rep: self.check(rep, order),
                    f"{G.name} pair {pairs}",
                )
        p.expect(
            (len(groups), pairs) == self.expected,
            f"swept {len(groups)} groups / {pairs} pairs, expected {self.expected}",
        )

    @staticmethod
    def check(rep, order):
        k, g = rep.k, rep.surface_genus
        if not rep.holds:
            return "theorem 4.4 report does not hold"
        if rep.order != order or rep.L * k != order:
            return f"order {rep.order}, L {rep.L}, k {k}; |G| is {order}"
        if rep.lhs != order * (k - 6) or rep.rhs != 12 * k * (g - 1) or rep.lhs != rep.rhs:
            return f"|G|(k-6) = {order * (k - 6)} vs 12k(g-1) = {12 * k * (g - 1)}"
        if rep.hurwitz != (k == 7):
            return "hurwitz flag does not match k == 7"
        return None


class HurwitzPsl2:
    """`hc surface check44 --group psl2:29 --product-order 7`: one large
    group, one item."""

    def __init__(self, smoke):
        self.p = 13 if smoke else 29
        order = psl2_order(self.p)
        genus = 1 + order // 84
        self.want = {
            "order": order, "k": 7, "L": order // 7, "surface_genus": genus,
            "lhs": order, "rhs": 84 * (genus - 1), "holds": True, "hurwitz": True,
        }

    def prepare(self, seed, catalog_loader):
        return ["surface", "check44", "--group", f"psl2:{self.p}", "--product-order", "7"]

    def run(self, argv, p):
        p.item(lambda: cli(argv), lambda out: self.check(out), " ".join(argv))

    def check(self, out):
        code, payload = out
        if code != 0 or payload is None:
            return f"exit code {code}"
        return mismatch(payload, self.want)


def _rows(payload):
    return [set(r["maximal_groups"]) for r in payload["rows"]]


class PairCensus:
    """Pair search only, through the CLI: the classification table, the
    genus-12 check, Miller's A_n/S_n spot checks and psl2 pair counts."""

    def __init__(self, smoke):
        table = [{"S3", "Z6"}, {"A4"}, {"S3xZ3"}, {"A4xZ2", "S4"}, set()]
        miller = {("alternating", 5): True, ("alternating", 6): False,
                  ("alternating", 7): False, ("alternating", 8): False,
                  ("symmetric", 5): False, ("symmetric", 6): False,
                  ("symmetric", 7): True, ("symmetric", 8): False}
        search = {13: (96, 8736), 23: (384, 97152), 29: (616, 267960)}
        if smoke:
            table = table[:2]
            miller = {k: v for k, v in miller.items() if k[1] == 5}
            search = {7: (16, 336)}  # recorded from the seed code
        self.commands = [(
            ["maximal", "table", "--from", "2", "--to", str(1 + len(table))],
            lambda pl: _rows(pl) == table,
        )]
        if not smoke:
            self.commands.append(
                (["maximal", "genus12"], lambda pl: pl["no_maximal_graph_of_genus_12"] is True)
            )
        for (family, n), verdict in miller.items():
            self.commands.append((
                ["maximal", "miller", "--family", family, "--n", str(n)],
                lambda pl, v=verdict: pl["generated_2_3"] is v,
            ))
        for q, (reps, total) in search.items():
            self.commands.append((
                ["group", "search", "--group", f"psl2:{q}"],
                lambda pl, w=(reps, total): (pl["representative_count"], pl["total_count"]) == w,
            ))

    def prepare(self, seed, catalog_loader):
        return self.commands

    def run(self, commands, p):
        for argv, ok in commands:
            p.item(lambda: cli(argv), lambda out, ok=ok: self.check(out, ok), " ".join(argv))

    @staticmethod
    def check(out, ok):
        code, payload = out
        if code != 0 or payload is None:
            return f"exit code {code}"
        return None if ok(payload) else f"unexpected payload {payload}"


class RandomCovers:
    """Criterion 4's generator: random trees with 1-5 vertices, random
    inertia subgroups and symmetric multisets, over the 27 catalog groups of
    order <= 24; build_cover, ramification_profile, then
    riemann_hurwitz_check when the cover is connected.

    Unlike criterion 4, the tree size cycles with the group, so every
    (group, size) pair occurs equally often: 540 covers = 4 x 27 x 5. That
    halves how much a pass's total work varies from seed to seed."""

    def __init__(self, smoke):
        self.count = 40 if smoke else 540

    def prepare(self, seed, catalog_loader):
        from hcov.multigraph import Multigraph

        orders = catalog_orders()
        groups = [G for G in catalog_loader().groups if orders[G.name] <= 24]
        if len(groups) != 27:
            raise RuntimeError(f"expected 27 catalog groups of order <= 24, found {len(groups)}")
        rng = random.Random(seed)
        specs = []
        for i in range(self.count):
            G = groups[i % len(groups)]
            order = orders[G.name]
            n = 1 + i % 5
            # vertex j+1 hangs off a uniformly chosen earlier vertex
            tree = Multigraph(
                range(1, n + 1), [(j - 1, (rng.randint(1, j), j + 1)) for j in range(1, n)]
            )
            inertia, multisets = {}, {}
            for x in tree.vertices:
                H = self._subgroup(rng, G, proper=(n == 1))
                inertia[x] = H
                if n == 1 and H.order() > 1:
                    S = self._multiset(rng, G, avoid=H)
                    while not S:
                        S = self._multiset(rng, G, avoid=H)
                else:
                    S = self._multiset(rng, G)
                multisets[x] = S
            gens = [p for S in multisets.values() for p in S.support()]
            gens += [g for H in inertia.values() for g in H.generators]
            connected = closure_size(gens, G.degree) == order if gens else order == 1
            specs.append((G, order, tree, inertia, multisets, connected))
        return specs

    @staticmethod
    def _subgroup(rng, G, proper):
        while True:
            gens = [rng.choice(G.elements()) for _ in range(rng.randrange(0, 3))]
            H = G.subgroup([g for g in gens if g != G.identity])
            if not (proper and H.order() == G.order()):
                return H

    @staticmethod
    def _multiset(rng, G, avoid=None):
        from hcov.galois import SymmetricMultiset

        entries = {}
        for _ in range(rng.randrange(0, 3)):
            p = rng.choice(G.elements())
            if p == G.identity or (avoid is not None and avoid.contains(p)):
                continue
            mult = rng.randrange(1, 3)
            entries[p] = entries.get(p, 0) + mult
            q = tuple(sorted(range(len(p)), key=lambda i: p[i]))
            if q != p:
                entries[q] = entries.get(q, 0) + mult
        return SymmetricMultiset(list(entries.items()))

    def run(self, specs, p):
        for i, spec in enumerate(specs):
            p.item(lambda: self.verify(*spec[:5]), lambda out: self.check(out, spec), f"cover {i}")

    @staticmethod
    def verify(G, order, tree, inertia, multisets):
        from hcov import galois

        cover = galois.build_cover(G, tree, inertia, multisets, flipped=False)
        profile = galois.ramification_profile(cover)
        connected = cover.is_connected()
        rh = galois.riemann_hurwitz_check(cover) if connected else None
        graph = cover.graph
        return (
            [(x, pr.m, pr.f, pr.n, pr.v, pr.w) for x, pr in profile.per_vertex.items()],
            connected,
            rh,
            len(graph.vertices),
            len(graph.edges),
        )

    @staticmethod
    def check(out, spec):
        from fractions import Fraction

        per_vertex, connected, rh, nv, ne = out
        _, order, tree, _, _, want_connected = spec
        if sorted(x for x, *_ in per_vertex) != sorted(tree.vertices):
            return "profile does not cover every base vertex"
        for x, m, f, n, v, w in per_vertex:
            if m * f * n != order:
                return f"m*f*n = {m}*{f}*{n} != |G| = {order} at vertex {x}"
            if v != m * w:
                return f"v = {v} != m*w = {m}*{w} at vertex {x}"
        if connected != want_connected:
            return f"connected = {connected}, generation criterion says {want_connected}"
        if connected:
            R = sum(2 * (1 - Fraction(1, m)) + w for _, m, _, _, _, w in per_vertex)
            lhs = 2 * (ne - nv + 1) - 2
            if not rh.holds or rh.lhs != lhs or Fraction(lhs) != order * (R - 2):
                return f"Riemann-Hurwitz: 2g-2 = {lhs}, |G|(R-2) = {order * (R - 2)}"
        return None


# Only random_covers draws its inputs from --seed; the other three verify a
# fixed list of groups or commands, so every seed gives them the same inputs.
WORKLOADS = {
    "surface_sweep": SurfaceSweep,
    "hurwitz_psl2_29": HurwitzPsl2,
    "random_covers": RandomCovers,
    "pair_census": PairCensus,
}


# -- run loop ---------------------------------------------------------------------


def run_pass(workload, seed, load_catalog, tracer=None, read=speed.raw_read):
    inputs = workload.prepare(seed, load_catalog)
    gc.collect()
    p = Pass(tracer, read)
    if tracer is not None:
        tracer.install()
    try:
        workload.run(inputs, p)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        leaked = sum(1 for s in tracer.spans if s[4] is None)
        p.expect(not leaked, f"{leaked} spans recorded outside timed steps")
    return p


def best_steps(passes):
    """Sum over a pass's timed steps of each step's fastest time in any pass.

    Every pass runs the same steps on the same inputs, so step k of one pass
    is the same work as step k of another. Slowdowns on a shared host only
    ever add time and come in bursts of seconds, so taking each step at its
    best, rather than the best whole pass, drops more of them.
    """
    steps = {len(p.durations) for p in passes}
    if len(steps) != 1:
        raise RuntimeError(f"passes ran different numbers of steps: {sorted(steps)}")
    return sum(map(min, zip(*(p.durations for p in passes))))


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="traced runs: write every span here")
    args = ap.parse_args(argv)

    # set-up: the hcov imports and the catalog load
    import hcov.cli  # noqa: F401  (imports every hcov module)
    from hcov import permgroup

    permgroup.load_default_catalog()
    logging.getLogger("hcov").setLevel(logging.ERROR)
    print("ready", flush=True)
    setup_factor = speed.setup_factor()
    if args.setup_only:
        print(json.dumps({"setup_factor": setup_factor}))
        return 0

    before = tracing.function_snapshot()
    workload = WORKLOADS[args.workload](args.size == "smoke")
    passes = []
    speed_clock = None if args.trace else speed.SpeedClock()
    read = speed.raw_read if speed_clock is None else speed_clock.read
    start = clock()
    if speed_clock is not None:
        speed_clock.start()
    try:
        while True:
            tracer = tracing.Tracer() if args.trace else None
            passes.append(
                run_pass(workload, args.seed, permgroup.load_default_catalog, tracer, read)
            )
            if clock() - start >= args.seconds:
                break
    finally:
        if speed_clock is not None:
            speed_clock.stop()

    errors = [e for p in passes for e in p.errors]
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    restored = tracing.function_snapshot() == before and tracing.unpatched()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    latencies = [t for p in passes for t in p.latencies]
    out = {
        "correct": not errors and restored,
        "attempted": attempted,
        "failed": failed,
        "unpatched": restored,
        "walls_s": [p.wall for p in passes],
        "real_walls_s": [p.real for p in passes],
        "setup_factor": setup_factor,
        "item_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "item_p90_ms": 1e3 * percentile(latencies, 0.9) if latencies else 0.0,
    }
    if args.trace:
        rows = [tracing.per_layer_metrics(p.tracer, p.wall) for p in passes]
        out["metrics"] = tracing.median_metrics([m for m, _ in rows])
        out["layers"] = _shares(rows[-1][1], passes[-1].wall)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                for i, p in enumerate(passes):
                    for s in p.tracer.spans:
                        fh.write(json.dumps([i] + s) + "\n")
    else:
        out["calibration_s"] = statistics.median(speed_clock.samples)
        out["metrics"] = {
            "wall_s": best_steps(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(out))
    return 0


def _shares(table, wall):
    """Layer table of the last traced pass with each self time's share."""
    return {
        name: dict(row, self_share=row["self_s"] / wall)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    }


if __name__ == "__main__":
    sys.exit(main())
