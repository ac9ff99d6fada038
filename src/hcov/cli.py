"""The `hc` command line: build, verify, classify, export.

Grammar: hc (group|action|cover|maximal|surface) <verb> [flags]. Every
command is deterministic; --json emits the payload only; failures exit 1
with a structured message, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, field

from hcov.errors import HcError, read_json
from hcov import galois, harmonic, maximal, multigraph, oriented, permgroup
from hcov.kernel import perm_order, perm_mul
from hcov.multigraph import map_items

logger = logging.getLogger("hcov")


@dataclass
class CommandResult:
    status: str  # "ok" | "fail"
    payload: dict
    diagnostics: list = field(default_factory=list)
    text: str = ""


# -- shared argument helpers -------------------------------------------------


def common_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true", help="emit the JSON payload only")
    p.add_argument("--jobs", type=int, default=1, help="accepted for scripts; runs are serial")
    p.add_argument("--catalog", default=None, help="catalog file (default: bundled)")
    p.add_argument("--out", default=None, help="also write the JSON payload to a file")
    return p


def load_catalog_arg(args) -> permgroup.Catalog:
    """The catalog of --catalog, else of HC_CATALOG, else the bundled one.
    Group specs get functools.partial(load_catalog_arg, args), so that only
    a group name reads it."""
    path = args.catalog or os.environ.get("HC_CATALOG") or permgroup.default_catalog_path()
    return permgroup.load_catalog(path)


def resolve_group(spec: str, args) -> permgroup.PermutationGroup:
    """The group of --group: a file's JSON, else spec itself, resolved with
    the same catalog."""
    if os.path.exists(spec):
        spec = read_json(spec)
    return permgroup.group_from_spec(spec, functools.partial(load_catalog_arg, args))


def write_output(flag: str, path: str, text: str) -> None:
    """Write text to the file that an output flag names; HcError naming the
    flag and the path if it cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise HcError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None


def check_positive(flag: str, *values):
    for value in values:
        if value is not None and value < 1:
            raise HcError(f"{flag} must be at least 1, got {value}")


def parse_pair(text: str, degree: int):
    parts = text.split(";")
    if len(parts) != 2:
        raise HcError("--pair expects two cycle strings separated by ';'")
    return (
        permgroup.parse_cycle_string(parts[0], degree),
        permgroup.parse_cycle_string(parts[1], degree),
    )


def resolve_spec_path(spec: str) -> str:
    if os.path.exists(spec):
        return spec
    from importlib.resources import files

    name = spec if spec.endswith(".json") else spec + ".json"
    candidate = files("hcov").joinpath(f"data/figures/{name}")
    if candidate.is_file():
        return str(candidate)
    raise HcError(f"spec not found: {spec}")


def load_cover(args) -> tuple:
    """(spec, cover) of the cover spec named by args.spec."""
    spec = read_json(resolve_spec_path(args.spec))
    if isinstance(spec, dict) and "spec" in spec:  # `hc cover build` output round-trips
        spec = spec["spec"]
    return spec, galois.cover_from_spec(spec, functools.partial(load_catalog_arg, args))


def load_action(args) -> harmonic.GraphAction:
    data = read_json(resolve_spec_path(args.action))
    return harmonic.GraphAction.from_json(data, functools.partial(load_catalog_arg, args))


# -- group commands ------------------------------------------------------------


def cmd_group_order(args):
    G = resolve_group(args.group, args)
    payload = {"group": G.name, "degree": G.degree, "order": G.order()}
    return CommandResult("ok", payload, text=f"{G.name}: order {G.order()}")


def cmd_group_elements(args):
    G = resolve_group(args.group, args)
    els = [permgroup.cycle_string(p) for p in G.elements()]
    payload = {"group": G.name, "order": len(els), "elements": els}
    return CommandResult("ok", payload, text="\n".join(els))


def cmd_group_cosets(args):
    G = resolve_group(args.group, args)
    gens = [permgroup.parse_cycle_string(s, G.degree) for s in args.subgroup.split(";")]
    H = G.subgroup(gens)
    reps = permgroup.left_cosets(G, H)
    payload = {
        "group": G.name,
        "subgroup_order": H.order(),
        "index": len(reps),
        "representatives": [permgroup.cycle_string(r) for r in reps],
    }
    text = f"{len(reps)} cosets of an order-{H.order()} subgroup in {G.name}\n" + "\n".join(
        payload["representatives"]
    )
    return CommandResult("ok", payload, text=text)


def cmd_group_search(args):
    a, b = args.orders
    check_positive("--orders", a, b)
    check_positive("--product-order", args.product_order)
    G = resolve_group(args.group, args)
    res = permgroup.search_pairs(G, a, b, args.product_order, args.all)
    # a class representative recurs in each of its pairs: format it once
    distinct = dict.fromkeys(x for pair in res.pairs for x in pair)
    strings = {p: permgroup.cycle_string(p) for p in distinct}
    payload = {
        "group": G.name,
        "orders": [a, b],
        "product_order": args.product_order,
        "pairs": [[strings[t], strings[s]] for t, s in res.pairs],
        "representative_count": len(res.pairs),
        "total_count": res.total,
        "classes_searched": res.classes_searched,
    }
    lines = [
        f"{G.name}: {len(res.pairs)} representative ({res.total} total) generating"
        f" ({a},{b})-pairs"
    ]
    lines += [f"  {t} ; {s}" for t, s in payload["pairs"]]
    return CommandResult("ok", payload, text="\n".join(lines))


# -- action commands -------------------------------------------------------------


def cmd_action_check(args):
    action = load_action(args)
    report = harmonic.is_harmonic_action(action)
    payload = {
        "group": action.group.name,
        "faithful": True,  # construction would have failed otherwise
        "harmonic": report.harmonic,
    }
    if report.harmonic:
        payload["flipped_edges"] = sorted(harmonic.flipped_edges(action))
        text = f"harmonic; flipped edges: {payload['flipped_edges']}"
    else:
        payload["witness"] = {
            "dart": list(report.witness_dart),
            "element": permgroup.cycle_string(report.witness_element),
        }
        text = (
            f"not harmonic: {permgroup.cycle_string(report.witness_element)} fixes"
            f" dart {tuple(report.witness_dart)}"
        )
    return CommandResult("ok", payload, text=text)


def _subgroup_from_arg(action, text):
    if not text:
        return None
    gens = [permgroup.parse_cycle_string(s, action.group.degree) for s in text.split(";")]
    return action.group.subgroup(gens)


def cmd_action_quotient(args):
    action = load_action(args)
    H = _subgroup_from_arg(action, args.subgroup)
    q = harmonic.quotient(action, H)
    payload = {
        "quotient": q.quotient.to_json(),
        "removed_loops": q.removed_loops,
        "vertex_map": {str(v): img for v, img in sorted(map_items(q.projection.vertex_map))},
        "edge_map": {str(e): img for e, img in sorted(map_items(q.projection.edge_map))},
    }
    text = (
        f"quotient: {len(q.quotient.vertices)} vertices, {len(q.quotient.edges)} edges;"
        f" {len(q.removed_loops)} loop orbit(s) removed"
    )
    return CommandResult("ok", payload, text=text)


def cmd_action_unflip(args):
    action = load_action(args)
    out = harmonic.unflip(action)
    payload = out.to_json()
    text = (
        f"unflipped: {len(out.graph.vertices)} vertices, {len(out.graph.edges)} edges"
    )
    return CommandResult("ok", payload, text=text)


def cmd_action_flip(args):
    action = load_action(args)
    out = harmonic.flip_all(action)
    payload = out.to_json()
    text = f"flipped: {len(out.graph.vertices)} vertices, {len(out.graph.edges)} edges"
    return CommandResult("ok", payload, text=text)


# -- cover commands ----------------------------------------------------------------


def _cover_counts(cover):
    return {
        "vertices": len(cover.graph.vertices),
        "edges": len(cover.graph.edges),
        "genus": cover.graph.genus() if cover.is_connected() else None,
        "connected": cover.is_connected(),
        "flipped": cover.flipped,
        "degree_group": cover.degree_group,
        "degree_def22": cover.degree_def22,
    }


def cmd_cover_build(args):
    spec, cover = load_cover(args)
    if args.dot:
        write_output("--dot", args.dot, cover.graph.to_dot() + "\n")
    payload = {
        "spec": spec,
        "graph": cover.graph.to_json(),
        "counts": _cover_counts(cover),
    }
    c = payload["counts"]
    text = (
        f"cover built: {c['vertices']} vertices, {c['edges']} edges,"
        f" genus {c['genus']}, connected={c['connected']}"
    )
    return CommandResult("ok", payload, diagnostics=cover.warnings, text=text)


def cmd_cover_profile(args):
    _, cover = load_cover(args)
    payload = galois.profile_to_json(cover)
    lines = [f"x={x}: {d}" for x, d in payload["per_vertex"].items()]
    lines.append(f"R = {payload['R']}; case {payload['case']}; maximal={payload['maximal']}")
    return CommandResult("ok", payload, diagnostics=cover.warnings, text="\n".join(lines))


def cmd_cover_rh(args):
    _, cover = load_cover(args)
    report = galois.riemann_hurwitz_check(cover, strict_sign=args.strict_sign)
    payload = {
        "R": str(report.R),
        "lhs": report.lhs,
        "rhs": str(report.rhs),
        "holds": report.holds,
        "sign": report.sign,
    }
    status = "ok" if report.holds else "fail"
    text = f"R = {report.R}; 2g(Y)-2 = {report.lhs}; rhs = {report.rhs}; holds = {report.holds}"
    return CommandResult(status, payload, diagnostics=cover.warnings, text=text)


def cmd_cover_classify(args):
    _, cover = load_cover(args)
    locus = galois.classify_branch_locus(cover)
    payload = {
        "branch_vertices": {str(x): list(mw) for x, mw in sorted(locus.branch_vertices.items())},
        "case": locus.case,
        "maximal": locus.is_maximal,
        "R": str(locus.R),
    }
    text = f"branch case {locus.case}; R = {locus.R}; maximal = {locus.is_maximal}"
    return CommandResult("ok", payload, diagnostics=cover.warnings, text=text)


# -- maximal commands ----------------------------------------------------------------


def _pick_pair(G, args):
    check_positive("--product-order", args.product_order)
    if getattr(args, "pair", None):
        tau, sigma = parse_pair(args.pair, G.degree)
        k = perm_order(perm_mul(tau, sigma))
        if args.product_order is not None and k != args.product_order:
            raise HcError(f"--product-order {args.product_order}: the pair's product order is {k}")
        return tau, sigma
    pair = permgroup.first_pair(G, args.product_order)
    if pair is None:
        raise HcError(f"{G.name} has no (2,3)-generating pair"
                      + (f" with product order {args.product_order}" if args.product_order else ""))
    return pair


def cmd_maximal_build(args):
    G = resolve_group(args.group, args)
    tau, sigma = _pick_pair(G, args)
    mc = maximal.build_maximal(G, tau, sigma)
    locus = galois.classify_branch_locus(mc.cover)
    payload = {
        "group": G.name,
        "order": G.order(),
        "tau": permgroup.cycle_string(tau),
        "sigma": permgroup.cycle_string(sigma),
        "product_order": perm_order(perm_mul(tau, sigma)),
        "vertices": len(mc.graph.vertices),
        "edges": len(mc.graph.edges),
        "genus": mc.graph.genus(),
        "branch_case": locus.case,
        "maximal": locus.is_maximal,
    }
    if args.rho:
        rho_cover = maximal.build_maximal_rho(G, tau, sigma)
        payload["rho_variant"] = {
            "vertices": len(rho_cover.graph.vertices),
            "edges": len(rho_cover.graph.edges),
            "genus": rho_cover.graph.genus(),
            "isomorphic_to_direct": multigraph.same_up_to_edge_ids(rho_cover.graph, mc.graph),
        }
    text = (
        f"{G.name}: genus {payload['genus']} cover with {payload['vertices']} vertices,"
        f" {payload['edges']} edges; case {locus.case}"
    )
    if not locus.is_maximal:
        return CommandResult("fail", payload, text=text + " (NOT maximal)")
    return CommandResult("ok", payload, text=text)


def cmd_maximal_classify(args):
    catalog = load_catalog_arg(args)
    row = maximal.classify_genus(args.genus, catalog)
    payload = _row_payload(row)
    text = _row_text(row)
    return CommandResult("ok", payload, text=text)


def _row_payload(row):
    return {
        "genus": row.genus,
        "order": row.order,
        "maximal_groups": row.maximal_groups,
        "witnesses": {
            name: [permgroup.cycle_string(t), permgroup.cycle_string(s)]
            for name, (t, s) in row.witnesses.items()
        },
        "pair_totals": row.pair_totals,
    }


def _row_text(row):
    groups = ", ".join(row.maximal_groups) if row.maximal_groups else "none"
    return f"{row.genus:>5} | {row.order:>6} | {groups}"


def cmd_maximal_table(args):
    if args.genus_from < 2:
        raise HcError(f"--from must be at least 2 (the least genus), got {args.genus_from}")
    if args.genus_from > args.genus_to:
        raise HcError(f"--from {args.genus_from} exceeds --to {args.genus_to}: the table is empty")
    catalog = load_catalog_arg(args)
    rows = maximal.classification_table(args.genus_from, args.genus_to, catalog)
    payload = {"rows": [_row_payload(r) for r in rows]}
    lines = ["genus | 6(g-1) | maximal graph groups", "------+--------+---------------------"]
    lines += [_row_text(r) for r in rows]
    return CommandResult("ok", payload, text="\n".join(lines))


def cmd_maximal_miller(args):
    verdict = maximal.miller_check(args.family, args.n)
    name = ("A" if args.family == "alternating" else "S") + str(args.n)
    payload = {"family": args.family, "n": args.n, "generated_2_3": verdict}
    return CommandResult("ok", payload, text=f"{name} (2,3)-generated: {verdict}")


def cmd_maximal_genus12(args):
    catalog = load_catalog_arg(args)
    verdict = maximal.genus12_check(catalog)
    payload = {"no_maximal_graph_of_genus_12": verdict}
    return CommandResult(
        "ok" if verdict else "fail",
        payload,
        text=f"no maximal graph of genus 12: {verdict}",
    )


# -- surface commands -----------------------------------------------------------------


def cmd_surface_genus(args):
    og = oriented.OrientedGraph.from_json(read_json(resolve_spec_path(args.oriented)))
    if args.dot:
        write_output("--dot", args.dot, og.to_dot() + "\n")
    report = oriented.surface_genus(og)
    payload = {
        "vertices": report.vertex_count,
        "L": report.L,
        "surface_genus": report.surface_genus,
    }
    text = f"|V| = {report.vertex_count}, L = {report.L}, surface genus {report.surface_genus}"
    return CommandResult("ok", payload, text=text)


def cmd_surface_check44(args):
    G = resolve_group(args.group, args)
    tau, sigma = _pick_pair(G, args)
    mc = maximal.build_maximal(G, tau, sigma)
    rep = oriented.theorem_44_check(mc)
    payload = {
        "group": rep.group,
        "order": rep.order,
        "k": rep.k,
        "L": rep.L,
        "surface_genus": rep.surface_genus,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "holds": rep.holds,
        "hurwitz": rep.hurwitz,
    }
    text = (
        f"{rep.group}: k = {rep.k}, L = {rep.L}, surface genus {rep.surface_genus};"
        f" |G|(k-6) = {rep.lhs}, 12k(g-1) = {rep.rhs}; holds = {rep.holds};"
        f" hurwitz = {rep.hurwitz}"
    )
    return CommandResult("ok" if rep.holds else "fail", payload, text=text)


# -- wiring ---------------------------------------------------------------------------


def build_parser():
    common = common_parser()
    root = argparse.ArgumentParser(prog="hc", description=__doc__)
    domains = root.add_subparsers(dest="domain", required=True)

    group = domains.add_parser("group", help="permutation group queries").add_subparsers(
        dest="verb", required=True
    )
    p = group.add_parser("order", parents=[common])
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_group_order)
    p = group.add_parser("elements", parents=[common])
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_group_elements)
    p = group.add_parser("cosets", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True, help="generators, ';'-separated cycles")
    p.set_defaults(fn=cmd_group_cosets)
    p = group.add_parser("search", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--orders", nargs=2, type=int, default=[2, 3])
    p.add_argument("--product-order", type=int, default=None)
    p.add_argument("--all", action="store_true", help="full orbit, not class reps")
    p.set_defaults(fn=cmd_group_search)

    action = domains.add_parser("action", help="graph actions").add_subparsers(
        dest="verb", required=True
    )
    for verb, fn in [
        ("check", cmd_action_check),
        ("quotient", cmd_action_quotient),
        ("unflip", cmd_action_unflip),
        ("flip", cmd_action_flip),
    ]:
        p = action.add_parser(verb, parents=[common])
        p.add_argument("--action", required=True, help="action JSON file")
        if verb == "quotient":
            p.add_argument("--subgroup", default=None, help="generators, ';'-separated")
        p.set_defaults(fn=fn)

    cover = domains.add_parser("cover", help="harmonic covers of trees").add_subparsers(
        dest="verb", required=True
    )
    for verb, fn in [
        ("build", cmd_cover_build),
        ("profile", cmd_cover_profile),
        ("rh", cmd_cover_rh),
        ("classify", cmd_cover_classify),
    ]:
        p = cover.add_parser(verb, parents=[common])
        p.add_argument("--spec", required=True, help="cover spec file or bundled name")
        if verb == "rh":
            p.add_argument(
                "--strict-sign",
                action="store_true",
                help="evaluate the -R transcription (negative control)",
            )
        if verb == "build":
            p.add_argument("--dot", default=None, help="also write the graph as DOT")
        p.set_defaults(fn=fn)

    mx = domains.add_parser("maximal", help="maximal covers and classification").add_subparsers(
        dest="verb", required=True
    )
    p = mx.add_parser("build", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--product-order", type=int, default=None)
    p.add_argument("--pair", default=None, help="tau;sigma as cycle strings")
    p.add_argument("--rho", action="store_true", help="also build the S={rho,rho^-1} variant")
    p.set_defaults(fn=cmd_maximal_build)
    p = mx.add_parser("classify", parents=[common])
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=cmd_maximal_classify)
    p = mx.add_parser("table", parents=[common])
    p.add_argument("--from", dest="genus_from", type=int, required=True)
    p.add_argument("--to", dest="genus_to", type=int, required=True)
    p.set_defaults(fn=cmd_maximal_table)
    p = mx.add_parser("miller", parents=[common])
    p.add_argument("--family", choices=["alternating", "symmetric"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_maximal_miller)
    p = mx.add_parser("genus12", parents=[common])
    p.set_defaults(fn=cmd_maximal_genus12)

    surf = domains.add_parser("surface", help="oriented surfaces").add_subparsers(
        dest="verb", required=True
    )
    p = surf.add_parser("genus", parents=[common])
    p.add_argument("--oriented", required=True, help="oriented graph JSON file")
    p.add_argument("--dot", default=None, help="also write the rotation system as DOT")
    p.set_defaults(fn=cmd_surface_genus)
    p = surf.add_parser("check44", parents=[common])
    p.add_argument("--group", required=True)
    p.add_argument("--product-order", type=int, default=None)
    p.add_argument("--pair", default=None, help="tau;sigma as cycle strings")
    p.set_defaults(fn=cmd_surface_check44)

    return root


@functools.cache
def _parser():
    """build_parser(), built once per process, on the first main() call.
    Only a process that calls main() more than once, as a benchmark harness
    or a test does, saves anything; one `hc` run builds it once either way."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        check_positive("--jobs", args.jobs)
        if args.jobs > 1:
            logger.warning("--jobs %d: hc runs serially, with the same output", args.jobs)
        result = args.fn(args)
        if args.out:
            write_output("--out", args.out, json.dumps(result.payload, indent=1))
    except HcError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"status": "fail", "error": str(exc)}), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(json.dumps(result.payload, indent=1) if args.json else result.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`hc ... | head`): exit quietly, and keep
        # the interpreter's own flush at exit from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    if not args.json:
        for diag in result.diagnostics:
            print(f"note: {diag}", file=sys.stderr)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
