"""`hc ... --json` outputs pinned byte for byte.

Each file under tests/data/golden holds the output of one command below, or
the DOT file that `hc surface genus --dot` or `hc cover build --dot`
writes. Cover graphs carry vertex
and edge ids, which depend on how the group's elements are numbered, so
these outputs pin that numbering as well as the counts.
tests/data/oriented_psl2_7.json is canonical_orientation(...).to_json() of
the first product-order-7 pair of psl2(7), as a file.
"""

import json
from importlib.resources import files
from pathlib import Path

import pytest

from hcov.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
ORIENTED = Path(__file__).parent / "data" / "oriented_psl2_7.json"
FIG3_S3 = files("hcov").joinpath("data/figures/fig3_s3_action.json")
FIG3_Z6 = files("hcov").joinpath("data/figures/fig3_z6_action.json")

COMMANDS = {
    **{
        f"cover_build_{spec}.json": ("cover", "build", "--spec", spec)
        for spec in ("fig4", "fig5", "fig6", "theta_s3")
    },
    "maximal_build_psl2_7.json": ("maximal", "build", "--group", "psl2:7"),
    "maximal_build_psl2_7_rho.json": ("maximal", "build", "--group", "psl2:7", "--rho"),
    "surface_check44_psl2_13.json": ("surface", "check44", "--group", "psl2:13"),
    "group_search_psl2_13.json": ("group", "search", "--group", "psl2:13"),
    "maximal_build_psl2_13_k7.json": (
        "maximal", "build", "--group", "psl2:13", "--product-order", "7"
    ),
    "maximal_miller_symmetric_7.json": ("maximal", "miller", "--family", "symmetric", "--n", "7"),
    # degenerate order pairs: orders 1, a == b and orders no element has
    **{
        f"group_search_{name}.json": (
            "group", "search", "--group", group, "--orders", *orders.split(), *flags
        )
        for name, group, orders, flags in (
            ("cyc1_1_1", "cyc:1", "1 1", ()),
            ("cyc2_1_2", "cyc:2", "1 2", ()),
            ("cyc2_2_1_all", "cyc:2", "2 1", ("--all",)),
            ("sym3_2_2_all", "sym:3", "2 2", ("--all",)),
            ("cyc6_6_6_all", "cyc:6", "6 6", ("--all",)),
            ("cyc12_4_6_all", "cyc:12", "4 6", ("--all",)),
            ("sym3_cyc4_4_6_all", "prod:sym:3,cyc:4", "4 6", ("--all",)),
            ("alt6_4_5_all", "alt:6", "4 5", ("--all",)),
        )
    },
    "group_cosets_S4.json": ("group", "cosets", "--group", "S4", "--subgroup", "(0 1 2)"),
    "group_elements_psl2_7.json": ("group", "elements", "--group", "psl2:7"),
    "surface_genus_psl2_7.json": ("surface", "genus", "--oriented", str(ORIENTED)),
    **{
        f"action_quotient_fig3_s3_order{n}.json": (
            "action", "quotient", "--action", str(FIG3_S3), "--subgroup", subgroup
        )
        for n, subgroup in ((2, "(0 1)"), (3, "(0 1 2)"))
    },
    # unflip gives the new edges the ids after the largest, so these graphs
    # keep ids with gaps, as flip_all does in the --rho variant
    **{
        f"action_unflip_{name}.json": ("action", "unflip", "--action", str(path))
        for name, path in (("fig3_s3", FIG3_S3), ("fig3_z6", FIG3_Z6))
    },
}
DOT = {
    "surface_genus_psl2_7.dot": ("surface", "genus", "--oriented", str(ORIENTED)),
    # edge ids 0-7, 9 and 12-17: flip_all keeps the least id of each pair
    "cover_build_fig5.dot": ("cover", "build", "--spec", "fig5"),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*COMMANDS, *DOT])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_file(capsys, name):
    assert main([*COMMANDS[name], "--json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(DOT))
def test_dot_output_matches_golden_file(tmp_path, capsys, name):
    out = tmp_path / name
    assert main([*DOT[name], "--dot", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_canonical_orientation_json_matches_file():
    from hcov.maximal import build_maximal
    from hcov.oriented import OrientedGraph, canonical_orientation
    from hcov.permgroup import psl2, search_pairs

    G = psl2(7)
    tau, sigma = search_pairs(G, 2, 3, 7).pairs[0]
    text = ORIENTED.read_text()
    assert json.dumps(canonical_orientation(build_maximal(G, tau, sigma)).to_json()) + "\n" == text
    assert OrientedGraph.from_json(json.loads(text)).to_json() == json.loads(text)
