"""`hc ... --json` outputs pinned byte for byte.

Each file under tests/data/golden holds the output of one command below.
Cover graphs carry vertex and edge ids, which depend on how the group's
elements are numbered, so these outputs pin that numbering as well as the
counts.
"""

from pathlib import Path

import pytest

from hcov.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    **{
        f"cover_build_{spec}.json": ("cover", "build", "--spec", spec)
        for spec in ("fig4", "fig5", "fig6", "theta_s3")
    },
    "maximal_build_psl2_7.json": ("maximal", "build", "--group", "psl2:7"),
    "surface_check44_psl2_13.json": ("surface", "check44", "--group", "psl2:13"),
    "group_cosets_S4.json": ("group", "cosets", "--group", "S4", "--subgroup", "(0 1 2)"),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden_file(capsys, name):
    assert main([*COMMANDS[name], "--json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
