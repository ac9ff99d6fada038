import json

import pytest

from hcov.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_order(capsys):
    code, out, _ = run(capsys, "group", "order", "--group", "S4", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 24


def test_group_order_psl2(capsys):
    code, out, _ = run(capsys, "group", "order", "--group", "psl2:7")
    assert code == 0
    assert "168" in out


def test_group_cosets(capsys):
    code, out, _ = run(
        capsys, "group", "cosets", "--group", "S3", "--subgroup", "(0 1 2)", "--json"
    )
    assert code == 0
    assert json.loads(out)["index"] == 2


def test_group_search_json(capsys):
    code, out, _ = run(
        capsys,
        "group", "search", "--group", "psl2:7", "--product-order", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["representative_count"] > 0
    assert payload["product_order"] == 7


def test_group_search_all_flag(capsys):
    code, out, _ = run(capsys, "group", "search", "--group", "S3", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["representative_count"] == payload["total_count"] == 6


def test_unknown_group_exits_one(capsys):
    code, _, err = run(capsys, "group", "order", "--group", "Nope")
    assert code == 1
    assert "error" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_action_check_fig2(capsys):
    code, out, _ = run(capsys, "action", "check", "--action", "fig2_action", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["harmonic"] is False
    assert payload["witness"]["dart"][0] == 3


def test_action_unflip_flip_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, "action", "unflip", "--action", "fig3_s3_action", "--json",
        "--out", str(tmp_path / "unflipped.json"),
    )
    assert code == 0
    assert len(json.loads(out)["edges"]) == 6
    code, out, _ = run(
        capsys, "action", "flip", "--action", str(tmp_path / "unflipped.json"), "--json"
    )
    assert code == 0
    assert len(json.loads(out)["edges"]) == 3


def test_cover_build_profile_round_trip(capsys, tmp_path):
    built = tmp_path / "fig6_built.json"
    code, out, _ = run(capsys, "cover", "build", "--spec", "fig6", "--out", str(built))
    assert code == 0
    assert "8 vertices, 9 edges" in out
    code, out, _ = run(capsys, "cover", "profile", "--spec", str(built), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == "7/3"
    assert payload["case"] == "iii"
    assert payload["maximal"] is True


def test_cover_rh(capsys):
    code, out, _ = run(capsys, "cover", "rh", "--spec", "fig6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"R": "7/3", "lhs": 2, "rhs": "2", "holds": True, "sign": "+R"}


def test_cover_rh_strict_sign_fails(capsys):
    code, out, _ = run(capsys, "cover", "rh", "--spec", "fig6", "--strict-sign", "--json")
    assert code == 1
    assert json.loads(out)["holds"] is False


def test_cover_classify(capsys):
    code, out, _ = run(capsys, "cover", "classify", "--spec", "theta_s3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "i"
    assert payload["maximal"] is True


def test_maximal_build(capsys):
    code, out, _ = run(
        capsys, "maximal", "build", "--group", "psl2:7", "--product-order", "7", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 56
    assert payload["edges"] == 84
    assert payload["genus"] == 29
    assert payload["branch_case"] == "i"


def test_maximal_build_rho(capsys):
    code, out, _ = run(capsys, "maximal", "build", "--group", "S3", "--rho", "--json")
    assert code == 0
    assert json.loads(out)["rho_variant"]["isomorphic_to_direct"] is True


def test_maximal_build_explicit_pair(capsys):
    code, out, _ = run(
        capsys,
        "maximal", "build", "--group", "S3", "--pair", "(0 1);(0 1 2)", "--json",
    )
    assert code == 0
    assert json.loads(out)["genus"] == 2


def test_maximal_table_matches_published_rows(capsys):
    code, out, _ = run(capsys, "maximal", "table", "--from", "2", "--to", "6", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["maximal_groups"] for r in rows] == [
        ["S3", "Z6"],
        ["A4"],
        ["S3xZ3"],
        ["A4xZ2", "S4"],
        [],
    ]


def test_maximal_table_text(capsys):
    code, out, _ = run(capsys, "maximal", "table", "--from", "2", "--to", "3")
    assert code == 0
    assert "maximal graph groups" in out
    assert "S3, Z6" in out
    assert "A4" in out


def test_maximal_miller(capsys):
    code, out, _ = run(capsys, "maximal", "miller", "--family", "alternating", "--n", "5")
    assert code == 0
    assert "True" in out


def test_maximal_genus12(capsys):
    code, out, _ = run(capsys, "maximal", "genus12", "--json")
    assert code == 0
    assert json.loads(out)["no_maximal_graph_of_genus_12"] is True


def test_surface_genus_from_file(capsys, tmp_path):
    # export an oriented graph via the library, read it back through the CLI
    from hcov.maximal import build_maximal
    from hcov.oriented import canonical_orientation
    from hcov.permgroup import perm_from_cycles, symmetric

    mc = build_maximal(
        symmetric(3), perm_from_cycles([(0, 1)], 3), perm_from_cycles([(0, 1, 2)], 3)
    )
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(canonical_orientation(mc).to_json()))
    code, out, _ = run(capsys, "surface", "genus", "--oriented", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["L"] == 3
    assert payload["surface_genus"] == 0


def test_surface_check44(capsys):
    code, out, _ = run(
        capsys,
        "surface", "check44", "--group", "psl2:7", "--product-order", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["hurwitz"] is True
    assert payload["surface_genus"] == 3


def test_surface_check44_hurwitz_psl2_29(capsys):
    # PSL(2,29) with |tau*sigma| = 7: the genus 1 + |G|/84 Hurwitz surface
    code, out, _ = run(
        capsys,
        "surface", "check44", "--group", "psl2:29", "--product-order", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 12180
    assert payload["L"] == 1740
    assert payload["surface_genus"] == 146
    assert payload["holds"] is True


def test_hc_catalog_env_var(capsys, tmp_path, monkeypatch):
    # a catalog with a bad fingerprint is rejected when HC_CATALOG points at it
    bad = tmp_path / "cat.json"
    bad.write_text(
        json.dumps(
            [
                {
                    "order": 6,
                    "groups": [
                        {
                            "name": "S3",
                            "degree": 3,
                            "generators": [[1, 0, 2], [1, 2, 0]],
                            "order_spectrum": {"1": 1, "2": 1, "3": 4},
                        },
                        {
                            "name": "Z6",
                            "degree": 5,
                            "generators": [[1, 0, 3, 4, 2]],
                            "order_spectrum": {"1": 1, "2": 1, "3": 2, "6": 2},
                        },
                    ],
                }
            ]
        )
    )
    monkeypatch.setenv("HC_CATALOG", str(bad))
    code, _, err = run(capsys, "group", "order", "--group", "S3")
    assert code == 1
    assert "spectrum" in err


def test_spec_accepts_bundled_name_with_suffix(capsys):
    code, out, _ = run(capsys, "cover", "rh", "--spec", "fig6.json", "--json")
    assert code == 0
    assert json.loads(out)["R"] == "7/3"


def test_jobs_flag_keeps_output_identical(capsys):
    code1, out1, _ = run(capsys, "maximal", "table", "--from", "2", "--to", "4", "--json")
    code2, out2, _ = run(
        capsys, "maximal", "table", "--from", "2", "--to", "4", "--jobs", "2", "--json"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_group_search_psl2_13_counts(capsys):
    code, out, _ = run(capsys, "group", "search", "--group", "psl2:13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["representative_count"] == 96
    assert payload["total_count"] == 8736


@pytest.mark.parametrize(
    "argv, named",
    [
        (("group", "search", "--group", "psl2:abc"), "'abc'"),
        (("group", "order", "--group", "sym:x"), "'x'"),
        (("group", "order", "--group", "prod:alt:4,cyc:z"), "'z'"),
    ],
)
def test_non_integer_group_argument_exits_one(capsys, argv, named):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("group", "search", "--group", "S3", "--orders", "0", "3"), "--orders"),
        (("group", "search", "--group", "S3", "--orders", "2", "-3"), "--orders"),
        (("group", "search", "--group", "S3", "--product-order", "0"), "--product-order"),
        (("maximal", "build", "--group", "S3", "--product-order", "0"), "--product-order"),
    ],
)
def test_non_positive_orders_exit_one(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err
