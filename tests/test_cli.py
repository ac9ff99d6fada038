import json
import logging
import os
import resource
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcov
from conftest import load_figure
from hcov import kernel, permgroup
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


def test_jobs_flag_keeps_output_identical(capsys, caplog):
    # every run is serial: --jobs above 1 changes nothing but a logged note
    code1, out1, _ = run(capsys, "maximal", "table", "--from", "2", "--to", "4", "--json")
    assert not caplog.records
    with caplog.at_level(logging.WARNING, logger="hcov"):
        code2, out2, _ = run(
            capsys, "maximal", "table", "--from", "2", "--to", "4", "--jobs", "2", "--json"
        )
    assert code1 == code2 == 0
    assert out1 == out2
    notes = [r.getMessage() for r in caplog.records if r.name == "hcov"]
    assert notes == ["--jobs 2: hc runs serially, with the same output"]


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


PSL2_7_PAIR = "(0 1)(2 3)(4 6)(5 7);(1 2 5)(4 6 7)"  # its product order is 7


@pytest.mark.parametrize("command", [("surface", "check44"), ("maximal", "build")])
@pytest.mark.parametrize(
    "value, message",
    [
        ("3", "--product-order 3: the pair's product order is 7"),
        ("0", "--product-order must be at least 1, got 0"),
    ],
)
def test_pair_is_checked_against_product_order(capsys, command, value, message):
    argv = (*command, "--group", "psl2:7", "--pair", PSL2_7_PAIR, "--product-order", value)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert run(capsys, *argv, "--json") == (
        1, "", json.dumps({"status": "fail", "error": message}) + "\n"
    )
    argv = (*command, "--group", "psl2:7", "--pair", PSL2_7_PAIR, "--product-order", "7")
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["group"] == "PSL(2,7)"


@pytest.mark.parametrize(
    "argv, named",
    [
        (("maximal", "table", "--from", "3", "--to", "2"), "--from 3 exceeds --to 2"),
        (("maximal", "table", "--from", "0", "--to", "3"), "--from must be at least 2"),
        (("group", "order", "--group", "prod:S3"), "'prod:S3': prod needs two factors A,B"),
        (("group", "order", "--group", "prod:S3,"), "'prod:S3,': prod needs two factors A,B"),
        (("group", "order", "--group", "S3", "--jobs", "0"), "--jobs must be at least 1, got 0"),
        (
            ("maximal", "classify", "--genus", "2", "--jobs", "-1"),
            "--jobs must be at least 1, got -1",
        ),
    ],
)
def test_malformed_flag_value_exits_one_naming_it(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and named in err


def test_surface_check44_hurwitz_psl2_41(capsys):
    # past the psl2 cap: genus 1 + |G|/84 again
    code, out, _ = run(
        capsys,
        "surface", "check44", "--group", "psl2:41", "--allow-large-psl2",
        "--product-order", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 34440
    assert payload["L"] == 4920
    assert payload["surface_genus"] == 411
    assert payload["holds"] is True


@pytest.mark.parametrize("spec, order", [("sym:10", 3628800), ("prod:sym:9,sym:3", 2177280)])
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_group_elements_past_the_cap_exits_one_before_listing(capsys, spec, order, flags):
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "elements", "--group", spec, *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    message = json.loads(err)["error"] if flags else err
    assert f"has {order} elements; listing them is capped at 2000000" in message


def test_no_hc_path_reaches_mulclose(capsys, monkeypatch):
    # mulclose is the tests' closure and the subgroup oracle's, never the CLI's
    def refuse(*args, **kwargs):
        raise AssertionError("mulclose called")

    monkeypatch.setattr(permgroup, "mulclose", refuse)
    monkeypatch.setattr(kernel, "mulclose", refuse)
    for argv in [
        ("group", "order", "--group", "S4"),  # loads the catalog
        ("group", "elements", "--group", "psl2:13"),
        ("maximal", "table", "--from", "2", "--to", "6"),
        ("maximal", "genus12"),
        ("group", "search", "--group", "psl2:13"),
        ("surface", "check44", "--group", "psl2:13", "--product-order", "7"),
    ]:
        assert main(list(argv)) == 0, argv


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("group", "order", "--group", "S3"), "--out"),
        (("cover", "build", "--spec", "fig4"), "--dot"),
        (("surface", "genus", "--oriented", str(DATA / "oriented_psl2_7.json")), "--dot"),
    ],
)
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_unwritable_output_path_exits_one_naming_the_flag(capsys, tmp_path, argv, flag, flags):
    path = str(tmp_path / "missing" / "out.txt")
    code, _, err = run(capsys, *argv, flag, path, *flags)
    assert code == 1
    assert "Traceback" not in err
    message = json.loads(err)["error"] if flags else err
    assert f"{flag}: cannot write {path}: No such file or directory" in message


def test_psl2_cap_names_the_cli_flag(capsys):
    code, out, err = run(capsys, "group", "order", "--group", "psl2:37")
    assert code == 1
    assert out == ""
    assert err == (
        "error: psl2 capped at p <= 31; pass allow_large=True (CLI: --allow-large-psl2)"
        " to override\n"
    )


# -- malformed input through a separate process --------------------------------

SRC = str(Path(hcov.__file__).resolve().parents[1])


def _cap_memory():
    # a runaway loop then ends in MemoryError instead of filling the machine
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit if hard < 0 else min(limit, hard), hard))


HC = (sys.executable, "-m", "hcov.cli")


def run_process(*argv):
    """(exit code, stdout, stderr) of the command argv, with hcov importable;
    a hang fails the test."""
    proc = subprocess.Popen(
        argv, env=dict(os.environ, PYTHONPATH=SRC), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_cap_memory,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail(f"{' '.join(argv)} did not finish within 30 s")
    return proc.returncode, out, err


S3_POINT = {"group": "S3", "base": {"tree": {"vertices": [0], "edges": []}}}
S3_PATH = {
    "group": "S3",
    "base": {"tree": {"vertices": [0, 1, 2], "edges": [
        {"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 2]},
    ]}},
}


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("multisets", {"0": [[[0, 0, 1], 1]]}, "multiset entry [0, 0, 1] is not a permutation"),
        ("inertia", {"0": [[0, 0, 1]]}, "not a permutation of degree 3: (0, 0, 1)"),
    ],
)
def test_non_permutation_in_cover_spec_exits_one(tmp_path, field, value, named):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(S3_POINT, **{field: value})))
    code, out, err = run_process(*HC, "cover", "rh", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert named in err
    assert "Traceback" not in err


def test_cycles_of_rejects_non_permutation():
    code, _, err = run_process(
        sys.executable, "-c", "from hcov.permgroup import cycle_string; cycle_string((0, 0, 1))"
    )
    assert code == 1
    assert err.splitlines()[-1] == "hcov.errors.GroupError: [0, 0, 1] is not a permutation"


def test_group_search_with_huge_order_builds_nothing_that_large():
    # element orders in S4 are at most 4, so the scan must stop there
    code, out, err = run_process(
        *HC, "group", "search", "--group", "S4", "--orders", "1000000000", "3", "--json"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["pairs"], payload["total_count"]) == ([], 0)


@pytest.mark.parametrize(
    "spec, named",
    [
        ({"base": S3_POINT["base"]}, "'group'"),
        ({"group": "S3"}, "'base.tree'"),
        ({"group": "S3", "base": {}}, "'base.tree'"),
        (dict(S3_POINT, inertia={"x": [[1, 2, 0]]}), "inertia.x"),
        (dict(S3_POINT, multisets={"1.5": [[[1, 0, 2], 1]]}), "multisets.1.5"),
        (dict(S3_POINT, multisets=[[[1, 0, 2], 1]]), "'multisets'"),
        (dict(S3_POINT, inertia={"0": 5}), "inertia.0"),
        (dict(S3_POINT, multisets={"0": [[[1, 0, 2], "x"]]}), "multiplicity 'x'"),
        ({"group": "S3", "base": {"tree": {"vertices": [0]}}}, "missing field 'edges'"),
        (
            {"group": "S3", "base": {"tree": {"vertices": [0, 1], "edges": [{"id": 0}]}}},
            "needs the fields 'id' and 'ends'",
        ),
        (dict(S3_PATH, multisets={"2": [5]}), "multisets.2.0"),
        (dict(S3_PATH, multisets={"2": [[[1, 0, 2]]]}), "multisets.2.0"),
        (dict(S3_PATH, inertia={"1": [7]}), "inertia.1.0"),
        (dict(S3_POINT, group="A4", multisets={"0": [[[1, 0, 2, 3], 1]]}), "not a member of A4"),
        (dict(S3_POINT, inertia={"9": [[1, 2, 0]]}), "inertia.9 is not a base vertex"),
        (dict(S3_POINT, multisets={"9": [[[1, 0, 2], 1]]}), "multisets.9 is not a base vertex"),
        (
            dict(S3_PATH, inertia={"1": [[0, 1]]}),
            "cover spec: inertia.1.0: not a permutation of degree 3: (0, 1)",
        ),
        (
            dict(S3_PATH, multisets={"1": [[[1, 0, 2], -1]]}),
            "cover spec: multisets.1.0: multiplicities must be non-negative",
        ),
    ],
)
def test_malformed_cover_spec_exits_one(capsys, tmp_path, spec, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "cover", "rh", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_cover_build_rejects_a_non_boolean_flipped(capsys, tmp_path):
    # the string "false" is truthy: read as a flag it would build the
    # flipped fig4 cover (15 edges instead of 18)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(load_figure("fig4.json"), flipped="false")))
    code, out, err = run(capsys, "cover", "build", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: cover spec: flipped must be true or false, got 'false'\n"


ACTION_SPECS = {
    name: json.loads((Path(hcov.__file__).parent / f"data/figures/{name}.json").read_text())
    for name in ("fig2_action", "fig3_s3_action", "fig3_z6_action")
}
FIG2 = ACTION_SPECS["fig2_action"]
THETA = {"vertices": [0, 1], "edges": [{"id": e, "ends": [0, 1]} for e in range(3)]}


@pytest.mark.parametrize(
    "argv, data, named",
    [
        (("group", "order", "--group"), {"generators": [[1, 0, 2]]}, "missing field 'degree'"),
        (("group", "order", "--group"), {"degree": 3}, "missing field 'generators'"),
        (
            ("action", "check", "--action"),
            {k: v for k, v in FIG2.items() if k != "edges"},
            "missing field 'edges'",
        ),
        (
            ("action", "check", "--action"),
            {k: v for k, v in FIG2.items() if k != "group"},
            "missing field 'group'",
        ),
        (
            ("action", "check", "--action"),
            dict(FIG2, edge_images={}),
            "missing field 'edge_images.0'",
        ),
        *[
            (
                ("action", "check", "--action"),
                dict(FIG2, **{field: dict(FIG2[field], **{"0": images})}),
                f"'{field}.0'",
            )
            for field, images in [
                ("vertex_images", [1, 2]),
                ("vertex_images", {"x": 1}),
                ("edge_images", None),
                ("edge_images", [1]),
            ]
        ],
        (("group", "order", "--group"), {"degree": 3, "generators": 7}, "'generators'"),
        (("group", "order", "--group"), {"degree": 3, "generators": [5]}, "'generators.0'"),
        (("group", "order", "--group"), {"degree": "x", "generators": []}, "'degree'"),
        (("surface", "genus", "--oriented"), THETA, "missing field 'rotation'"),
        (("surface", "genus", "--oriented"), dict(THETA, rotation=[[0, 0]]), "'rotation'"),
        (
            ("surface", "genus", "--oriented"),
            dict(THETA, rotation={"0": [[0, 5], [1, 0], [2, 0]]}),
            "'rotation.0.0'",
        ),
        (("surface", "genus", "--oriented"), dict(THETA, rotation={"0": 3}), "'rotation.0'"),
    ],
)
def test_missing_json_field_exits_one(capsys, tmp_path, argv, data, named):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and named in err


def _with(data, path, value):
    """A copy of a JSON document with the value at path replaced."""
    data = json.loads(json.dumps(data))
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    node[last] = value
    return data


FIG3_S3 = load_figure("fig3_s3_action.json")
FIG4 = load_figure("fig4.json")
ORIENTED = json.loads((DATA / "oriented_psl2_7.json").read_text())


@pytest.mark.parametrize(
    "argv, data, named",
    [
        (("action", "check", "--action"), _with(FIG3_S3, ("edges", 1, "id"), True), "'id'"),
        (("action", "check", "--action"), _with(FIG3_S3, ("edges", 0, "ends"), [True, 2]),
         "'ends'"),
        (("action", "check", "--action"), _with(FIG3_S3, ("vertex_images", "0", "1"), True),
         "'vertex_images.0.1'"),
        (("cover", "rh", "--spec"), _with(FIG4, ("base", "tree", "vertices", 0), True),
         "'vertices'"),
        (("surface", "genus", "--oriented"), _with(ORIENTED, ("edges", 0, "ends", 0), True),
         "'ends'"),
    ],
)
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_json_booleans_are_no_ids_or_images(capsys, tmp_path, argv, data, named, flags):
    # true == 1 in Python: each of these used to be read as the id or vertex 1
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path), *flags)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    message = json.loads(err)["error"] if flags else err
    assert named in message


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "order", "--group"),
        ("action", "check", "--action"),
        ("cover", "build", "--spec"),
        ("cover", "rh", "--spec"),
        ("surface", "genus", "--oriented"),
    ],
)
@pytest.mark.parametrize("text", ["not json", "5"])
def test_unreadable_input_file_exits_one(capsys, tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


JSON_VALUES = st.recursive(
    st.none() | st.integers(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _json_paths(data, prefix=()):
    """The path of every value nested in a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return []
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths += _json_paths(value, prefix + (key,))
    return paths


def _mutated(data, spec):
    """A copy of spec with the value at one drawn path replaced by a drawn
    JSON value."""
    spec = json.loads(json.dumps(spec))
    *parents, last = data.draw(st.sampled_from(_json_paths(spec)))
    target = spec
    for key in parents:
        target = target[key]
    target[last] = data.draw(JSON_VALUES)
    return spec


def _exits_zero_or_one(tmp_path_factory, argv, spec):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(spec))
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_action_spec_never_tracebacks(tmp_path_factory, data):
    spec = ACTION_SPECS[data.draw(st.sampled_from(sorted(ACTION_SPECS)))]
    _exits_zero_or_one(tmp_path_factory, ["action", "check", "--action"], _mutated(data, spec))


COVER_SPECS = {
    name: json.loads((Path(hcov.__file__).parent / f"data/figures/{name}.json").read_text())
    for name in ("fig4", "fig5", "fig6", "theta_s3")
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_cover_spec_never_tracebacks(tmp_path_factory, data):
    spec = COVER_SPECS[data.draw(st.sampled_from(sorted(COVER_SPECS)))]
    _exits_zero_or_one(tmp_path_factory, ["cover", "rh", "--spec"], _mutated(data, spec))


S4_SPEC = {"degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]], "name": "S4"}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_group_spec_never_tracebacks(tmp_path_factory, data):
    _exits_zero_or_one(tmp_path_factory, ["group", "order", "--group"], _mutated(data, S4_SPEC))


# the bundled catalog's order-6 section: Z6 and S3
CATALOG = json.loads((Path(hcov.__file__).parent / "data/catalog.json").read_text())[:1]
CATALOG_ARGV = ["group", "order", "--group", "S3", "--catalog"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_catalog_never_tracebacks(tmp_path_factory, data):
    _exits_zero_or_one(tmp_path_factory, CATALOG_ARGV, _mutated(data, CATALOG))


def _with_field(path, value):
    """A copy of CATALOG with the value at path replaced."""
    catalog = json.loads(json.dumps(CATALOG))
    *parents, last = path
    target = catalog
    for key in parents:
        target = target[key]
    target[last] = value
    return catalog


@pytest.mark.parametrize(
    "text, named",
    [
        (json.dumps([{"order": 6}]), "missing field '0.groups'"),
        (json.dumps({"order": 6}), "the top level must be a list"),
        (json.dumps(_with_field((0, "order"), "6")), "'0.order' must be an integer"),
        (json.dumps(_with_field((0, "groups", 1, "name"), 3)), "'0.groups.1.name'"),
        (json.dumps(_with_field((0, "groups", 1, "generators", 0), [0, 0, 1])),
         "'0.groups.1.generators.0'"),
        (json.dumps(_with_field((0, "groups", 0, "order_spectrum", "x"), 1)),
         "'0.groups.0.order_spectrum.x'"),
        ("not json", "cannot read JSON"),
        (None, "cannot read JSON"),  # a directory
    ],
    ids=["groups", "top", "order", "name", "generator", "spectrum", "not-json", "directory"],
)
def test_malformed_catalog_exits_one(capsys, tmp_path, text, named):
    path = tmp_path
    if text is not None:
        path = tmp_path / "catalog.json"
        path.write_text(text)
    code, out, err = run(capsys, *CATALOG_ARGV, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


def _oriented_graphs():
    from hcov.maximal import build_maximal
    from hcov.oriented import canonical_orientation
    from hcov.permgroup import alternating, perm_from_cycles, symmetric

    pairs = [
        (symmetric(3), [(0, 1)], [(0, 1, 2)]),
        (alternating(4), [(0, 1), (2, 3)], [(0, 1, 2)]),
    ]
    return [
        canonical_orientation(
            build_maximal(G, perm_from_cycles(t, G.degree), perm_from_cycles(s, G.degree))
        ).to_json()
        for G, t, s in pairs
    ]


ORIENTED_GRAPHS = _oriented_graphs()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_oriented_graph_never_tracebacks(tmp_path_factory, data):
    spec = data.draw(st.sampled_from(ORIENTED_GRAPHS))
    _exits_zero_or_one(tmp_path_factory, ["surface", "genus", "--oriented"], _mutated(data, spec))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["maximal", "build", "--group", "alt:6"], "A6 has no (2,3)-generating pair"),
        (
            ["surface", "check44", "--group", "S3", "--product-order", "7"],
            "S3 has no (2,3)-generating pair with product order 7",
        ),
    ],
)
def test_no_pair_error_text(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert run(capsys, *argv, "--json") == (
        1, "", json.dumps({"status": "fail", "error": message}) + "\n"
    )


def test_calls_in_one_process_match_separate_processes(capsys):
    # the parser is built once per process and reused by every later call
    calls = [
        ["group", "order", "--group", "S4", "--json"],
        ["group", "order", "--group", "S4"],
        ["group", "order", "--group", "nosuch"],
        ["group", "order"],
        ["group", "search", "--group", "S3", "--json"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == run_process(*HC, *argv), argv


def test_closed_pipe_exits_quietly():
    # S8's 40320 lines overfill the pipe, so hc is still writing when head exits
    hc = shlex.join([*HC, "group", "elements", "--group", "sym:8"])
    code, out, err = run_process("bash", "-c", f"{hc} | head -1; exit ${{PIPESTATUS[0]}}")
    assert out == "()\n"
    assert code == 1
    assert err == ""
