import json

import pytest

from polyvem.cli import build_parser, main, spec_from_args


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.problem == "test1-2d"
    assert args.order == 1
    assert args.method == "nitsche"


def test_spec_resolution_bh_params():
    args = build_parser().parse_args(
        ["--method", "bh", "--alpha", "0.001", "--kprime", "k-1", "--order", "2"])
    spec = spec_from_args(args)
    assert spec.method == "bh"
    assert spec.kprime == "k-1"
    assert spec.bc_config().resolved_kprime == 1


def test_spec_resolution_correction_auto():
    args = build_parser().parse_args(
        ["--problem", "disk", "--correction", "on", "--kstar", "auto",
         "--sigma", "distance-gradient", "--order", "2"])
    spec = spec_from_args(args)
    assert spec.correction and spec.kstar == "auto"
    assert spec.correction_config("h_squared").kstar == 1
    assert spec.correction_config("h_squared").sigma_strategy == "distance_gradient"


def test_cli_writes_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "--problem", "test1-2d", "--order", "2", "--method", "nitsche",
        "--gamma", "100", "--mesh", "structured", "--levels", "2",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["levels"]) == 2
    assert doc["spec"]["gamma"] == 100.0


def test_cli_csv_to_stdout(capsys):
    code = main(["--problem", "test1-2d", "--mesh", "structured",
                 "--levels", "2", "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("mesh,N_P")


def test_cli_invalid_flag_exits_2():
    assert main(["--method", "galerkin"]) == 2


def test_cli_incompatible_mesh_exits_2(capsys):
    assert main(["--problem", "test1-2d", "--mesh", "disk"]) == 2
    assert "curved" in capsys.readouterr().err


def test_cli_correction_on_a_polygon_mesh_exits_2(capsys):
    # the study once ran uncorrected while its report said correction: True
    assert main(["--problem", "test1-2d", "--mesh", "voronoi", "--correction", "on"]) == 2
    assert "correction needs a curved mesh family, got mesh 'voronoi'" in capsys.readouterr().err


@pytest.mark.parametrize("value,message", [
    ("7", "unknown kstar 7"),
    # these once printed int()'s message, which named no option
    ("x", "argument --kstar: expected 'auto' or an integer, got 'x'"),
    ("1.5", "argument --kstar: expected 'auto' or an integer, got '1.5'"),
], ids=["7", "x", "1.5"])
def test_cli_bad_kstar_exits_2(value, message, capsys):
    assert main(["--problem", "disk", "--kstar", value, "--order", "2"]) == 2
    assert message in capsys.readouterr().err


def test_cli_quarter_disk_squares(tmp_path):
    out = tmp_path / "qd.json"
    code = main([
        "--problem", "quarter-disk", "--order", "1", "--gamma", "1000",
        "--refine-steps", "1", "--levels", "1", "--kstar", "1",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["levels"][0]["tau_hat"] is not None
    worst = doc["levels"][0]["tau_worst_edge"]
    assert isinstance(worst, int) and worst >= 0
