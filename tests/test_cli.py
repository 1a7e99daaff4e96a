import json

import pytest

from tfm.cli import main

F1_FAN = {
    "dim": 2,
    "rays": [[1, 0], [1, 1], [0, 1], [-1, -1]],
    "cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}
FV_PAIR = {"subspace": [["1", "1"]], "delta": {}}
FW_PAIR = {"subspace": [["1", "0"]], "delta": {}}
P112_FAN = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -2]],
    "cones": [[0, 1], [1, 2], [2, 0]],
}
P2_FAN = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "cones": [[0, 1], [1, 2], [2, 0]],
}
CUBE_RAYS = [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)]
CUBE_FAN = {
    "dim": 3,
    "rays": CUBE_RAYS,
    "cones": [
        [i for i, r in enumerate(CUBE_RAYS) if r[axis] == sgn]
        for axis in range(3)
        for sgn in (1, -1)
    ],
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    code, out = run(capsys, ["validate", "--fan", fan])
    assert code == 0
    assert "valid" in out


def test_validate_duplicate_ray_exits_1(tmp_path, capsys):
    bad = dict(F1_FAN, rays=[[1, 0], [1, 0], [0, 1], [-1, -1]])
    fan = write(tmp_path, "bad.fan.json", bad)
    code, out = run(capsys, ["validate", "--fan", fan])
    assert code == 1
    assert "duplicate ray" in out


def test_schema_error_exits_2(tmp_path, capsys):
    fan = write(tmp_path, "broken.fan.json", {"dim": 2, "rays": [[1, 0]]})
    code, _ = run(capsys, ["validate", "--fan", fan])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_mori_golden_table(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fv.pair.json", FV_PAIR)
    code, out = run(capsys, ["mori", "--fan", fan, "--pair", pair, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_ok"] is True
    lengths = sorted(e["length"] for e in payload["rays"])
    assert lengths == ["-1", "2"]
    kinds = {tuple(e["generator"]): e["kind"] for e in payload["rays"]}
    assert kinds[("0", "1", "0", "1")] == "fiber"
    assert kinds[("1", "-1", "1", "0")] == "divisorial"


def test_mori_w_pair(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fw.pair.json", FW_PAIR)
    code, out = run(capsys, ["mori", "--fan", fan, "--pair", pair, "--json"])
    payload = json.loads(out)
    assert sorted(e["length"] for e in payload["rays"]) == ["0", "1"]


def test_kodaira_p112(tmp_path, capsys):
    fan = write(tmp_path, "p112.fan.json", P112_FAN)
    pair = write(tmp_path, "full.pair.json", {"subspace": [["1", "0"], ["0", "1"]], "delta": {}})
    div = write(tmp_path, "d3.div.json", {"coeffs": ["0", "0", "1"]})
    code, out = run(
        capsys,
        ["kodaira", "--fan", fan, "--pair", pair, "--divisor", div, "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == [2, 0, 0]
    assert payload["hypothesis"]["ok"] is True
    assert payload["vanishing_ok"] is True


def test_cohomology_cli(tmp_path, capsys):
    fan = write(tmp_path, "p2.fan.json", P2_FAN)
    div = write(tmp_path, "k.div.json", {"coeffs": ["-1", "-1", "-1"]})
    code, out = run(capsys, ["cohomology", "--fan", fan, "--divisor", div, "--json"])
    assert code == 0
    assert json.loads(out)["h"] == [0, 0, 1]


def test_info_and_qfact(tmp_path, capsys):
    fan = write(tmp_path, "cube.fan.json", CUBE_FAN)
    code, out = run(capsys, ["info", "--fan", fan, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["simplicial"] is False and payload["complete"] is True

    out_path = str(tmp_path / "cube-qfact.fan.json")
    code, out = run(capsys, ["qfact", "--fan", fan, "--out", out_path])
    assert code == 0
    refined = json.loads(open(out_path).read())
    assert len(refined["cones"]) == 12


def test_cone_check_cli(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fv.pair.json", FV_PAIR)
    code, out = run(capsys, ["cone-check", "--fan", fan, "--pair", pair])
    assert code == 0
    assert "verified" in out


def test_bundle_cli(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    # ray 0 in canonical order is (0,1,0,1): the fiber ray
    code, out = run(capsys, ["bundle", "--fan", fan, "--ray", "0", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bundle"]["line_degrees"] == [1]


def test_mmp_cli(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fw.pair.json", FW_PAIR)
    code, out = run(capsys, ["mmp", "--fan", fan, "--pair", pair, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [s["kind"] for s in payload["steps"]] == ["divisorial", "fiber"]
    assert payload["terminal"] == "mori_fiber_space"


def test_mmp_step_cap_exits_1(tmp_path, capsys):
    # a cap the program needs more steps than is the caller's limit,
    # not an internal error
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fw.pair.json", FW_PAIR)
    code = main(["mmp", "--fan", fan, "--pair", pair, "--max-steps", "1"])
    assert code == 1
    assert "did not terminate within 1 steps" in capsys.readouterr().err


def test_discrepancy_cli(tmp_path, capsys):
    fan = write(tmp_path, "p2.fan.json", P2_FAN)
    pair = write(tmp_path, "full.pair.json", {"subspace": [["1", "0"], ["0", "1"]], "delta": {}})
    code, out = run(
        capsys, ["discrepancy", "--fan", fan, "--pair", pair, "--w", "1,1", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == "1" and payload["iota"] == 1


def test_build_bundle_cli(tmp_path, capsys):
    base = write(
        tmp_path, "p1.fan.json", {"dim": 1, "rays": [[1], [-1]], "cones": [[0], [1]]}
    )
    code, out = run(capsys, ["build-bundle", "--base", base, "--degrees", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2 and len(payload["rays"]) == 4


def test_fujita_cli(tmp_path, capsys):
    fan = write(tmp_path, "p2.fan.json", P2_FAN)
    pair = write(tmp_path, "v.pair.json", {"subspace": [["1", "0"]], "delta": {}})
    amp = write(tmp_path, "a.div.json", {"coeffs": ["1", "0", "0"]})
    code, out = run(
        capsys, ["fujita", "--fan", fan, "--pair", pair, "--ample", amp, "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["freeness_nef"] is True and payload["ok"] is True


def test_json_deterministic(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fv.pair.json", FV_PAIR)
    _, out1 = run(capsys, ["mori", "--fan", fan, "--pair", pair, "--json"])
    _, out2 = run(capsys, ["mori", "--fan", fan, "--pair", pair, "--json"])
    assert out1 == out2
    json.loads(out1)  # round-trips


def test_mori_bundle_field(tmp_path, capsys):
    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    code, out = run(capsys, ["mori", "--fan", fan, "--json"])
    assert code == 0
    payload = json.loads(out)
    fiber_entries = [e for e in payload["rays"] if e["kind"] == "fiber"]
    assert fiber_entries and fiber_entries[0]["bundle"]["line_degrees"] == [1]


def test_non_qcartier_pair_exits_1(tmp_path, capsys):
    fan = write(tmp_path, "cube.fan.json", CUBE_FAN)
    pair = write(tmp_path, "v.pair.json", {"subspace": [["1", "1", "1"]], "delta": {}})
    code, _ = run(capsys, ["mori", "--fan", fan, "--pair", pair])
    assert code == 1


def test_cli_byte_identical_across_processes(tmp_path):
    import subprocess
    import sys

    fan = write(tmp_path, "f1.fan.json", F1_FAN)
    pair = write(tmp_path, "fv.pair.json", FV_PAIR)
    argv = [
        sys.executable,
        "-c",
        "import sys; from tfm.cli import main; sys.exit(main(sys.argv[1:]))",
        "mori",
        "--fan",
        fan,
        "--pair",
        pair,
        "--json",
    ]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    """A failing runtime certificate is an internal error: exit code 3
    and one line on stderr, not a traceback and not the counterexample
    code 1."""
    from tfm import fan as fanmod

    def broken_certificate(out, pieces):
        raise RuntimeError("pulling triangulation produced a non-regular refinement")

    monkeypatch.setattr(fanmod, "_relative_convexity_certificate", broken_certificate)
    fan = write(tmp_path, "cube.fan.json", CUBE_FAN)
    code = main(["qfact", "--fan", fan, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "internal error: pulling triangulation produced a non-regular refinement\n"
    )
