import json

import pytest

from sumlife.cli import main
from sumlife.config import build_config, parse_config_file
from sumlife.errors import ConfigError
from synth import distinct_recipes, predicate_pool, ring_triples, write_ntriples


@pytest.fixture()
def snapshot_files(tmp_path):
    pool = predicate_pool(4)
    recipes = distinct_recipes(pool, 5)
    paths = []
    for i in range(2):
        # second snapshot drops one recipe and adds a new predicate set
        rs = recipes[: 4 + i] if i == 0 else recipes[1:5] + [[pool[0], pool[3]]]
        path = tmp_path / f"2012-05-0{6 + i}.nt"
        write_ntriples(path, ring_triples(rs, 12, name_prefix=f"s{i}v"))
        paths.append(str(path))
    return paths


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# experiment\n"
        "model = ac2\n"
        "iterations = 7\n"
        "dropout = 0.1\n"
        "snapshots = a.nt, b.nt\n"
        "normalize_adjacency = true\n"
    )
    values = parse_config_file(cfg_file)
    assert values["model"] == "ac2"
    assert values["iterations"] == 7
    assert values["snapshots"] == ["a.nt", "b.nt"]
    assert values["normalize_adjacency"] is True


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("learning_rte = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg_file)


def test_config_precedence_env_and_flags(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 1\n")
    monkeypatch.setenv("SUMLIFE_SEED", "2")
    cfg = build_config(cfg_file, {})
    assert cfg.seed == 2
    cfg = build_config(cfg_file, {"seed": 3})
    assert cfg.seed == 3
    monkeypatch.delenv("SUMLIFE_SEED")
    cfg = build_config(cfg_file, {})
    assert cfg.seed == 1


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        build_config(None, {"model": "ac9"})
    with pytest.raises(ConfigError):
        build_config(None, {"restart": "tepid"})
    with pytest.raises(ConfigError):
        build_config(None, {"iterations": 0})


def test_cmd_summarize(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(["summarize", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out)])
    assert rc == 0
    assert (out / "eqcs.tsv").exists()
    assert (out / "summary_edges.tsv").exists()
    stats = json.loads((out / "stats.json").read_text())
    assert stats["model"] == "ac1"
    assert stats["eqcs"] >= 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"eqcs.tsv", "summary_edges.tsv", "stats.json"}


def test_cmd_summarize_rerun_identical(tmp_path, snapshot_files):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["summarize", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    m2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert m1 == m2
    assert (out1 / "eqcs.tsv").read_bytes() == (out2 / "eqcs.tsv").read_bytes()


def test_cmd_summarize_missing_input(tmp_path):
    rc = main(["summarize", "--in", str(tmp_path / "nope.nt"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_cmd_no_snapshots_is_config_error(tmp_path):
    rc = main(["summarize", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cmd_diff(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(["diff", "--model", "ac1", "--in", *snapshot_files, "--out", str(out)])
    assert rc == 0
    records = json.loads((out / "diff.json").read_text())
    assert len(records) == 2
    assert records[0]["jaccard_prev"] is None
    assert records[1]["jaccard_prev"] is not None
    # the second snapshot carries 5 ring classes
    assert records[1]["added"] + records[1]["recurring"] == 5
    meta_lines = (out / "meta.csv").read_text().splitlines()
    assert meta_lines[0].startswith("index,timestamp,eqcs,")
    assert len(meta_lines) == 3


def test_cmd_diff_identical_snapshots(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(
        ["diff", "--model", "ac1", "--in", snapshot_files[0], snapshot_files[0],
         "--timestamps", "a", "b", "--out", str(out)]
    )
    assert rc == 0
    records = json.loads((out / "diff.json").read_text())
    assert records[1]["added"] == 0
    assert records[1]["deleted"] == 0
    assert records[1]["jaccard_prev"] == 0.0
    assert records[1]["js_prev"] == 0.0


def test_cmd_diff_needs_two(tmp_path, snapshot_files):
    assert main(["diff", "--in", snapshot_files[0], "--out", str(tmp_path / "o")]) == 2


def test_cmd_lifelong_and_report(tmp_path, snapshot_files):
    out = tmp_path / "out"
    rc = main(
        ["lifelong", "--model", "ac1", "--architecture", "mlp",
         "--in", *snapshot_files, "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) >= {"acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all", "forgetting"}
    assert report["forgetting"].keys() == {"2"}
    assert (out / "task00.gslc").exists() and (out / "task01.gslc").exists()
    svg = (out / "heatmap.svg").read_text()
    assert svg.startswith("<svg") and svg.count("<rect") == 4

    # R.csv cell text appears in the heatmap rounded to 2 decimals
    from sumlife.reporting import read_matrix_csv

    r, _ = read_matrix_csv(out / "R.csv")
    for value in r.ravel():
        assert f">{value:.2f}</text>" in svg

    # recompute the report from the emitted matrix: bit-exact measures
    out2 = tmp_path / "re"
    rc = main(["report", "--matrix", str(out / "R.csv"), "--out", str(out2)])
    assert rc == 0
    rep1 = json.loads((out / "report.json").read_text())
    rep2 = json.loads((out2 / "report.json").read_text())
    for key in ("acc", "bwt", "fwt", "omega_base", "omega_new", "omega_all", "forgetting"):
        assert rep1[key] == rep2[key]


def test_cmd_eval_checkpoint(tmp_path, snapshot_files):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    ) == 0
    out_eval = tmp_path / "eval"
    rc = main(
        ["eval", "--ckpt", str(out / "task01.gslc"), "--model", "ac1",
         "--in", snapshot_files[1], "--out", str(out_eval), "--seed", "5"]
    )
    assert rc == 0
    payload = json.loads((out_eval / "eval.json").read_text())
    assert 0.0 <= payload["test_accuracy"] <= 1.0


def test_cmd_eval_defaults_to_checkpoint_seed(tmp_path, snapshot_files):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    ) == 0
    from sumlife.reporting import read_matrix_csv

    r, _ = read_matrix_csv(out / "R.csv")
    out_eval = tmp_path / "eval_default"
    # no --seed given: the split seed comes from the checkpoint header, so the
    # reported accuracy equals the harness's R entry for the same pair
    assert main(
        ["eval", "--ckpt", str(out / "task01.gslc"), "--model", "ac1",
         "--in", snapshot_files[0], "--out", str(out_eval)]
    ) == 0
    payload = json.loads((out_eval / "eval.json").read_text())
    assert payload["test_accuracy"] == r[1, 0]


def test_cmd_lifelong_time_warp(tmp_path, snapshot_files):
    out = tmp_path / "out"
    assert main(
        ["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
         "--iterations", "12", "--seed", "5"]
    ) == 0
    out_tw = tmp_path / "tw"
    rc = main(
        ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--out", str(out_tw),
         "--iterations", "12", "--seed", "5", "--time-warp", str(out / "task00.gslc")]
    )
    assert rc == 0
    tw = json.loads((out_tw / "timewarp.json").read_text())
    assert set(tw) == {
        "frozen_accuracy", "frozen_unseen_fraction", "retrained_accuracy", "cold_accuracy"
    }


def test_manifest_config_roundtrip(tmp_path, snapshot_files):
    out1 = tmp_path / "o1"
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files,
                 "--out", str(out1), "--iterations", "8", "--seed", "3"]) == 0
    echoed = json.loads((out1 / "manifest.json").read_text())["config"]
    cfg_file = tmp_path / "echo.cfg"
    lines = []
    for key, value in echoed.items():
        if value is None or key == "out_dir":
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    cfg_file.write_text("\n".join(lines) + "\n")
    out2 = tmp_path / "o2"
    assert main(["lifelong", "--config", str(cfg_file), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())["outputs"]
    m2 = json.loads((out2 / "manifest.json").read_text())["outputs"]
    assert m1 == m2


def test_env_seed_changes_outputs(tmp_path, snapshot_files, monkeypatch):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    monkeypatch.setenv("SUMLIFE_SEED", "5")
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out1), "--iterations", "6"]) == 0
    monkeypatch.setenv("SUMLIFE_SEED", "6")
    assert main(["lifelong", "--model", "ac1", "--in", *snapshot_files, "--out", str(out2), "--iterations", "6"]) == 0
    assert (out1 / "R.csv").read_bytes() != (out2 / "R.csv").read_bytes()


def test_cmd_eval_unreadable_checkpoint_exits_1(tmp_path, snapshot_files, capsys):
    out = tmp_path / "run"
    assert main(["lifelong", "--model", "ac1", "--in", snapshot_files[0], "--out", str(out),
                 "--iterations", "2"]) == 0
    good = (out / "task00.gslc").read_bytes()
    header_len = int.from_bytes(good[8:12], "little")
    cases = {
        "garbage.gslc": b"not a checkpoint at all",
        "magic_only.gslc": b"GSLC",
        "cut_header.gslc": good[: 12 + header_len // 2],
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        for argv in (
            ["eval", "--model", "ac1", "--in", snapshot_files[0], "--ckpt", str(path)],
            ["lifelong", "--model", "ac1", "--in", snapshot_files[1], "--time-warp", str(path)],
        ):
            rc = main([*argv, "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert rc == 1, name
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert name in err
