"""CLI tests: subcommands, persistence, exit codes."""

import json
import struct

import numpy as np
import pytest

from fscil import protocol
from fscil.cli import main
from fscil.harness import load_idx_images, load_idx_labels

from test_protocol import small_config


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    small_config().save(path)
    return path


def test_run_and_metrics_commands(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--seed", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "run hash:" in printed
    assert (out / "metrics.json").exists()

    assert main(["metrics", "--run", str(out)]) == 0
    shown = capsys.readouterr().out
    assert json.loads(shown)["average_accuracy"] == json.loads((out / "metrics.json").read_text())["average_accuracy"]


def test_metrics_missing_run_exit_code(tmp_path, capsys):
    assert main(["metrics", "--run", str(tmp_path / "nothing")]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_blobs_writes_loadable_idx(tmp_path, capsys):
    out = tmp_path / "blobs"
    code = main(
        ["gen-blobs", "--classes", "4", "--dim", "16", "--shots", "6", "--out", str(out), "--seed", "2", "--test-per-class", "3"]
    )
    assert code == 0
    images = load_idx_images(out / "train-images.idx")
    labels = load_idx_labels(out / "train-labels.idx")
    assert images.shape == (24, 1, 4, 4)
    assert np.array_equal(np.sort(np.unique(labels)), np.arange(4))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["bayes_accuracy"] > 0.99


def test_gen_blobs_bad_dim_exit_code(tmp_path, capsys):
    assert main(["gen-blobs", "--classes", "3", "--dim", "15", "--shots", "4", "--out", str(tmp_path / "x")]) == 2
    assert "perfect square" in capsys.readouterr().err


def test_ablate_command_without_toggle(tmp_path, config_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["ablate", "--config", str(config_path), "--seeds", "3", "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "full system" in printed
    report = json.loads(report_path.read_text())
    assert report["toggle"] is None and "baseline" in report


def test_cli_rejects_unknown_ablation_choice(config_path):
    with pytest.raises(SystemExit):
        main(["ablate", "--config", str(config_path), "--without", "nonsense"])


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("training", "pseudo_stats", "all"),
        ("model", "prefix_capable", True),
        ("model", "bn_placement", "between"),
        ("model", "final_norm", True),
        ("model", "conv_kernel", 3),
        ("model", "conv_stride", 1),
        ("model", "conv_padding", 1),
        ("model", "pool_size", 2),
        ("model", "pool_stride", 2),
        ("model", "conv_channels", [32]),
        ("training", "run_probe", False),
        ("training", "probe_optimizer", "adam"),
        ("training", "probe_lr", 0.001),
        ("training", "probe_batch_size", 100),
        ("training", "probe_epochs", 200),
        ("training", "probe_early_stop", 10),
    ],
)
def test_run_rejects_removed_config_key(tmp_path, capsys, section, key, value):
    data = small_config().to_dict()
    data[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_patch_size_that_does_not_tile_the_image(tmp_path, capsys):
    data = small_config().to_dict()
    data["model"]["patch_size"] = 3  # the images are 4x4
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "run")]) == 2
    assert "patch_size 3 does not divide the 4x4 map" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("train_per_class, code", [(1, 5), (2, 0)])
def test_forced_mahalanobis_with_one_sample_per_class_exits_with_a_numeric_error(tmp_path, capsys, train_per_class, code):
    # one sample per class leaves a zero scatter, so the regularized covariance is singular
    data = small_config(train_per_class=train_per_class).to_dict()
    data["split"]["shots"] = 1
    data["metric"] = "mahalanobis"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert ("use the euclidean metric" in err) == (code == 5)


def test_run_on_an_idx_file_with_an_overflowing_header_exits_with_a_format_error(tmp_path, capsys):
    out = tmp_path / "blobs"
    assert main(["gen-blobs", "--classes", "4", "--dim", "16", "--shots", "6", "--out", str(out), "--seed", "2", "--test-per-class", "3"]) == 0
    (out / "train-images.idx").write_bytes(struct.pack(">IIII", 0x00000803, *[0xFFFFFFFF] * 3) + bytes(16))
    data = small_config().to_dict()
    data["dataset"] = {"kind": "idx", **{key: str(out / f"{key.replace('_', '-')}.idx") for key in ("train_images", "train_labels", "test_images", "test_labels")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "run")]) == 3
    assert "truncated at byte 32" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, phase",
    [
        ("ssl_batch_size", 0, "ssl"),
        ("sup_batch_size", 0, "supervised"),
        ("inc_batch_size", 0, "incremental"),
        ("prednet_batch_size", 0, "prediction_net"),
        ("prefix_len", -2, "prefix length"),
    ],
)
def test_run_rejects_a_batch_size_below_one_or_a_negative_prefix_length(tmp_path, capsys, key, value, phase):
    data = small_config().to_dict()
    data["training"][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--config", str(path), "--seed", "0", "--out", str(tmp_path / "run")]) == 2
    assert phase in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, section, key, value, message",
    [
        ("ablate --config {config} --seeds a", None, None, None, "--seeds 'a' is not a comma-separated list of integers"),
        ("gen-blobs --classes 0 --dim 16 --shots 4 --out {out}", None, None, None, "blob classes must be at least 1, got 0"),
        ("gen-blobs --classes 3 --dim 16 --shots 0 --out {out}", None, None, None, "blob samples_per_class must be at least 1, got 0"),
        ("gen-blobs --classes 3 --dim 16 --shots 4 --test-per-class -1 --out {out}", None, None, None, "blob test_per_class must be at least 0, got -1"),
        ("gen-blobs --classes 3 --dim 0 --shots 4 --out {out}", None, None, None, "blob dim must be at least 1, got 0"),
        ("run --config {config} --seed 0 --out {out}", "dataset", "classes", 0, "blob classes must be at least 1, got 0"),
        ("run --config {config} --seed 0 --out {out}", "dataset", "test_per_class", 0, "the test set holds 0 samples of the 4 classes seen by session 0"),
        ("run --config {config} --seed 0 --out {out}", "model", "heads", 0, "heads must be at least 1, got 0"),
        ("run --config {config} --seed 0 --out {out}", "model", "layers", -1, "layers must be at least 0, got -1"),
    ],
)
def test_a_bad_argument_or_config_value_exits_2_with_one_line_before_any_training(tmp_path, capsys, monkeypatch, argv, section, key, value, message):
    data = small_config().to_dict()
    if section is not None:
        data[section][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    monkeypatch.setattr(protocol, "train_base", lambda *args, **kwargs: pytest.fail("training started"))
    assert main(argv.format(config=config, out=tmp_path / "out").split()) == 2
    assert capsys.readouterr().err == f"error (ArgumentError): {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, value, message",
    [
        (None, [], "a run config must be a JSON object, got []"),
        ("model", 5, "config section 'model' must be a JSON object, got 5"),
        ("split", None, "config section 'split' must be a JSON object, got null"),
        ("training", {"ssl_epochs": "3"}, 'training.ssl_epochs must be an integer, got "3"'),
        ("model", {"layers": True}, "model.layers must be an integer, got true"),
        ("split", {"shots": 2.0}, "split.shots must be an integer, got 2.0"),
        ("training", {"sup_lr": "0.1"}, 'training.sup_lr must be a number, got "0.1"'),
        ("training", {"delta_params": 1}, "training.delta_params must be a boolean, got 1"),
        ("training", {"optimizer": ["adam"]}, 'training.optimizer must be a string, got ["adam"]'),
        ("training", {"local_crop_scale": 0.3}, "training.local_crop_scale must be an array, got 0.3"),
        ("dataset", {"seed": 1.5}, "dataset.seed must be an integer or null, got 1.5"),
    ],
)
def test_a_config_of_the_wrong_json_type_exits_2_with_one_line_before_any_training(tmp_path, capsys, monkeypatch, section, value, message):
    data = value if section is None else {**small_config().to_dict(), section: value}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    monkeypatch.setattr(protocol, "train_base", lambda *args, **kwargs: pytest.fail("training started"))
    assert main(["run", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error (ArgumentError): {message}\n"
    assert not (tmp_path / "out").exists()
