import numpy as np
import pytest

from esckit import cli
from esckit import config as cfg
from esckit.cachefile import CACHE_VERSIONS, CHECKPOINT_VERSION, read_cache
from esckit.features import SAMPLE_RATE
from test_dataset import meta_csv, write_wav


class TestConfig:
    def test_parse_sections(self):
        text = """
# comment line
run.seed = 7
run.out_dir = out
data.cache = cache.lgt
data.variant = esc10
train.lr0 = 0.02
train.epochs = 5
augment.mixup_alpha = 0.4
augment.stretch_range = 0.9,1.2
model.attention_placement = l2
model.num_classes = 10
model.conv_channels = 2,2,3,3,4,4,5,5
"""
        config = cfg.parse_config(text)
        assert config.seed == 7 and config.out_dir == "out"
        assert config.cache == "cache.lgt" and config.variant == "esc10"
        assert config.train.lr0 == 0.02 and config.train.epochs == 5
        assert config.augment.mixup_alpha == 0.4
        assert config.augment.stretch_range == (0.9, 1.2)
        assert config.model.attention_placement == "l2"
        assert config.model.conv_channels == (2, 2, 3, 3, 4, 4, 5, 5)

    def test_master_seed_propagates(self):
        config = cfg.parse_config("run.seed = 11\n")
        assert config.train.seed == 11
        assert config.augment.rng_seed == 11
        config = cfg.parse_config("run.seed = 11\ntrain.seed = 3\n")
        assert config.train.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(cfg.ConfigError, match="train.lr_zero"):
            cfg.parse_config("train.lr_zero = 0.1\n")
        # weight decay is train.l2_coeff alone; the model carries no copy of it
        with pytest.raises(cfg.ConfigError, match="model.l2_coeff"):
            cfg.parse_config("model.l2_coeff = 0\n")
        with pytest.raises(cfg.ConfigError, match="no section"):
            cfg.parse_config("epochs = 5\n")
        with pytest.raises(cfg.ConfigError, match="key = value"):
            cfg.parse_config("just some text\n")

    def test_bad_value_rejected(self):
        with pytest.raises(cfg.ConfigError, match="train.epochs"):
            cfg.parse_config("train.epochs = soon\n")
        with pytest.raises(cfg.ConfigError):
            cfg.parse_config("model.attention_placement = l3\n")

    def test_manifest_keys_ignored(self):
        config = cfg.parse_config("run.seed = 4\nmanifest.command = extract\n")
        assert config.seed == 4

    def test_dump_parse_round_trip(self):
        base = cfg.parse_config("run.seed = 9\ntrain.lr0 = 0.5\nmodel.gru_hidden = 8\n")
        again = cfg.parse_config(cfg.dump_config(base))
        assert again == base


def build_audio_tree(tmp_path, n_clips=6, n_folds=2, seconds=1.6):
    rng = np.random.default_rng(0)
    rows = []
    n = int(seconds * SAMPLE_RATE)
    for i in range(n_clips):
        name = f"clip{i}.wav"
        label = i % 2
        if label == 0:
            x = 0.6 * np.sin(2 * np.pi * (300 + 50 * i) * np.arange(n) / SAMPLE_RATE)
        else:
            x = 0.3 * rng.standard_normal(n)
        write_wav(tmp_path / name, (x * 20000).astype(np.int16))
        rows.append(f"{name},{i % n_folds + 1},{label},class{label}")
    meta_csv(tmp_path / "meta.csv", rows)
    (tmp_path / "run.cfg").write_text("\n".join([
        "run.seed = 3",
        f"run.out_dir = {tmp_path / 'out'}",
        f"data.meta_csv = {tmp_path / 'meta.csv'}",
        f"data.audio_dir = {tmp_path}",
        f"data.cache = {tmp_path / 'cache.lgt'}",
        "data.variant = custom",
        "train.epochs = 2",
        "train.batch_size = 16",
        "augment.copies_per_clip = 0",
        "augment.mixup_enabled = false",
        "model.num_classes = 2",
        "model.conv_channels = 2,2,3,3,4,4,5,5",
        "model.gru_hidden = 4",
    ]) + "\n")
    return tmp_path / "run.cfg"


class TestCli:
    def test_unknown_flag_exits_1(self, capsys):
        assert cli.main(["extract", "--bogus"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli.main(["transmogrify"]) == 1

    def test_missing_inputs_exit_1(self, capsys):
        assert cli.main(["extract", "--meta", "nope.csv", "--data-dir", ".",
                         "--out", "c.lgt"]) == 1

    def test_extract_train_eval_cv_pipeline(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        cache = tmp_path / "cache.lgt"

        assert cli.main(["extract", "--config", str(config_path)]) == 0
        assert cache.exists()
        manifest = cache.with_name("cache.lgt.manifest")
        assert manifest.exists()
        assert "manifest.command = extract" in manifest.read_text()
        segments = read_cache(cache)
        assert len(segments) == 6  # 1.6 s clips -> one segment each

        assert cli.main(["train", "--config", str(config_path), "--fold", "2"]) == 0
        out = tmp_path / "out"
        assert (out / "ckpt_best").exists() and (out / "ckpt_final").exists()
        assert (out / "history.csv").read_text().startswith("epoch,lr,train_loss")
        assert (out / "manifest").exists()

        report = tmp_path / "eval.csv"
        assert cli.main(["eval", "--config", str(config_path), "--fold", "2",
                         "--checkpoint", str(out / "ckpt_final"),
                         "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "fold,accuracy" and lines[1].startswith("2,")
        last_val_acc = (out / "history.csv").read_text().splitlines()[-1].split(",")[4]
        assert float(lines[1].split(",")[1]) == float(last_val_acc)

        cv_report = tmp_path / "cv.csv"
        assert cli.main(["cv", "--config", str(config_path),
                         "--report", str(cv_report)]) == 0
        lines = cv_report.read_text().splitlines()
        assert lines[0] == "fold,accuracy"
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "mean"]
        assert (out / "report.csv").exists() and (out / "confusion.csv").exists()

    def test_extract_reproducible_from_manifest(self, tmp_path):
        config_path = build_audio_tree(tmp_path)
        cache = tmp_path / "cache.lgt"
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        first = cache.read_bytes()
        manifest = cache.with_name("cache.lgt.manifest")
        text = manifest.read_text()
        for line in (f"manifest.numpy_version = {np.__version__}",
                     f"manifest.cache_format_version = {CACHE_VERSIONS[-1]}",
                     f"manifest.checkpoint_format_version = {CHECKPOINT_VERSION}"):
            assert line in text.splitlines()
        assert "manifest.blas_name = " in text and "manifest.blas_version = " in text
        cache.unlink()
        assert cli.main(["extract", "--config", str(manifest)]) == 0
        assert cache.read_bytes() == first

    def test_manifest_records_the_blas_thread_count(self, tmp_path):
        # The same seeded step gives other bits at another BLAS thread count.
        threads = cli._blas_threads()
        assert threads is None or threads >= 1
        path = tmp_path / "manifest"
        cli._write_manifest(path, cfg.RunConfig(), "cv")
        assert f"manifest.blas_threads = {threads}" in path.read_text().splitlines()

    def test_ablate_labels(self, tmp_path):
        config_path = build_audio_tree(tmp_path)
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        report = tmp_path / "ablation.csv"
        assert cli.main(["ablate", "--config", str(config_path),
                         "--placements", "none,l10", "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines[0].startswith("setting,mean_accuracy")
        assert [row.split(",")[0] for row in lines[1:]] == ["none", "l10"]

    def test_bad_cache_is_validation_error(self, tmp_path):
        config_path = build_audio_tree(tmp_path)
        (tmp_path / "cache.lgt").write_bytes(b"garbage header")
        assert cli.main(["train", "--config", str(config_path), "--fold", "1"]) == 1
