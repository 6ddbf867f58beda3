import hashlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from esckit import cli
from esckit import config as cfg
from esckit.augment import AugmentConfig
from esckit.model import ACRNNConfig
from esckit.train import TrainConfig
from esckit.cachefile import CACHE_VERSIONS, CHECKPOINT_VERSION, read_cache, write_cache
from esckit.features import SAMPLE_RATE
from test_dataset import meta_csv, write_wav


BAD_RUN_SETTINGS = [
    "train.batch_size = 0",
    "train.lr_decay_every = 0",
    "train.epochs = -1",
    "train.lr0 = nan",
    "train.lr_decay_factor = 0",
    "augment.mixup_alpha = 0",
    "model.dropout_p = 1.5",
    "model.input_bands = 16",
    "model.input_frames = 17",
]


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

    def test_every_key_round_trips(self):
        config = cfg.parse_config(EVERY_KEY)
        dumped = cfg.dump_config(config)
        pairs = list(zip(dumped.splitlines(), cfg.dump_config(cfg.RunConfig()).splitlines(),
                         strict=True))
        # every dataclass field but the nested ones is a key, and each is set
        assert len(pairs) == (len(fields(cfg.RunConfig)) - 2 + len(fields(TrainConfig)) - 1
                              + len(fields(AugmentConfig)) + len(fields(ACRNNConfig)))
        for line, default in pairs:
            assert line.partition(" = ")[0] == default.partition(" = ")[0]
            assert line != default
        assert cfg.parse_config(dumped) == config
        assert hashlib.sha256(dumped.encode()).hexdigest() == EVERY_KEY_DUMP_SHA256

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("### Run configuration")[1].split("```ini")[1].split("```")[0]
        config = cfg.parse_config(example)
        assert config.variant == "esc10" and config.model.attention_placement == "l10"

    def test_readme_quick_start_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        namespace = {}
        exec(readme.split("```python")[1].split("```")[0], namespace)
        assert namespace["probs"].shape == (5, 50)
        assert np.allclose(namespace["probs"].sum(axis=1), 1.0, atol=1e-5)

    def test_default_dump_is_pinned(self):
        # A manifest written by an older esckit must keep parsing to its run.
        dumped = cfg.dump_config(cfg.RunConfig())
        assert hashlib.sha256(dumped.encode()).hexdigest() == DEFAULT_DUMP_SHA256
        assert cfg.parse_config(dumped) == cfg.RunConfig()

    @pytest.mark.parametrize("line", [
        "augment.stretch_range = 1.3",
        "augment.stretch_range = 1.3,0.8",
        "augment.stretch_range = -0.5,0.9",
        "augment.stretch_range = 0,1.2",
        "augment.shift_range_semitones = 3",
        "augment.shift_range_semitones = 3,-3",
        "augment.shift_range_semitones = -3,0,3",
        "augment.copies_per_clip = -1",
    ])
    def test_malformed_augmentation_rejected(self, line):
        with pytest.raises(cfg.ConfigError, match=line.split(" = ")[0].split(".")[1]):
            cfg.parse_config(line + "\n")

    @pytest.mark.parametrize("line", BAD_RUN_SETTINGS + [
        "train.epochs = 0",
        "train.lr0 = -0.01",
        "train.momentum = inf",
        "train.l2_coeff = -1e-4",
        "train.lr_decay_factor = -10",
        "model.dropout_p = 1",
        "model.dropout_p = -0.1",
        "model.num_classes = 0",
        "model.gru_hidden = 0",
        "model.gru_hidden = -1",
        "model.conv_channels = 0,2,3,3,4,4,5,5",
        "model.conv_channels = 2.5,2,3,3,4,4,5,5",
        "model.conv_channels = 1e1,2,3,3,4,4,5,5",
    ])
    def test_malformed_run_setting_rejected(self, line):
        with pytest.raises(cfg.ConfigError, match=line.split(" = ")[0].split(".")[1]):
            cfg.parse_config(line + "\n")

    def test_degenerate_ranges_accepted(self):
        config = cfg.parse_config("augment.stretch_range = 1,1\n"
                                  "augment.shift_range_semitones = 0,0\n"
                                  "augment.copies_per_clip = 0\n"
                                  "augment.mixup_alpha = 0\n"
                                  "augment.mixup_enabled = false\n")
        assert config.augment.stretch_range == (1, 1)
        assert config.augment.shift_range_semitones == (0, 0)
        assert config.augment.mixup_alpha == 0.0


EVERY_KEY = """
data.meta_csv = m.csv
data.audio_dir = audio
data.cache = c.lgt
data.variant = esc10
run.out_dir = out
run.seed = 7
train.batch_size = 16
train.epochs = 5
train.lr0 = 0.02
train.lr_decay_factor = 5.0
train.lr_decay_every = 3
train.momentum = 0.8
train.l2_coeff = 0.001
train.seed = 3
augment.stretch_range = 0.9,1.2
augment.shift_range_semitones = -2,2.5
augment.copies_per_clip = 1
augment.mixup_alpha = 0.4
augment.mixup_enabled = false
augment.rng_seed = 5
model.num_classes = 10
model.attention_placement = l2
model.conv_channels = 2,2,3,3,4,4,5,5
model.gru_hidden = 8
model.dropout_p = 0.25
model.input_bands = 64
model.input_frames = 32
model.rnn_attention_form = linear
"""
EVERY_KEY_DUMP_SHA256 = "82dab7aeb0460a3b85110d425e72022c59ea6b4999dac2c072ac88209783fcc4"
DEFAULT_DUMP_SHA256 = "f3fdab0f4b39fffe1a2486dac217b5e5cceb777471db00138dec35a5169d8956"


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

    def test_malformed_range_exits_1_before_extracting(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        config_path.write_text(config_path.read_text() + "augment.stretch_range = 1.3,0.8\n")
        assert cli.main(["extract", "--config", str(config_path)]) == 1
        assert "stretch_range" in capsys.readouterr().err
        assert not (tmp_path / "cache.lgt").exists()

    # input_bands = 64 parses; only the cache's 128 x 128 segments rule it out
    @pytest.mark.parametrize("line", BAD_RUN_SETTINGS + ["model.input_bands = 64"])
    def test_malformed_run_setting_exits_1_before_reading_the_cache(self, tmp_path, capsys, line):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"data.cache = {tmp_path / 'missing.lgt'}\n{line}\n")
        assert cli.main(["train", "--config", str(config_path), "--fold", "1"]) == 1
        err = capsys.readouterr().err
        assert line.split(" = ")[0].split(".")[1] in err and "missing.lgt" not in err

    def test_clip_in_two_folds_exits_1_everywhere(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        config_path.write_text(config_path.read_text() + "augment.copies_per_clip = 1\n")
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        assert cli.main(["train", "--config", str(config_path), "--fold", "2"]) == 0
        cache = tmp_path / "cache.lgt"
        segments = read_cache(cache)
        # clip1's raw segments stay in fold 2; its augmented copy moves to fold 1
        for seg in segments:
            if seg.clip_id == "clip1.wav" and seg.augmented:
                seg.fold = 1
        write_cache(cache, segments)
        capsys.readouterr()
        for argv in (["train", "--fold", "2"],
                     ["eval", "--fold", "2", "--checkpoint", str(tmp_path / "out" / "ckpt_final"),
                      "--report", str(tmp_path / "eval.csv")],
                     ["cv"]):
            assert cli.main(argv + ["--config", str(config_path)]) == 1, argv[0]
            err = capsys.readouterr().err
            assert err == "error: clip 'clip1.wav' appears in folds 2 and 1\n", argv[0]
        assert not (tmp_path / "eval.csv").exists()

    def test_cv_and_ablate_on_an_empty_cache_exit_1(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        write_cache(tmp_path / "cache.lgt", [])
        report = tmp_path / "ablate.csv"
        for argv in (["cv"], ["ablate", "--placements", "none", "--report", str(report)]):
            assert cli.main(argv + ["--config", str(config_path)]) == 1, argv[0]
            assert "no fold" in capsys.readouterr().err, argv[0]
        assert not (tmp_path / "out" / "report.csv").exists() and not report.exists()

    def test_bad_cache_is_validation_error(self, tmp_path):
        config_path = build_audio_tree(tmp_path)
        (tmp_path / "cache.lgt").write_bytes(b"garbage header")
        assert cli.main(["train", "--config", str(config_path), "--fold", "1"]) == 1
