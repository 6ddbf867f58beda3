import hashlib
import importlib
import pkgutil
import platform
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import esckit
from esckit import cli
from esckit import config as cfg
from esckit import model as acrnn
from esckit.augment import AugmentConfig
from esckit.model import ACRNNConfig
from esckit.train import TrainConfig
from esckit.cachefile import CACHE_VERSIONS, CHECKPOINT_VERSION, read_cache, write_cache
from esckit.features import SAMPLE_RATE
from test_dataset import float32_wav, meta_csv, riff_wav, write_wav


BAD_RUN_SETTINGS = [
    "train.batch_size = 0",
    "train.lr_decay_every = 0",
    "train.epochs = -1",
    "train.lr0 = nan",
    "train.lr_decay_factor = 0",
    "train.momentum = 0.8",
    "train.seed = -3",
    "augment.mixup_alpha = 0",
    "augment.rng_seed = -2",
    "model.dropout_p = 1.5",
    "model.input_bands = 16",
    "model.input_frames = 17",
    "model.rnn_attention_form = linear",
    "data.variant = esc5O",
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
augment.copies_per_clip = 1
augment.mixup_enabled = off
model.attention_placement = l2
model.num_classes = 10
model.conv_channels = 2,2,3,3,4,4,5,5
"""
        config = cfg.parse_config(text)
        assert config.train.seed == 7 and config.out_dir == "out"
        assert config.cache == "cache.lgt" and config.variant == "esc10"
        assert config.train.lr0 == 0.02 and config.train.epochs == 5
        assert config.augment.copies_per_clip == 1 and not config.augment.mixup_enabled
        assert config.model.attention_placement == "l2"
        assert config.model.conv_channels == (2, 2, 3, 3, 4, 4, 5, 5)

    def test_negative_master_seed_rejected_when_overridden(self):
        with pytest.raises(cfg.ConfigError, match="seed must be >= 0, got -1"):
            cfg.parse_config("run.seed = -1\ntrain.seed = 0\naugment.rng_seed = 0\n")

    def test_master_seed_propagates(self):
        # run.seed is the one seed: training's, and extraction's through the CLI
        config = cfg.parse_config("run.seed = 11\n")
        assert config.train.seed == 11
        assert not hasattr(config.augment, "rng_seed")
        assert cfg.parse_config("run.seed = 11\ntrain.seed = 11\naugment.rng_seed = 11\n") \
               == config

    # Older manifests copied run.seed into these keys; a copy that differs is refused.
    @pytest.mark.parametrize("key", cfg.SEED_COPIES)
    @pytest.mark.parametrize("text", ["run.seed = 7\n{key} = 3\n", "{key} = 3\nrun.seed = 7\n",
                                      "{key} = 3\n"])
    def test_seed_copy_other_than_run_seed_rejected(self, key, text):
        seed = 7 if "run.seed" in text else 0
        with pytest.raises(cfg.ConfigError,
                           match=f"{key} = 3 differs from run.seed = {seed}"):
            cfg.parse_config(text.format(key=key))

    def test_unknown_key_rejected(self):
        with pytest.raises(cfg.ConfigError, match="train.lr_zero"):
            cfg.parse_config("train.lr_zero = 0.1\n")
        # weight decay is train.L2_COEFF alone; the model carries no copy of it
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
        assert config.train.seed == 4

    def test_dump_parse_round_trip(self):
        base = cfg.parse_config("run.seed = 9\ntrain.lr0 = 0.5\nmodel.gru_hidden = 8\n")
        again = cfg.parse_config(cfg.dump_config(base))
        assert again == base

    def test_every_key_round_trips(self):
        config = cfg.parse_config(EVERY_KEY)
        dumped = cfg.dump_config(config)
        pairs = list(zip(dumped.splitlines(), cfg.dump_config(cfg.RunConfig()).splitlines(),
                         strict=True))
        # every dataclass field but the nested ones and the model input size is
        # a key, and each is set
        assert len(pairs) == 17 == (len(fields(cfg.RunConfig)) - 2 + len(fields(TrainConfig))
                                    - 1 + len(fields(AugmentConfig)) + len(fields(ACRNNConfig))
                                    - 2)
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
        live = {line.partition(" = ")[0] for line in cfg.dump_config(config).splitlines()}
        keys = {line.partition("=")[0].strip() for line in example.splitlines()
                if line.strip() and not line.startswith("#")}
        assert keys <= live, keys - live

    def test_readme_names_every_retired_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Run configuration")[1].split("\n### ")[0]
        for key in [*cfg.RETIRED_KEYS, *cfg.SEED_COPIES]:
            assert f"`{key}`" in section, key

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line")[1].split("```bash")[1].split("```")[0]
        commands = [line.split() for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("esckit ")]
        assert {argv[1] for argv in commands} == set(cli._COMMANDS)
        for argv in commands:
            cli.build_parser().parse_args(argv[1:])

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
        assert hashlib.sha256(DEFAULT_DUMP_28_KEYS.encode()).hexdigest() == \
               "f3fdab0f4b39fffe1a2486dac217b5e5cceb777471db00138dec35a5169d8956"
        assert cfg.parse_config(DEFAULT_DUMP_28_KEYS) == cfg.RunConfig()
        assert hashlib.sha256(DEFAULT_DUMP_21_KEYS.encode()).hexdigest() == \
               "adf17d7b21c70cdc68c576ae758fd577e65ab46fb5e68f3ff14df4f997b64438"
        assert cfg.parse_config(DEFAULT_DUMP_21_KEYS) == cfg.RunConfig()

    def test_default_dump_keys(self):
        keys = [line.partition(" = ")[0]
                for line in cfg.dump_config(cfg.RunConfig()).splitlines()]
        assert keys == [
            "data.meta_csv", "data.audio_dir", "data.cache", "data.variant",
            "run.out_dir", "run.seed",
            "train.batch_size", "train.epochs", "train.lr0", "train.lr_decay_every",
            "augment.copies_per_clip", "augment.mixup_enabled",
            "model.num_classes", "model.attention_placement", "model.conv_channels",
            "model.gru_hidden", "model.dropout_p",
        ]
        assert not set(keys) & {*cfg.RETIRED_KEYS, *cfg.SEED_COPIES}

    # The fixed value is compared after coercion, so other spellings of it parse;
    # the 28-key default dump above checks each key's own spelling.
    @pytest.mark.parametrize("line, other", [
        ("train.lr_decay_factor = 10", "5.0"),
        ("train.momentum = 0.9", "0.8"),
        ("train.l2_coeff = 1e-4", "0"),
        ("augment.stretch_range = 0.80, 1.3", "1.3,0.8"),
        ("augment.shift_range_semitones = -3.5,3.5", "-2,2.5"),
        ("augment.mixup_alpha = 0.2", "0.4"),
        ("model.rnn_attention_form = mlp", "linear"),
        ("model.input_bands = 128", "64"),
        ("model.input_frames = 128", "32"),
    ])
    def test_retired_key_parses_at_its_fixed_value_only(self, line, other):
        key = line.partition(" = ")[0]
        assert cfg.parse_config(line + "\n") == cfg.RunConfig()
        with pytest.raises(cfg.ConfigError, match=f"{key} is fixed at .*, got '{other}'"):
            cfg.parse_config(f"{key} = {other}\n")

    # A range key is fixed now, so a malformed range is refused as not its value.
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
        "run.seed = -1",
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
train.lr_decay_every = 3
augment.copies_per_clip = 1
augment.mixup_enabled = false
model.num_classes = 10
model.attention_placement = l2
model.conv_channels = 2,2,3,3,4,4,5,5
model.gru_hidden = 8
model.dropout_p = 0.25
"""
EVERY_KEY_DUMP_SHA256 = "ca536743e5e55340d46c594b378635ac3bf637624cb0000c38b9b5816d4e6713"
DEFAULT_DUMP_SHA256 = "2ad12dc61b498a558267e3bd70d635cf7dc8c114c55f9712803eaeaabc50e030"
# The default manifest text from before run.seed became the one seed and the
# model input size a fixed value.
DEFAULT_DUMP_21_KEYS = (
    "data.meta_csv = \n"
    "data.audio_dir = \n"
    "data.cache = \n"
    "data.variant = esc50\n"
    "run.out_dir = runs\n"
    "run.seed = 0\n"
    "train.batch_size = 64\n"
    "train.epochs = 300\n"
    "train.lr0 = 0.01\n"
    "train.lr_decay_every = 100\n"
    "train.seed = 0\n"
    "augment.copies_per_clip = 2\n"
    "augment.mixup_enabled = True\n"
    "augment.rng_seed = 0\n"
    "model.num_classes = 50\n"
    "model.attention_placement = l10\n"
    "model.conv_channels = 32,32,64,64,128,128,256,256\n"
    "model.gru_hidden = 256\n"
    "model.dropout_p = 0.5\n"
    "model.input_bands = 128\n"
    "model.input_frames = 128\n"
)
# The default manifest text from before seven protocol values became constants.
DEFAULT_DUMP_28_KEYS = (
    "data.meta_csv = \n"
    "data.audio_dir = \n"
    "data.cache = \n"
    "data.variant = esc50\n"
    "run.out_dir = runs\n"
    "run.seed = 0\n"
    "train.batch_size = 64\n"
    "train.epochs = 300\n"
    "train.lr0 = 0.01\n"
    "train.lr_decay_factor = 10.0\n"
    "train.lr_decay_every = 100\n"
    "train.momentum = 0.9\n"
    "train.l2_coeff = 0.0001\n"
    "train.seed = 0\n"
    "augment.stretch_range = 0.8,1.3\n"
    "augment.shift_range_semitones = -3.5,3.5\n"
    "augment.copies_per_clip = 2\n"
    "augment.mixup_alpha = 0.2\n"
    "augment.mixup_enabled = True\n"
    "augment.rng_seed = 0\n"
    "model.num_classes = 50\n"
    "model.attention_placement = l10\n"
    "model.conv_channels = 32,32,64,64,128,128,256,256\n"
    "model.gru_hidden = 256\n"
    "model.dropout_p = 0.5\n"
    "model.input_bands = 128\n"
    "model.input_frames = 128\n"
    "model.rnn_attention_form = mlp\n"
)


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
        assert (out / "ckpt_final").exists() and not (out / "ckpt_best").exists()
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

    def test_manifest_records_the_c_library(self, tmp_path):
        # train pins the allocator's thresholds only under glibc
        path = tmp_path / "manifest"
        cli._write_manifest(path, cfg.RunConfig(), "train")
        name, version = platform.libc_ver()
        expected = f"{name} {version}" if name else "unknown"
        assert f"manifest.libc = {expected}" in path.read_text().splitlines()

    def test_diverged_train_exits_2_before_writing_a_checkpoint(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        config_path.write_text(config_path.read_text() + "train.lr0 = 1e30\n")
        capsys.readouterr()
        # the overflow on the way to a NaN loss is the point here, not a warning
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(config_path), "--fold", "2"]) == 2
        err = capsys.readouterr().err
        assert "FloatingPointError: training loss is nan at held-out fold 2, epoch 1" in err
        assert not (tmp_path / "out" / "ckpt_final").exists()

    def test_eval_infers_at_the_training_batch_size(self, tmp_path, monkeypatch):
        config_path = build_audio_tree(tmp_path, n_clips=12)
        config_path.write_text(config_path.read_text().replace("train.batch_size = 16",
                                                               "train.batch_size = 4"))
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        assert cli.main(["train", "--config", str(config_path), "--fold", "2"]) == 0
        rows, forward = [], acrnn.forward
        monkeypatch.setattr(acrnn, "forward",
                            lambda params, x, **kw: rows.append(len(x)) or forward(params, x, **kw))
        assert cli.main(["eval", "--config", str(config_path), "--fold", "2",
                         "--checkpoint", str(tmp_path / "out" / "ckpt_final"),
                         "--report", str(tmp_path / "eval.csv")]) == 0
        assert sum(rows) == 6 and max(rows) == 4  # fold 2's six one-segment clips

    def test_every_esckit_error_is_a_validation_error(self):
        # cli_dispatch maps ValueError to exit 1; any other exception is exit 2
        expected = {"ConfigError", "MetadataError", "AudioDecodeError", "CacheFormatError",
                    "CheckpointFormatError", "LeakageError", "ShapeError", "GraphError",
                    "TooShortError"}
        # the private _UsageError is the parser's, caught before any command runs
        modules = [importlib.import_module(f"esckit.{m.name}")
                   for m in pkgutil.iter_modules(esckit.__path__)]
        defined = {obj for module in modules for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")}
        assert {e.__name__ for e in defined} == expected
        for error in defined:
            assert issubclass(error, ValueError), error.__name__

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

    def test_empty_data_chunk_exits_1_naming_the_file(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        write_wav(tmp_path / "clip3.wav", np.zeros(0, dtype=np.int16), rate=22050)
        assert cli.main(["extract", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'clip3.wav'}: data chunk at byte 44 holds no " \
                      "sample frame\n"
        assert not (tmp_path / "cache.lgt").exists()

    @pytest.mark.parametrize("blob, message", [
        (float32_wav(np.zeros(8)),
         r"unsupported codec \(format 3, 32-bit\) in fmt chunk at byte 20"),
        (riff_wav(bytes(16), rate=48000), "48000 Hz sample rate in fmt chunk at byte 20"),
    ], ids=["float32", "48kHz"])
    def test_other_codec_or_rate_exits_1_naming_the_file(self, tmp_path, capsys, blob, message):
        config_path = build_audio_tree(tmp_path)
        (tmp_path / "clip3.wav").write_bytes(blob)
        assert cli.main(["extract", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"error: {re.escape(str(tmp_path / 'clip3.wav'))}: {message}", err), err
        assert not list(tmp_path.glob("cache.lgt*"))

    def test_short_metadata_row_exits_1_naming_the_line(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        meta = tmp_path / "meta.csv"
        meta.write_text(meta.read_text() + "clip6.wav,1\n")
        assert cli.main(["extract", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {meta}:8: row ends before columns ['category', 'target']\n"
        assert not list(tmp_path.glob("cache.lgt*"))

    def test_negative_seed_flag_exits_1_before_extracting(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        assert cli.main(["extract", "--config", str(config_path), "--seed", "-3"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "cache.lgt").exists()

    def test_seed_flag_sets_the_one_seed(self, tmp_path):
        config_path = build_audio_tree(tmp_path)
        config_path.write_text(config_path.read_text() + "augment.copies_per_clip = 1\n")
        assert cli.main(["extract", "--config", str(config_path), "--seed", "5"]) == 0
        cache = tmp_path / "cache.lgt"
        flagged, manifest = cache.read_bytes(), cache.with_name("cache.lgt.manifest")
        keys = [line.partition(" = ")[0] for line in manifest.read_text().splitlines()]
        assert "run.seed = 5" in manifest.read_text().splitlines()
        assert not set(keys) & set(cfg.SEED_COPIES)
        config_path.write_text(config_path.read_text().replace("run.seed = 3", "run.seed = 5"))
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        assert cache.read_bytes() == flagged

    @pytest.mark.parametrize("line", ["model.input_bands = 64", "model.input_frames = 64"])
    def test_other_input_size_exits_1_before_extracting(self, tmp_path, capsys, line):
        config_path = build_audio_tree(tmp_path)
        config_path.write_text(config_path.read_text() + line + "\n")
        assert cli.main(["extract", "--config", str(config_path)]) == 1
        key = line.partition(" = ")[0]
        assert f"{key} is fixed at 128, got '64'" in capsys.readouterr().err
        assert not list(tmp_path.glob("cache.lgt*"))

    def test_train_on_a_fold_with_no_clip_exits_1(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(config_path), "--fold", "9"]) == 1
        assert capsys.readouterr().err == "error: fold 9 has zero clips\n"
        assert not (tmp_path / "out").exists()

    # the model input size is fixed by the cache format, so 64 bands fail at parse
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

    def test_bad_cache_is_validation_error(self, tmp_path, capsys):
        config_path = build_audio_tree(tmp_path)
        (tmp_path / "cache.lgt").write_bytes(b"garbage header")
        assert cli.main(["train", "--config", str(config_path), "--fold", "1"]) == 1
        assert cli.main(["extract", "--config", str(config_path)]) == 0
        # write_cache refuses a NaN, so patch one into record 2's first value,
        # after its name and 13 header bytes
        blob = bytearray((tmp_path / "cache.lgt").read_bytes())
        at = blob.index(b"clip2.wav") + len(b"clip2.wav") + 13
        blob[at:at + 4] = struct.pack("<f", np.nan)
        (tmp_path / "cache.lgt").write_bytes(bytes(blob))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(config_path), "--fold", "1"]) == 1
        assert "record 2 holds nan at byte " in capsys.readouterr().err
