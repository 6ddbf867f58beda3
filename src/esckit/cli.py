"""Command-line surface: extract, train, eval, cv, ablate, gradcheck.

Every run writes a manifest (the full flat config plus command and format
versions) into its output location; feeding that manifest back through
``--config`` reproduces the run bitwise. Exit codes: 0 success, 1 validation
or usage error, 2 unexpected runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import os
import sys

import numpy as np

from . import __version__
from .cachefile import CACHE_VERSIONS, CHECKPOINT_VERSION, CacheFormatError, \
    CheckpointFormatError, read_cache_dataset, read_checkpoint, write_atomic
from .config import ConfigError, RunConfig, dump_config, load_config
from .dataset import AudioDecodeError, MetadataError, build_cache, load_metadata
from .evaluate import EvalReport, ablate, ablation_to_csv, confusion_matrix, cross_validate, \
    evaluate_fold
from .fdcheck import MODEL_TOLERANCE, OP_TOLERANCE, model_gradient_checks, op_gradient_checks
from .features import compute_norm_stats
from .model import build, load_state
from .train import train, training_split


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="esckit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="decode WAVs and write the feature cache")
    p.add_argument("--meta", help="metadata CSV path")
    p.add_argument("--data-dir", help="directory holding the WAV files")
    p.add_argument("--out", help="cache file to write")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--variant", choices=("esc10", "esc50", "custom"))
    p.add_argument("--config", help="run configuration file")

    p = sub.add_parser("train", help="train with one held-out fold")
    p.add_argument("--cache", help="feature cache path")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--fold", type=int, required=True, help="held-out fold id")
    p.add_argument("--out-dir", help="output directory override")

    p = sub.add_parser("eval", help="evaluate a checkpoint on one fold")
    p.add_argument("--cache", help="feature cache path")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--report", required=True, help="accuracy report CSV to write")

    p = sub.add_parser("cv", help="full cross-validation")
    p.add_argument("--cache", help="feature cache path")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--report", help="extra copy of the fold-accuracy CSV")
    p.add_argument("--out-dir", help="output directory override")

    p = sub.add_parser("ablate", help="attention-placement / augmentation ablations")
    p.add_argument("--cache", help="feature cache path")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--placements", help="comma-separated placement labels")
    p.add_argument("--grid", action="store_true", help="run the 4-row attention x augment grid")
    p.add_argument("--report", required=True, help="ablation CSV to write")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--samples", type=int, default=6,
                   help="entries sampled per tensor in the full-model check")
    return parser


def _load_run_config(args):
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "meta", None):
        config.meta_csv = args.meta
    if getattr(args, "data_dir", None):
        config.audio_dir = args.data_dir
    if getattr(args, "out", None):
        config.cache = args.out
    if getattr(args, "cache", None):
        config.cache = args.cache
    if getattr(args, "variant", None):
        config.variant = args.variant
    if getattr(args, "out_dir", None):
        config.out_dir = args.out_dir
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
        config.train.seed = args.seed
        config.train.augmentation.rng_seed = args.seed
    return config


def _blas():
    """(name, version) of the BLAS numpy was built with; "unknown" where this
    numpy cannot report it (``show_config(mode=...)`` is numpy >= 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        return "unknown", "unknown"


def _blas_threads():
    """The thread count that the OpenBLAS bundled with numpy reports; None
    where no such library or getter is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _write_manifest(path, config, command):
    """The run's config plus what reproducing it bitwise depends on: the
    format versions, the numpy and BLAS builds and the BLAS thread count."""
    blas_name, blas_version = _blas()
    manifest = {"command": command, "package_version": __version__,
                "cache_format_version": CACHE_VERSIONS[-1],
                "checkpoint_format_version": CHECKPOINT_VERSION,
                "numpy_version": np.__version__, "blas_name": blas_name,
                "blas_version": blas_version, "blas_threads": _blas_threads()}
    text = dump_config(config) + "".join(f"manifest.{k} = {v}\n" for k, v in manifest.items())
    write_atomic(path, text.encode("utf-8"))


def _dataset(config):
    if not config.cache:
        raise ConfigError("no cache path given (flag --cache or key data.cache)")
    class_names = {}
    if config.meta_csv and os.path.exists(config.meta_csv):
        # the cache stores no category strings; recover them for report headers
        class_names = {r.target: r.category
                       for r in load_metadata(config.meta_csv, config.variant)}
    return read_cache_dataset(config.cache, num_classes=config.model.num_classes,
                              class_names=class_names)


def _cmd_extract(args):
    config = _load_run_config(args)
    if not config.meta_csv or not config.audio_dir or not config.cache:
        raise ConfigError("extract needs --meta, --data-dir and --out (or data.* config keys)")
    records = load_metadata(config.meta_csv, config.variant)
    count = build_cache(records, config.audio_dir, config.augment, config.cache,
                        seed=config.augment.rng_seed)
    _write_manifest(f"{config.cache}.manifest", config, "extract")
    print(f"wrote {count} segments from {len(records)} clips to {config.cache}")
    return 0


def _cmd_train(args):
    config = _load_run_config(args)
    result = train(_dataset(config), config.train, config.model, args.fold,
                   out_dir=config.out_dir)
    _write_manifest(os.path.join(config.out_dir, "manifest"), config, "train")
    last = result.history.rows[-1]
    print(f"fold {args.fold}: train_acc {last.train_acc:.3f} val_acc {last.val_acc:.3f} "
          f"({len(result.history.rows)} epochs x {result.steps_per_epoch} steps)")
    return 0


def _cmd_eval(args):
    config = _load_run_config(args)
    dataset = _dataset(config)
    params = build(config.model, seed=config.train.seed)
    load_state(params, read_checkpoint(args.checkpoint))
    stats = compute_norm_stats(training_split(dataset, config.train, args.fold).segments)
    accuracy, predictions, truths = evaluate_fold(dataset, params, stats, args.fold)
    report = EvalReport(fold_accuracies={args.fold: accuracy}, mean_accuracy=accuracy,
                        confusion=confusion_matrix(predictions, truths, dataset.num_classes),
                        num_classes=dataset.num_classes, class_names=dataset.class_names)
    report.to_csv(args.report)
    report.confusion_to_csv(f"{args.report}.confusion.csv")
    _write_manifest(f"{args.report}.manifest", config, "eval")
    print(f"fold {args.fold}: clip accuracy {accuracy:.3f} over {len(truths)} clips")
    return 0


def _cmd_cv(args):
    config = _load_run_config(args)
    report = cross_validate(_dataset(config), config.train, config.model,
                            out_dir=config.out_dir)
    if args.report:
        report.to_csv(args.report)
    _write_manifest(os.path.join(config.out_dir, "manifest"), config, "cv")
    folds = " ".join(f"{f}:{a:.3f}" for f, a in sorted(report.fold_accuracies.items()))
    print(f"cv mean accuracy {report.mean_accuracy:.3f} ({folds})")
    return 0


def _cmd_ablate(args):
    config = _load_run_config(args)
    placements = [p.strip() for p in args.placements.split(",")] if args.placements else None
    if not placements and not args.grid:
        raise ConfigError("ablate needs --placements and/or --grid")
    rows = ablate(_dataset(config), config.train, config.model,
                  placements=placements, grid=args.grid)
    ablation_to_csv(rows, args.report)
    _write_manifest(f"{args.report}.manifest", config, "ablate")
    for row in rows:
        print(f"{row.label}: mean accuracy {row.mean_accuracy:.3f}")
    return 0


def _cmd_gradcheck(args):
    failed = False
    print(f"per-op gradients vs central finite differences (tolerance {OP_TOLERANCE:g})")
    for name, err in op_gradient_checks().items():
        ok = err <= OP_TOLERANCE
        failed |= not ok
        print(f"  {name:24s} {err:12.3e}  {'ok' if ok else 'FAIL'}")
    print(f"full reduced-width model (tolerance {MODEL_TOLERANCE:g})")
    results = model_gradient_checks(samples_per_tensor=args.samples)
    worst_name = max(results, key=results.get)
    for name, err in results.items():
        ok = err <= MODEL_TOLERANCE
        failed |= not ok
        if not ok:
            print(f"  {name:24s} {err:12.3e}  FAIL")
    print(f"  worst parameter: {worst_name} {results[worst_name]:.3e} "
          f"{'(all ok)' if not failed else ''}")
    return 1 if failed else 0


_COMMANDS = {
    "extract": _cmd_extract,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}

_VALIDATION_ERRORS = (ConfigError, MetadataError, AudioDecodeError, CacheFormatError,
                      CheckpointFormatError, ValueError, FileNotFoundError)


def cli_dispatch(argv):
    """Parse argv (without the program name) and run the subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
