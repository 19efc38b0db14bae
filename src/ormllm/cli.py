"""Command-line entry point: data generation, staged training, evaluation,
ablations and gradient verification.

Exit codes are stable: 0 success, 1 check failure, 2 usage, 3 contract,
4 numeric, 5 compatibility.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import tensor as T
from . import vocab as V
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import (
    CheckFailure,
    CompatibilityError,
    ConfigurationError,
    ContractError,
    DataParseError,
    DimensionError,
    DomainError,
    EmptyDomainError,
    EmptyInputError,
    GenerationError,
    NumericError,
    OrmllmError,
    SequenceLengthError,
)
from .evaluate import TASKS, EvalConfig, evaluate
from .fusion import FusionConfig, answer_loss, build_input_sequence, lm_forward
from .gradcheck import finite_diff_grad_check
from .model import Model, ModelConfig, build_model_params
from .nn import ModelParams
from .scenegen import build_dataset, read_dataset, write_dataset
from .spatial import (
    SpatialBlockConfig,
    depth_head_forward,
    depth_loss,
    encoder_forward,
    seg_head_forward,
    seg_loss,
    tokens_to_grid,
)
from .training import (
    TrainConfig,
    contrastive_loss,
    make_stage1_records,
    make_stage2_records,
    stage2_loss,
    train_stage,
)
from .variants import VARIANTS, infer_variant

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5

_USAGE_ERRORS = (ConfigurationError, GenerationError, DataParseError)
_CONTRACT_ERRORS = (ContractError, DimensionError, DomainError, EmptyDomainError,
                    EmptyInputError, SequenceLengthError)


def _echo_comment_lines(run: RunConfig, extra: list[str] | None = None) -> list[str]:
    return run.echo_lines() + list(extra or [])


def _sync_with_dataset(run: RunConfig, bundle) -> None:
    """Geometry-determining keys follow the dataset, not the config file."""
    for key, meta_key in (("data.image_size", "image_size"),
                          ("data.scenes", "scenes"), ("data.views", "views")):
        if meta_key in bundle.meta:
            run.values[key] = int(bundle.meta[meta_key])


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    run = RunConfig.resolve(args.config, {
        "seed": args.seed,
        "data.scenes": args.scenes,
        "data.views": args.views,
        "data.image_size": args.image_size,
    })
    # From a flag or from the config file alike.
    for key in ("data.scenes", "data.views"):
        if run[key] < 1:
            print(f"gen-data: {key} must be >= 1, got {run[key]}", file=sys.stderr)
            return EXIT_USAGE
    if os.path.exists(args.out) and not args.force:
        print(f"gen-data: {args.out} exists (use --force to overwrite)",
              file=sys.stderr)
        return EXIT_USAGE
    # The image size must fit a model built from this config; the vocabulary
    # size is not known yet and plays no part in that check.
    ModelConfig(spatial=run.spatial(), fusion=run.fusion(0))
    bundle = build_dataset(int(run["seed"]), int(run["data.scenes"]),
                           int(run["data.views"]), int(run["data.image_size"]))
    write_dataset(bundle, args.out, extra_meta=_echo_comment_lines(run))
    print(f"wrote {len(bundle.samples)} samples "
          f"({len(bundle.scenes)} scenes x {run['data.views']} views) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_into(model: Model, ckpt_path: str) -> None:
    loaded = load_checkpoint(ckpt_path)
    loaded_names = set(loaded.names())
    missing = [n for n in model.params.names()
               if n.startswith("lm.") and n not in loaded_names]
    if missing:
        raise CompatibilityError(
            f"{ckpt_path}: checkpoint lacks LM tensors: {missing[:3]}..."
        )
    for name in model.params.names():
        if name in loaded_names:
            if loaded[name].shape != model.params[name].shape:
                raise CompatibilityError(
                    f"{ckpt_path}: shape mismatch for {name!r}: "
                    f"{loaded[name].shape} vs {model.params[name].shape}"
                )
            model.params[name].data = loaded[name].data.copy()


def _write_loss_log(path: str, rows, echo: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in echo:
            fh.write(f"# {line}\n")
        fh.write("# columns: step\tstage\tlm_loss\tcontrast_loss\ttotal\tlr\n")
        for row in rows:
            fh.write(row.format() + "\n")


def _train_one_stage(run: RunConfig, bundle, cfg: TrainConfig, variant: str,
                     ckpt_in: str | None, ckpt_out: str, loss_log: str | None,
                     ckpt_best: str | None = None,
                     best_cfg: EvalConfig | None = None) -> None:
    """Trains one stage; `cfg` comes from run.train(stage), built (and so
    validated) before the dataset was read. `ckpt_best` is stage 2 only and
    keeps the epoch whose validation EM under `best_cfg` is highest."""
    train_samples = bundle.part_samples("train")
    stage = cfg.stage
    mcfg = ModelConfig(
        variant="no-depth-seg" if stage == 1 else variant,
        spatial=run.spatial(),
        fusion=run.fusion(len(bundle.vocab)),
    )
    model = Model.build(mcfg, int(run["seed"]))
    if ckpt_in:
        _load_into(model, ckpt_in)
        model.check_vocab(len(bundle.vocab))
    if stage == 1:
        data = make_stage1_records(train_samples, bundle.vocab)
    else:
        data = make_stage2_records(train_samples, bundle.vocab,
                                   qa_per_sample=cfg.qa_per_sample,
                                   seed=cfg.seed)

    best = {"em": -1.0}
    on_epoch = None
    if ckpt_best:
        val_samples = bundle.part_samples("val")[:32]

        def on_epoch(epoch):
            report = evaluate(model, bundle.vocab, val_samples, best_cfg)
            em = report.em_at_1 or 0.0
            if em > best["em"]:
                best["em"] = em
                save_checkpoint(model.params, ckpt_best)

    result = train_stage(data, model, cfg, on_epoch=on_epoch)
    save_checkpoint(model.params, ckpt_out)
    echo = _echo_comment_lines(run, [f"stage = {stage}", f"variant = {mcfg.variant}"])
    with open(ckpt_out + ".run", "w", encoding="utf-8") as fh:
        fh.write("\n".join(echo) + "\n")
    if loss_log:
        _write_loss_log(loss_log, result.rows, echo)
    if result.epoch_means:
        print(f"stage {stage} [{mcfg.variant}] epochs: "
              + " ".join(f"{m:.4f}" for m in result.epoch_means))


def cmd_train(args) -> int:
    run = RunConfig.resolve(args.config, {"seed": args.seed})
    if args.stage == 2 and not args.ckpt_in:
        print("train: --stage 2 requires --ckpt-in from stage 1", file=sys.stderr)
        return EXIT_CONTRACT
    if args.stage == 1 and args.ckpt_best:
        print("train: --ckpt-best selects by validation EM, which needs "
              "--stage 2", file=sys.stderr)
        return EXIT_CONTRACT
    cfg = run.train(args.stage)
    best_cfg = run.eval(("qa",))
    bundle = read_dataset(args.data)
    _sync_with_dataset(run, bundle)
    _train_one_stage(run, bundle, cfg, args.variant, args.ckpt_in,
                     args.ckpt_out, args.loss_log, args.ckpt_best, best_cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _eval_model(run: RunConfig, bundle, ckpt: str, variant: str | None,
                split: str, ecfg: EvalConfig, report_path: str | None) -> None:
    loaded = load_checkpoint(ckpt)
    resolved_variant = variant or infer_variant(set(loaded.names()))
    mcfg = ModelConfig(variant=resolved_variant, spatial=run.spatial(),
                       fusion=run.fusion(len(bundle.vocab)))
    model = Model(mcfg, build_model_params(mcfg, int(run["seed"])))
    expected = set(model.params.names())
    got = set(loaded.names())
    if expected != got:
        diff = sorted(expected ^ got)
        raise CompatibilityError(
            f"{ckpt}: parameter set does not match variant "
            f"{resolved_variant!r} (differs on {diff[:4]}...)"
        )
    _load_into(model, ckpt)
    model.check_vocab(len(bundle.vocab))
    samples = bundle.part_samples(split)
    echo = _echo_comment_lines(run, [
        f"variant = {resolved_variant}", f"split = {split}",
        f"tasks = {','.join(ecfg.tasks)}", f"checkpoint = {os.path.basename(ckpt)}",
    ])
    report = evaluate(model, bundle.vocab, samples, ecfg, config_echo=echo)
    text = report.to_text()
    sys.stdout.write(text)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    run = RunConfig.resolve(args.config, {"seed": args.seed})
    tasks = tuple(t.strip() for t in args.tasks.split(",") if t.strip())
    ecfg = run.eval(tasks)
    bundle = read_dataset(args.data)
    _sync_with_dataset(run, bundle)
    _eval_model(run, bundle, args.ckpt, args.variant, args.split, ecfg,
                args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def cmd_ablate(args) -> int:
    run = RunConfig.resolve(args.config, {"seed": args.seed})
    ecfg = run.eval(TASKS)
    cfg = run.train(2)
    bundle = read_dataset(args.data)
    _sync_with_dataset(run, bundle)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_out = os.path.join(args.out_dir, f"{args.variant}.ckpt")
    loss_log = os.path.join(args.out_dir, f"{args.variant}.losslog")
    report_path = os.path.join(args.out_dir, f"{args.variant}.report")
    _train_one_stage(run, bundle, cfg, args.variant, args.stage1_ckpt,
                     ckpt_out, loss_log)
    _eval_model(run, bundle, ckpt_out, args.variant, args.split, ecfg,
                report_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _gradcheck_suite(seed: int, corrupt: bool):
    """Five verification targets on tiny pinned configurations. Inputs are
    drawn away from softmax saturation and absolute-value ties so central
    differences are meaningful at 1e-4."""
    from .model import build_model_params

    rng = np.random.default_rng(np.random.SeedSequence([0x96AD, seed]))
    scfg = SpatialBlockConfig(
        image_size=8, encoder_blocks=1, encoder_dim=8, encoder_heads=2,
        depth_decoder_stages=1, seg_classes=3,
        pc_hidden=6, pc_feature_dim=6,
    )
    fcfg = FusionConfig(d_token=16, lm_layers=2, lm_heads=2, vocab_size=24,
                        max_seq_len=48, image_patch=4)
    mcfg = ModelConfig(variant="full", spatial=scfg, fusion=fcfg)
    params = build_model_params(mcfg, seed)
    model = Model(mcfg, params)

    image = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    gt_depth = rng.uniform(0.5, 3.0, size=(8, 8))
    gt_seg = rng.integers(1, 4, size=(8, 8))

    def maybe_corrupt(loss):
        if corrupt and loss.node is not None:
            # Test hook: inject a term the numeric probe cannot see, i.e. a
            # deliberately wrong adjoint.
            return loss + T.sum_(params["spatial.encoder.embed.w"]) * 1e-2
        return loss

    spatial_names = [n for n in params.names()
                     if n.startswith("spatial.encoder.") or n.startswith("spatial.depth.")]
    seg_names = [n for n in params.names()
                 if n.startswith("spatial.encoder.") or n.startswith("spatial.seg.")]
    lm_names = [n for n in params.names()
                if n.startswith("lm.") or n == "fusion.pos_embed"]

    def f_depth():
        grid = tokens_to_grid(encoder_forward(image[None], params, scfg), scfg)
        depth = depth_head_forward(grid, params, scfg)
        return maybe_corrupt(depth_loss(depth, gt_depth[None], scfg))

    def f_seg():
        grid = tokens_to_grid(encoder_forward(image[None], params, scfg), scfg)
        logits = seg_head_forward(grid, params, scfg)
        return maybe_corrupt(seg_loss(logits, gt_seg[None], scfg))

    prompt = [V.BOS, 5, 6, 7]
    answer = [9, 10]
    targets = np.zeros(len(prompt) + len(answer) + 2, dtype=np.int64)
    mask = np.zeros_like(targets, dtype=bool)
    for i, tok in enumerate(answer + [V.EOS]):
        targets[len(prompt) + i] = tok
        mask[len(prompt) + i] = True

    def text_answer_loss():
        seq = build_input_sequence(None, None, None, prompt, params, fcfg,
                                   answer_ids=[V.BOS] + answer + [V.EOS],
                                   layout=model.layout)
        logits = lm_forward(seq.tokens, params, fcfg, seq.positions)
        return answer_loss(logits, targets, mask)

    def f_answer():
        return maybe_corrupt(text_answer_loss())

    cparams = ModelParams()
    cparams.add("v_feat", rng.normal(size=(3, 16)))
    cparams.add("t_feat", rng.normal(size=(3, 16)))

    def f_contrast():
        return maybe_corrupt(
            contrastive_loss(cparams["v_feat"], cparams["t_feat"], 0.07)
        )

    def f_stage2():
        lm = text_answer_loss()
        contrast = contrastive_loss(cparams["v_feat"], cparams["t_feat"], 0.07)
        return maybe_corrupt(stage2_loss(lm, contrast, 0.1))

    return [
        ("depth_loss", f_depth, params, spatial_names),
        ("seg_loss", f_seg, params, seg_names),
        ("answer_loss", f_answer, params, lm_names),
        ("contrastive_loss", f_contrast, cparams, None),
        ("stage2_loss", f_stage2, params, lm_names),
    ]


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    suite = _gradcheck_suite(args.seed, args.corrupt)
    print("loss\tworst_tensor\tmax_rel_error\tcoords\tstatus")
    exit_code = EXIT_OK
    worst_overall = ("", 0.0)
    for name, f, params, names in suite:
        # h near the float64 central-difference optimum (eps^(1/3)) for
        # unit-scale losses; 1e-6 leaves rounding noise above 1e-4 relative
        # on coordinates whose true gradient is ~1e-6.
        reports = finite_diff_grad_check(f, params, h=3e-6, tol=1e-4,
                                         coords_per_tensor=32,
                                         seed=args.seed, names=names)
        worst = max(reports, key=lambda r: r.max_rel_error)
        n_coords = sum(r.n_coords for r in reports)
        status = "pass" if all(r.passed for r in reports) else "FAIL"
        if status == "FAIL":
            exit_code = EXIT_CHECK
            if worst.max_rel_error > worst_overall[1]:
                worst_overall = (f"{name}/{worst.name}", worst.max_rel_error)
        print(f"{name}\t{worst.name}\t{worst.max_rel_error:.3e}\t{n_coords}\t{status}")
    if exit_code != EXIT_OK:
        print(f"gradient check FAILED: {worst_overall[0]} "
              f"max relative error {worst_overall[1]:.3e}", file=sys.stderr)
    return exit_code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ormllm",
        description="RGB-only spatial reasoning pipeline over synthetic "
                    "operating-room scenes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenes", type=int, default=None)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--image-size", type=int, default=None, dest="image_size")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="full")
    p.add_argument("--ckpt-in", default=None, dest="ckpt_in")
    p.add_argument("--ckpt-out", required=True, dest="ckpt_out")
    p.add_argument("--ckpt-best", default=None, dest="ckpt_best")
    p.add_argument("--loss-log", default=None, dest="loss_log")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--tasks", default="qa,sgg")
    p.add_argument("--report", default=None)
    p.add_argument("--variant", choices=tuple(VARIANTS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate one fusion variant")
    p.add_argument("--variant", choices=tuple(VARIANTS), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--stage1-ckpt", required=True, dest="stage1_ckpt")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--split", choices=("val", "test"), default="test")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify analytic gradients of every loss")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CONTRACT_ERRORS as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except OrmllmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
