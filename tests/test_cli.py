"""End-to-end CLI behavior at miniature scale: exit codes, determinism,
artifact formats."""

import filecmp
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

import ormllm.cli as cli
from ormllm.checkpoint import load_checkpoint, save_checkpoint
from ormllm.cli import main

TINY = [
    "--scenes", "6", "--views", "2", "--image-size", "16",
]


def write_tiny_config(path):
    path.write_text(
        "spatial.encoder_dim = 16\n"
        "spatial.encoder_blocks = 1\n"
        "spatial.encoder_heads = 2\n"
        "spatial.pc_hidden = 8\n"
        "spatial.pc_feature_dim = 8\n"
        "fusion.d_token = 16\n"
        "fusion.lm_layers = 1\n"
        "fusion.lm_heads = 2\n"
        "fusion.max_seq_len = 256\n"
        "fusion.image_patch = 4\n"
        "train.epochs.stage1 = 2\n"
        "train.epochs.stage2 = 1\n"
        "train.vfm_epochs = 1\n"
        "train.warmup_steps = 2\n"
        "eval.max_new_qa = 4\n"
        "eval.max_new_sgg = 20\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_tiny_config(root / "run.cfg")
    data = str(root / "data")
    assert main(["gen-data", "--seed", "3", *TINY, "--out", data,
                 "--config", cfg]) == 0
    return root, cfg, data


def test_gen_data_refuses_overwrite(workspace):
    root, cfg, data = workspace
    assert main(["gen-data", "--seed", "3", *TINY, "--out", data,
                 "--config", cfg]) == 2


def test_gen_data_force_and_determinism(workspace, tmp_path):
    root, cfg, data = workspace
    other = str(tmp_path / "data2")
    assert main(["gen-data", "--seed", "3", *TINY, "--out", other,
                 "--config", cfg]) == 0
    for name in ("meta", "vocab.txt", "scenes.jsonl", "samples.jsonl", "split"):
        assert filecmp.cmp(os.path.join(data, name), os.path.join(other, name),
                           shallow=False), name


@pytest.mark.parametrize("flags,config_line,key", [
    (["--scenes", "0", "--views", "1"], "", "data.scenes"),
    ([], "data.scenes = 0\n", "data.scenes"),
    ([], "data.views = 0\n", "data.views"),
], ids=["flag", "config-scenes", "config-views"])
def test_gen_data_zero_scenes_usage_error(tmp_path, capsys, flags, config_line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    out = tmp_path / "x"
    assert main(["gen-data", "--seed", "1", *flags, "--out", str(out),
                 "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_negative_seed_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["gen-data", "--seed", "-1", "--scenes", "1", "--views", "1",
                 "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [30, 12])
def test_gen_data_image_size_no_model_takes_usage_error(tmp_path, size):
    # 30 is not a multiple of the encoder patch (4); 12 is, but not of the
    # default image patch (8).
    out = tmp_path / "x"
    assert main(["gen-data", "--seed", "1", "--scenes", "1", "--views", "1",
                 "--image-size", str(size), "--out", str(out)]) == 2
    assert not out.exists()


def test_split_counts(workspace):
    root, cfg, data = workspace
    split = open(os.path.join(data, "split")).read().splitlines()
    parts = {line.split()[0]: line.split()[1:] for line in split}
    # 6 scenes -> 3/1/2 by the floor(0.6)/floor(0.2)/rest rule, 2 views each.
    assert len(parts["train"]) == 6 and len(parts["val"]) == 2
    assert len(parts["test"]) == 4


def test_stage2_requires_stage1_checkpoint(workspace, tmp_path):
    root, cfg, data = workspace
    assert main(["train", "--stage", "2", "--data", data, "--config", cfg,
                 "--ckpt-out", str(tmp_path / "x.ckpt")]) == 3


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, cfg, data = workspace
    out = tmp_path_factory.mktemp("ckpt")
    s1 = str(out / "stage1.ckpt")
    s2 = str(out / "stage2.ckpt")
    log1 = str(out / "stage1.losslog")
    assert main(["train", "--stage", "1", "--data", data, "--config", cfg,
                 "--seed", "3", "--ckpt-out", s1, "--loss-log", log1]) == 0
    assert main(["train", "--stage", "2", "--data", data, "--config", cfg,
                 "--seed", "3", "--ckpt-in", s1, "--ckpt-out", s2,
                 "--loss-log", str(out / "stage2.losslog")]) == 0
    return out, s1, s2, log1


GOLDEN = os.path.join(os.path.dirname(__file__), "golden.json")


def test_cli_artifacts_match_golden_digests(workspace, trained, tmp_path, capsys):
    """Every artifact of the tiny CLI pipeline has the sha256 that
    tests/golden.json pins: the dataset files, stage 1, stage 2 of `full`
    (the `trained` fixture), its eval report, stage 2 plus eval of the
    RGB-only, no-fusion and stacked variants (`ablate`), and the stdout of
    `gradcheck --seed 0`. A change that moves any byte of them names the
    artifacts here. When the change is meant to, rewrite the manifest with

        ORMLLM_WRITE_GOLDEN=1 python -m pytest tests/test_cli.py -k golden

    and say in CHANGES.md which artifacts changed and why."""
    root, cfg, data = workspace
    out, s1, s2, log1 = trained
    paths = {f"data/{name}": os.path.join(data, name) for name in os.listdir(data)}
    for path in (s1, s1 + ".run", log1, s2, s2 + ".run", str(out / "stage2.losslog")):
        paths[f"train/{os.path.basename(path)}"] = path
    report = str(tmp_path / "full.report")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--seed", "3", "--report", report]) == 0
    paths["eval/full.report"] = report
    for variant in ("no-depth-seg", "no-fusion", "stacked"):
        abl = tmp_path / variant
        assert main(["ablate", "--variant", variant, "--data", data, "--config", cfg,
                     "--seed", "3", "--stage1-ckpt", s1, "--out-dir", str(abl)]) == 0
        for name in os.listdir(abl):
            paths[f"ablate/{name}"] = str(abl / name)
    capsys.readouterr()
    assert main(["gradcheck", "--seed", "0"]) == 0
    digests = {"gradcheck.stdout":
               hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name, path in paths.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    if os.environ.get("ORMLLM_WRITE_GOLDEN"):
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(digests.items())), fh, indent=2)
            fh.write("\n")
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    differ = sorted(k for k in want.keys() | digests.keys() if want.get(k) != digests.get(k))
    assert not differ, f"artifacts whose sha256 differs from tests/golden.json: {differ}"


def test_checkpoint_road_trip_byte_identical(trained):
    out, s1, s2, _ = trained
    resaved = str(out / "resaved.ckpt")
    save_checkpoint(load_checkpoint(s2), resaved)
    assert open(s2, "rb").read() == open(resaved, "rb").read()


def test_loss_log_format(trained):
    out, s1, s2, log1 = trained
    rows = [l for l in open(log1).read().splitlines() if not l.startswith("#")]
    assert rows, "no loss records"
    for row in rows:
        fields = row.split("\t")
        assert len(fields) == 6
        int(fields[0])
        assert fields[1] in ("1", "2vfm", "2")
        for f in fields[2:]:
            float(f)
    echo = [l for l in open(log1).read().splitlines() if l.startswith("#")]
    assert any("train.lr_lm" in l for l in echo)
    assert any("tool_version" in l for l in echo)


def test_train_determinism(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, log1 = trained
    s1b = str(tmp_path / "stage1b.ckpt")
    log1b = str(tmp_path / "stage1b.losslog")
    assert main(["train", "--stage", "1", "--data", data, "--config", cfg,
                 "--seed", "3", "--ckpt-out", s1b, "--loss-log", log1b]) == 0
    assert open(s1, "rb").read() == open(s1b, "rb").read()
    strip = lambda p: [l for l in open(p).read().splitlines()
                       if not l.startswith("#")]
    assert strip(log1) == strip(log1b)


def test_eval_report_and_determinism(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    r1 = str(tmp_path / "r1.report")
    r2 = str(tmp_path / "r2.report")
    for rp in (r1, r2):
        assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                     "--seed", "3", "--split", "test", "--report", rp]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()
    text = open(r1).read()
    assert "em_at_1\t" in text and "sgg_f1\t" in text
    assert "variant = full" in text


def test_eval_task_filter(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    rp = str(tmp_path / "qa.report")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--tasks", "qa", "--report", rp]) == 0
    text = open(rp).read()
    assert "rouge_l\t" in text and "em_at_1\t" in text
    assert "sgg_p\t" not in text
    rp2 = str(tmp_path / "sgg.report")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--tasks", "sgg", "--report", rp2]) == 0
    text2 = open(rp2).read()
    assert "sgg_p\t" in text2 and "rouge_l\t" not in text2


@pytest.mark.parametrize("tasks", ["qa,bogus", ","])
def test_eval_unknown_task_usage(workspace, trained, tasks):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--tasks", tasks]) == 2


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob.replace(b"lm.ln_f.b ", b"lm.ln_f.g ", 1),
    lambda blob: blob.replace(b"lm.ln_f.b ", b"lm.ln_f.\xff ", 1),
], ids=["repeated-name", "non-ascii"])
def test_eval_malformed_manifest_exit5(workspace, trained, tmp_path, capsys, corrupt):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    bad = tmp_path / "bad.ckpt"
    blob = open(s2, "rb").read()
    bad.write_bytes(corrupt(blob))
    assert bad.read_bytes() != blob
    assert main(["eval", "--ckpt", str(bad), "--data", data, "--config", cfg]) == 5
    assert "Traceback" not in capsys.readouterr().err


def test_eval_vocab_mismatch_exit5(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    other = str(tmp_path / "other_data")
    assert main(["gen-data", "--seed", "99", "--scenes", "4", "--views", "1",
                 "--image-size", "16", "--out", other, "--config", cfg]) == 0
    # The closed template corpus is stable, so force a vocabulary drift.
    with open(os.path.join(other, "vocab.txt"), "a", encoding="utf-8") as fh:
        fh.write("zzz_extra_token\n")
    assert main(["eval", "--ckpt", s2, "--data", other, "--config", cfg]) == 5


@pytest.mark.parametrize("case", ["split", "samples.jsonl", "vocab.txt", "no-entities",
                                  "config", "ckpt"])
def test_missing_input_usage_error(workspace, tmp_path, capsys, case):
    # A missing input file or a scenes record without entities is a usage
    # error: one error line that names the file, and no traceback.
    root, cfg, data = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    argv = ["train", "--stage", "1", "--data", str(copy), "--config", cfg,
            "--ckpt-out", str(tmp_path / "s1.ckpt")]
    if case == "no-entities":
        named = copy / "scenes.jsonl"
        records = [json.loads(line) for line in named.read_text().splitlines()]
        del records[1]["entities"]
        named.write_text("".join(json.dumps(r) + "\n" for r in records))
    elif case == "config":
        named = tmp_path / "missing.cfg"
        argv[argv.index(cfg)] = str(named)
    elif case == "ckpt":
        named = tmp_path / "missing.ckpt"
        argv = ["eval", "--ckpt", str(named), "--data", data, "--config", cfg]
    else:
        named = copy / case
        named.unlink()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0], err


@pytest.mark.parametrize("line", ["eval.mode = greedy", "eval.beam_k = 1",
                                  "threads = 1", "eval.max_new_qa = -3"])
def test_eval_bad_settings_usage_error(workspace, trained, tmp_path, capsys, line):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(cfg).read() + line + "\n")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", str(bad)]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    # train rejects them before it trains anything.
    ckpt = tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--data", data, "--config", str(bad),
                 "--ckpt-out", str(ckpt)]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not ckpt.exists()
    # ablate rejects them before it trains anything.
    abl = tmp_path / "abl"
    assert main(["ablate", "--variant", "full", "--data", data, "--config", str(bad),
                 "--stage1-ckpt", s1, "--out-dir", str(abl)]) == 2
    assert not abl.exists()


def test_eval_threads_flag_usage_error(tmp_path, capsys):
    # Evaluation runs on one thread: argparse refuses the flag (exit 2 as
    # SystemExit) before anything is read.
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", "missing.ckpt", "--data", str(tmp_path / "missing"),
              "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_ablate_full_matches_train_plus_eval(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    abl = str(tmp_path / "abl")
    assert main(["ablate", "--variant", "full", "--data", data, "--config", cfg,
                 "--seed", "3", "--stage1-ckpt", s1, "--out-dir", abl]) == 0
    assert open(os.path.join(abl, "full.ckpt"), "rb").read() == \
        open(s2, "rb").read()
    report = open(os.path.join(abl, "full.report")).read()
    assert "variant = full" in report


def test_ablate_variant_schemas_match(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, _, _ = trained
    schemas = []
    for variant in ("no-depth-seg", "stacked"):
        abl = str(tmp_path / f"abl_{variant}")
        assert main(["ablate", "--variant", variant, "--data", data,
                     "--config", cfg, "--seed", "3", "--stage1-ckpt", s1,
                     "--out-dir", abl]) == 0
        lines = open(os.path.join(abl, f"{variant}.report")).read().splitlines()
        schemas.append([l.split("\t")[0] for l in lines if "\t" in l])
        assert f"variant = {variant}" in "\n".join(lines)
    assert schemas[0] == schemas[1]


def test_ablate_unknown_variant_usage(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, _, _ = trained
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--variant", "bogus", "--data", data,
              "--stage1-ckpt", s1, "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2


TARGETS = ["depth_loss", "seg_loss", "answer_loss", "contrastive_loss"]


def gradcheck_rows(capsys, *flags) -> tuple[int, dict[str, str]]:
    """The exit code and each target's status column."""
    code = main(["gradcheck", "--seed", "0", *flags])
    lines = capsys.readouterr().out.splitlines()[1:]
    return code, {line.split("\t")[0]: line.split("\t")[-1] for line in lines}


def test_gradcheck_passes_and_corrupt_fails(capsys):
    assert gradcheck_rows(capsys) == (0, dict.fromkeys(TARGETS, "pass"))
    assert gradcheck_rows(capsys, "--corrupt") == (1, dict.fromkeys(TARGETS, "FAIL"))


def test_gradcheck_config_flag_usage_error(tmp_path, capsys):
    # The suite's configurations are pinned, so gradcheck takes no config.
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("[model]\n")
    for path in (str(cfg), str(tmp_path / "missing.toml")):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seed", "0", "--config", path])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def test_gradcheck_negative_seed_usage_error(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_eval_variant_inferred_from_checkpoint(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, _, _ = trained
    abl = str(tmp_path / "abl_inf")
    assert main(["ablate", "--variant", "no-depth", "--data", data,
                 "--config", cfg, "--seed", "3", "--stage1-ckpt", s1,
                 "--out-dir", abl]) == 0
    rp = str(tmp_path / "inferred.report")
    assert main(["eval", "--ckpt", os.path.join(abl, "no-depth.ckpt"),
                 "--data", data, "--config", cfg, "--report", rp]) == 0
    assert "variant = no-depth" in open(rp).read()


@pytest.mark.parametrize("command", [
    ["train", "--stage", "1", "--ckpt-out", "never.ckpt"],
    ["eval", "--ckpt", "missing.ckpt"],
])
def test_unknown_variant_usage_before_reading(tmp_path, capsys, command):
    # The data path does not exist: argparse must reject the variant (exit 2
    # as SystemExit) before anything tries to read it.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--variant", "bogus", "--data", str(tmp_path / "missing")])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1.5", "true"])
def test_config_value_of_wrong_type_usage_error(workspace, tmp_path, capsys, value):
    root, cfg, data = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(cfg).read() + f"spatial.encoder_dim = {value}\n")
    out = tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--data", data, "--config", str(bad),
                 "--ckpt-out", str(out)]) == 2
    assert "spatial.encoder_dim" in capsys.readouterr().err
    assert not out.exists()


def test_train_negative_seed_usage_error(workspace, tmp_path, capsys):
    root, cfg, data = workspace
    ckpt = tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--seed", "-1", "--data", data,
                 "--config", cfg, "--ckpt-out", str(ckpt)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("line", [
    "train.warmup_steps = -5", "train.adam_beta1 = 1.0", "train.adam_beta2 = 1.5",
    "train.weight_decay = -0.01", "train.vfm_epochs = -1",
    "train.qa_per_sample = -1",
])
def test_train_bad_settings_usage_error(workspace, trained, tmp_path, capsys, line):
    root, cfg, data = workspace
    out, s1, _, _ = trained
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(cfg).read() + line + "\n")
    key = line.split(" =")[0]
    ckpt = tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--data", data, "--config", str(bad),
                 "--ckpt-out", str(ckpt)]) == 2
    assert key in capsys.readouterr().err
    assert not ckpt.exists()
    # ablate rejects them before it reads data or trains anything.
    abl = tmp_path / "abl"
    assert main(["ablate", "--variant", "full", "--data", data, "--config", str(bad),
                 "--stage1-ckpt", s1, "--out-dir", str(abl)]) == 2
    assert key in capsys.readouterr().err
    assert not abl.exists()


def test_removed_sgg_max_triples_key_is_a_usage_error(workspace, tmp_path, capsys):
    # Scene-graph targets hold the whole graph; the truncation key is gone.
    root, cfg, data = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(cfg).read() + "train.sgg_max_triples = 24\n")
    ckpt = tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--data", data, "--config", str(bad),
                 "--ckpt-out", str(ckpt)]) == 2
    assert "unknown config keys: train.sgg_max_triples" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("stage", [1, 2])
def test_out_of_vocabulary_id_exits_3_in_either_stage(workspace, trained, tmp_path,
                                                      capsys, monkeypatch, stage):
    """A training record holding an id outside the vocabulary stops the run
    with a DomainError from sequence assembly, text-only or multimodal."""
    root, cfg, data = workspace
    name = f"make_stage{stage}_records"
    make = getattr(cli, name)

    def with_bad_id(samples, vocab, **kwargs):
        out = make(samples, vocab, **kwargs)
        out.records[0].prompt_ids[-1] = len(vocab)
        return out

    monkeypatch.setattr(cli, name, with_bad_id)
    args = ["train", "--stage", str(stage), "--data", data, "--config", cfg,
            "--ckpt-out", str(tmp_path / "x.ckpt")]
    if stage == 2:
        args += ["--ckpt-in", trained[1]]
    assert main(args) == 3
    assert "outside vocabulary" in capsys.readouterr().err


def test_stage1_ckpt_best_contract_error(tmp_path, capsys):
    # The data path does not exist: the flag must be rejected before it is read.
    best, out = tmp_path / "best.ckpt", tmp_path / "s1.ckpt"
    assert main(["train", "--stage", "1", "--data", str(tmp_path / "missing"),
                 "--ckpt-out", str(out), "--ckpt-best", str(best)]) == 3
    assert "--ckpt-best" in capsys.readouterr().err
    assert not best.exists() and not out.exists()


def test_ckpt_best_validates_with_the_run_eval_settings(workspace, trained, tmp_path,
                                                         monkeypatch):
    root, cfg, data = workspace
    out, s1, _, _ = trained
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(open(cfg).read() + "eval.max_new_qa = 1\n")
    seen, real = [], cli.evaluate

    def spy(model, vocab, samples, ecfg, **kwargs):
        seen.append(ecfg)
        return real(model, vocab, samples, ecfg, **kwargs)

    monkeypatch.setattr(cli, "evaluate", spy)
    best = tmp_path / "best.ckpt"
    assert main(["train", "--stage", "2", "--data", data, "--config", str(run_cfg),
                 "--ckpt-in", s1, "--ckpt-out", str(tmp_path / "s2.ckpt"),
                 "--ckpt-best", str(best)]) == 0
    assert seen and all(e.tasks == ("qa",) and e.max_new_qa == 1 for e in seen)
    assert best.exists()
