"""End-to-end CLI behavior at miniature scale: exit codes, determinism,
artifact formats."""

import filecmp
import os

import numpy as np
import pytest

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


def test_gen_data_zero_scenes_usage_error(tmp_path):
    assert main(["gen-data", "--seed", "1", "--scenes", "0", "--views", "1",
                 "--out", str(tmp_path / "x")]) == 2


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


def test_eval_unknown_task_usage(workspace, trained):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--tasks", "qa,bogus"]) == 2


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


def test_eval_threads_equivalence(workspace, trained, tmp_path):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    r1 = str(tmp_path / "t1.report")
    r4 = str(tmp_path / "t4.report")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--threads", "1", "--report", r1]) == 0
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--threads", "4", "--report", r4]) == 0
    pick = lambda p: [l for l in open(p).read().splitlines()
                      if "\t" in l and not l.startswith("#")]
    assert pick(r1) == pick(r4)


@pytest.mark.parametrize("line", ["eval.mode = sample", "eval.beam_k = 0",
                                  "threads = 0", "eval.max_new_qa = -3"])
def test_eval_bad_settings_usage_error(workspace, trained, tmp_path, capsys, line):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    bad = tmp_path / "bad.cfg"
    bad.write_text(open(cfg).read() + line + "\n")
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", str(bad)]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    # ablate rejects them before it trains anything.
    abl = tmp_path / "abl"
    assert main(["ablate", "--variant", "full", "--data", data, "--config", str(bad),
                 "--stage1-ckpt", s1, "--out-dir", str(abl)]) == 2
    assert not abl.exists()


def test_eval_threads_flag_zero_usage_error(workspace, trained):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg,
                 "--threads", "0"]) == 2


@pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5"])
def test_eval_bad_threads_env_usage_error(workspace, trained, monkeypatch, capsys,
                                          value):
    root, cfg, data = workspace
    out, s1, s2, _ = trained
    monkeypatch.setenv("ORMLLM_THREADS", value)
    assert main(["eval", "--ckpt", s2, "--data", data, "--config", cfg]) == 2
    assert "threads" in capsys.readouterr().err.lower()


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


def test_gradcheck_passes_and_corrupt_fails():
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert main(["gradcheck", "--seed", "0", "--corrupt"]) == 1


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
