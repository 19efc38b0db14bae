"""Desk-scale dry run of the acceptance smoke pipeline (probe only)."""

import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

from ormllm.config import RunConfig
from ormllm.evaluate import EvalConfig, evaluate
from ormllm.model import Model, ModelConfig
from ormllm.scenegen import build_dataset
from ormllm.training import make_stage1_records, make_stage2_records, train_stage
from ormllm import tensor as T

t00 = time.time()
seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
run = RunConfig.resolve(overrides={"seed": seed})

t0 = time.time()
bundle = build_dataset(seed, 300, 3, 32)
print(f"gen: {time.time()-t0:.0f}s samples={len(bundle.samples)} vocab={len(bundle.vocab)}", flush=True)

train_samples = bundle.part_samples("train")
test_samples = bundle.part_samples("test")
print(f"train/val/test: {len(train_samples)}/{len(bundle.part_samples('val'))}/{len(test_samples)}")

t0 = time.time()
m1 = Model.build(ModelConfig(variant="no-depth-seg", spatial=run.spatial(),
                             fusion=run.fusion(len(bundle.vocab))), seed)
data1 = make_stage1_records(train_samples, bundle.vocab)
r1 = train_stage(data1, m1, run.train(1))
print(f"stage1: {time.time()-t0:.0f}s records={len(data1.records)} "
      f"means={[round(m,3) for m in r1.epoch_means]}", flush=True)
lm_values = {n: m1.params[n].data.copy() for n in m1.params.names()
             if n.startswith("lm.")}

results = {}
for variant in ("full", "no-depth-seg", "no-fusion"):
    t0 = time.time()
    mcfg = ModelConfig(variant=variant, spatial=run.spatial(),
                       fusion=run.fusion(len(bundle.vocab)))
    model = Model.build(mcfg, seed)
    for n, v in lm_values.items():
        model.params[n].data = v.copy()
    data2 = make_stage2_records(train_samples, bundle.vocab,
                                qa_per_sample=2, seed=seed, sgg_max_triples=16)
    r2 = train_stage(data2, model, run.train(2))
    t_train = time.time() - t0
    if variant != "no-depth-seg":
        probe = test_samples[:12]
        with T.no_grad():
            _, g = model.spatial_grid(np.stack([s.rgb for s in probe]))
            _, ids = model.predict_seg(g)
        gt = np.stack([s.seg for s in probe])
        seg_acc = float(np.mean((ids == gt).mean(axis=(1, 2))))
    else:
        seg_acc = float("nan")
    t0 = time.time()
    rep = evaluate(model, bundle.vocab, test_samples, EvalConfig(max_new_sgg=110))
    t_eval = time.time() - t0
    results[variant] = rep
    vfm_end = r2.vfm_epoch_means[-1] if r2.vfm_epoch_means else None
    print(f"{variant}: train {t_train:.0f}s eval {t_eval:.0f}s "
          f"vfm_end={vfm_end} seg_acc={seg_acc:.3f} "
          f"lm_means={[round(m,2) for m in r2.epoch_means]}", flush=True)
    print(f"    EM={rep.em_at_1:.2f} R-L={rep.rouge_l:.2f} M={rep.meteor:.2f} "
          f"C={rep.cider:.3f} SGG P/R/F1={rep.sgg_p:.2f}/{rep.sgg_r:.2f}/{rep.sgg_f1:.2f}",
          flush=True)

full, rgb, nofusion = results["full"], results["no-depth-seg"], results["no-fusion"]
print(f"\nEM full {full.em_at_1:.2f} vs rgb-only {rgb.em_at_1:.2f}: "
      f"{'PASS' if full.em_at_1 > rgb.em_at_1 else 'FAIL'}")
print(f"F1 full {full.sgg_f1:.2f} vs no-fusion {nofusion.sgg_f1:.2f}: "
      f"{'PASS' if full.sgg_f1 > nofusion.sgg_f1 else 'FAIL'}")
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(f"total wall: {time.time()-t00:.0f}s peak RSS: {peak_mb:.0f} MB")
