import numpy as np
import pytest

from ormllm.errors import DataParseError
from ormllm.geometry import reconstruct_point_cloud
from ormllm.scenegen import (
    CLASS_ID,
    REL_MARGIN,
    NEXT_TO_GAP,
    ON_TOP_OVERLAP,
    ON_TOP_ZTOL,
    HOLDING_GAP,
    Box,
    Entity,
    Scene,
    Triple,
    build_dataset,
    derive_triples,
    generate_scene,
    look_at,
    read_dataset,
    render_views,
    sort_triples,
    template_text,
    triples_to_text,
    write_dataset,
    _validate_scene,
)


def test_same_seed_identical_scene():
    a, b = generate_scene(11), generate_scene(11)
    assert [e.cls for e in a.entities] == [e.cls for e in b.entities]
    for ea, eb in zip(a.entities, b.entities):
        np.testing.assert_array_equal(ea.box.lo, eb.box.lo)
        np.testing.assert_array_equal(ea.box.hi, eb.box.hi)
    assert a.relations == b.relations


def test_generated_scenes_satisfy_invariants():
    for seed in range(25):
        sc = generate_scene(seed)
        assert _validate_scene(sc.entities)
        classes = [e.cls for e in sc.entities]
        assert len(set(classes)) == len(classes)
        assert "floor" in classes and "operating_table" in classes


def test_entity_subset_diversity():
    subsets = {tuple(sorted(e.cls for e in generate_scene(s).entities))
               for s in range(100)}
    # Regression bound frozen from the pinned generator version.
    assert len(subsets) >= 2


# --- triple derivation against a scratch oracle ------------------------------


def oracle_triples(entities):
    """Independent reimplementation of the relation rules with plain loops."""
    out = set()
    ents = [e for e in entities if e.cls != "floor"]
    for a in ents:
        for b in ents:
            if a.cls == b.cls:
                continue
            alo, ahi, blo, bhi = a.box.lo, a.box.hi, b.box.lo, b.box.hi
            acx = (alo[0] + ahi[0]) / 2
            bcx = (blo[0] + bhi[0]) / 2
            acy = (alo[1] + ahi[1]) / 2
            bcy = (blo[1] + bhi[1]) / 2
            if acx < blo[0] - REL_MARGIN:
                out.add(Triple(a.cls, "left_of", b.cls))
            if bcx < alo[0] - REL_MARGIN:
                out.add(Triple(a.cls, "right_of", b.cls))
            if acy < blo[1] - REL_MARGIN:
                out.add(Triple(a.cls, "in_front_of", b.cls))
            if bcy < alo[1] - REL_MARGIN:
                out.add(Triple(a.cls, "behind", b.cls))

            def gap(lo1, hi1, lo2, hi2):
                return max(0.0, lo2 - hi1, lo1 - hi2)

            gx = gap(alo[0], ahi[0], blo[0], bhi[0])
            gy = gap(alo[1], ahi[1], blo[1], bhi[1])
            contains_ab = (alo[0] <= blo[0] and bhi[0] <= ahi[0]
                           and alo[1] <= blo[1] and bhi[1] <= ahi[1])
            contains_ba = (blo[0] <= alo[0] and ahi[0] <= bhi[0]
                           and blo[1] <= alo[1] and ahi[1] <= bhi[1])
            if gx < NEXT_TO_GAP and gy < NEXT_TO_GAP and not (contains_ab or contains_ba):
                out.add(Triple(a.cls, "next_to", b.cls))
            ow = max(0.0, min(ahi[0], bhi[0]) - max(alo[0], blo[0]))
            oh = max(0.0, min(ahi[1], bhi[1]) - max(alo[1], blo[1]))
            area = (ahi[0] - alo[0]) * (ahi[1] - alo[1])
            if area > 0 and ow * oh >= ON_TOP_OVERLAP * area and abs(alo[2] - bhi[2]) <= ON_TOP_ZTOL:
                out.add(Triple(a.cls, "on_top_of", b.cls))
            if (a.cls, b.cls) in (("surgeon", "instrument_tray"), ("nurse", "instrument_tray")):
                gz = gap(alo[2], ahi[2], blo[2], bhi[2])
                if max(gx, gy, gz) < HOLDING_GAP:
                    out.add(Triple(a.cls, "holding", b.cls))
    return out


def test_triples_match_scratch_oracle_on_100_scenes():
    for seed in range(100):
        sc = generate_scene(seed)
        assert derive_triples(sc) == oracle_triples(sc.entities), f"seed {seed}"


def test_patient_on_table_triple():
    for seed in range(40):
        sc = generate_scene(seed)
        if any(e.cls == "patient" for e in sc.entities):
            assert Triple("patient", "on_top_of", "operating_table") in sc.relations
            return
    pytest.fail("no scene with a patient in 40 seeds")


def test_far_boxes_left_right_only():
    mk = lambda lo, hi: Box(np.array(lo), np.array(hi))
    ents = [
        Entity("surgeon", mk([0.2, 1.0, 0.0], [0.7, 1.5, 1.8]), CLASS_ID["surgeon"]),
        Entity("nurse", mk([5.2, 1.0, 0.0], [5.7, 1.5, 1.8]), CLASS_ID["nurse"]),
    ]
    triples = derive_triples(Scene(entities=ents, relations=set(), seed=0))
    assert Triple("surgeon", "left_of", "nurse") in triples
    assert Triple("nurse", "right_of", "surgeon") in triples
    assert all(t.predicate != "next_to" for t in triples)


def test_antisymmetry_left_right_front_behind():
    for seed in range(50):
        triples = generate_scene(seed).relations
        for t in triples:
            if t.predicate == "left_of":
                assert Triple(t.object, "right_of", t.subject) in triples
            if t.predicate == "in_front_of":
                assert Triple(t.object, "behind", t.subject) in triples


def test_on_top_of_irreflexive_acyclic():
    for seed in range(50):
        triples = generate_scene(seed).relations
        tops = {(t.subject, t.object) for t in triples if t.predicate == "on_top_of"}
        assert all(s != o for s, o in tops)
        assert all((o, s) not in tops for s, o in tops)


# --- rendering ----------------------------------------------------------------


def test_floor_only_scene_matches_plane_oracle():
    floor = Entity("floor", Box(np.zeros(3), np.array([6.0, 6.0, 0.05])),
                   CLASS_ID["floor"])
    scene = Scene(entities=[floor], relations=set(), seed=123)
    (sample,) = render_views(scene, 1, 32)
    assert set(np.unique(sample.seg)) == {1}
    K, pose = sample.K, sample.pose
    uu, vv = np.meshgrid(np.arange(32.0), np.arange(32.0))
    dir_cam = np.stack([(uu - K.cx) / K.fx, (vv - K.cy) / K.fy, np.ones_like(uu)], -1)
    dirs = dir_cam @ pose.rotation.T
    o = pose.translation
    # Closed-form ray/plane oracle against the floor top at z = 0.05.
    t_plane = (0.05 - o[2]) / dirs[..., 2]
    hit_xy = o[:2] + t_plane[..., None] * dirs[..., :2]
    inside = ((hit_xy >= 0) & (hit_xy <= 6)).all(-1) & (t_plane > 0)
    expected = np.where(inside, t_plane, 0.0)
    np.testing.assert_allclose(sample.depth, expected, atol=1e-9)


def test_rendering_consistency_invariant():
    for seed in (3, 4):
        sc = generate_scene(seed)
        boxes = {e.color_id: e.box for e in sc.entities}
        for s in render_views(sc, 2, 32):
            vv, uu = np.nonzero(s.depth > 0)
            vv, uu = vv[::7], uu[::7]
            points = reconstruct_point_cloud(s.depth[vv, uu], s.K, s.pose,
                                             np.stack([uu, vv], axis=1))
            for v, u, p in zip(vv, uu, points):
                box = boxes[s.seg[v, u]]
                assert (p >= box.lo - 1e-6).all() and (p <= box.hi + 1e-6).all()


def test_views_share_scene_but_not_pose():
    sc = generate_scene(5)
    samples = render_views(sc, 3, 32)
    assert len(samples) == 3
    assert len({s.scene_id for s in samples}) == 1
    poses = {tuple(np.round(s.pose.translation, 9)) for s in samples}
    assert len(poses) == 3
    assert len({s.description for s in samples}) == 1


# --- templating ----------------------------------------------------------------


def test_on_top_sentence_matches_template():
    triples = {Triple("patient", "on_top_of", "operating_table")}
    mk = lambda lo, hi: Box(np.array(lo), np.array(hi))
    scene = Scene(
        entities=[
            Entity("operating_table", mk([2, 2, 0], [4, 3, 1]), 2),
            Entity("patient", mk([2.2, 2.2, 1.0], [3.6, 2.8, 1.3]), 3),
        ],
        relations=triples, seed=0,
    )
    description, _ = template_text(scene, triples, 0)
    assert description == "The patient is on top of the operating table."


def test_absent_class_existence_answer_no():
    scene = generate_scene(17)
    _, qa = template_text(scene, scene.relations, 17)
    present = set(scene.present_classes())
    for q, answers in qa:
        if q.startswith("Is there"):
            noun = q.split(" in the room?")[0].split(" ", 3)[-1]
            cls = noun.replace(" ", "_")
            assert answers == (("yes",) if cls in present else ("no",))


def test_template_deterministic():
    scene = generate_scene(9)
    a = template_text(scene, scene.relations, 9)
    b = template_text(scene, scene.relations, 9)
    assert a == b


def test_sgg_serialization_round_trip_tokens():
    # Every scene of the smoke corpus: its text parses back to its gold set,
    # with no duplicate, and fits the default decode budget with EOS.
    from ormllm.evaluate import EvalConfig
    from ormllm.metrics import parse_triples

    budget = EvalConfig().max_new_sgg
    for s in build_dataset(0, 300, 3, 32).samples:
        text = triples_to_text(s.triples)
        parsed = parse_triples(text)
        assert len(parsed) == len(set(parsed))
        assert set(parsed) == set(s.triples)
        assert len(text.split()) <= budget - 1


def test_compact_graph_writes_each_pair_once():
    # Class ids: operating_table 2, patient 3, surgeon 4, instrument_tray 6.
    graph = {
        Triple("patient", "on_top_of", "operating_table"),
        Triple("patient", "right_of", "surgeon"), Triple("surgeon", "left_of", "patient"),
        Triple("surgeon", "holding", "instrument_tray"),
        Triple("surgeon", "next_to", "instrument_tray"),
        Triple("instrument_tray", "next_to", "surgeon"),
    }
    assert triples_to_text(graph) == (
        "patient operating_table on_top_of ; patient surgeon right_of ; "
        "surgeon instrument_tray next_to holding ;")
    assert triples_to_text(set()) == ""


# --- dataset io ----------------------------------------------------------------


def small_bundle(seed=21, scenes=4, views=2):
    return build_dataset(seed, scenes, views, 16)


def test_dataset_round_trip(tmp_path):
    bundle = small_bundle()
    path = str(tmp_path / "ds")
    write_dataset(bundle, path)
    loaded = read_dataset(path)
    assert len(loaded.samples) == len(bundle.samples)
    for a, b in zip(bundle.samples, loaded.samples):
        assert a.sample_id == b.sample_id
        np.testing.assert_array_equal(a.rgb, b.rgb)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.seg, b.seg)
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
        np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
        assert (a.K.fx, a.K.fy, a.K.cx, a.K.cy) == (b.K.fx, b.K.fy, b.K.cx, b.K.cy)
        assert a.triples == b.triples
        assert a.description == b.description
        assert a.qa == b.qa
    assert loaded.split.train == bundle.split.train
    assert loaded.vocab.tokens == bundle.vocab.tokens
    for sa, sb in zip(bundle.scenes, loaded.scenes):
        assert sa.seed == sb.seed and sa.relations == sb.relations


def test_dataset_bytes_deterministic(tmp_path):
    import filecmp

    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_dataset(small_bundle(), p1)
    write_dataset(small_bundle(), p2)
    for name in ("meta", "vocab.txt", "scenes.jsonl", "samples.jsonl", "split"):
        assert filecmp.cmp(f"{p1}/{name}", f"{p2}/{name}", shallow=False), name


def test_truncated_samples_file_parse_error(tmp_path):
    path = str(tmp_path / "ds")
    write_dataset(small_bundle(), path)
    sf = tmp_path / "ds" / "samples.jsonl"
    lines = sf.read_bytes().splitlines(keepends=True)
    sf.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    with pytest.raises(DataParseError, match="samples.jsonl:3"):
        read_dataset(path)


def test_split_ratios_by_scene():
    bundle = build_dataset(31, 10, 3, 16)
    split = bundle.split
    assert len(split.scene_ids("train")) == 6
    assert len(split.scene_ids("val")) == 2
    assert len(split.scene_ids("test")) == 2
    all_ids = split.train + split.val + split.test
    assert len(all_ids) == len(set(all_ids)) == 30
    # Views of one scene never straddle parts.
    for part in ("train", "val", "test"):
        for sid in split.scene_ids(part):
            views = [s for s in all_ids if s.startswith(f"s{sid:04d}")]
            assert all(v in getattr(split, part) for v in views)


def test_every_answer_word_in_vocabulary():
    bundle = small_bundle()
    for s in bundle.samples:
        for _, answers in s.qa:
            for answer in answers:
                bundle.vocab.encode(answer)  # raises if any word is missing
        bundle.vocab.encode(triples_to_text(s.triples))


def test_look_at_orthonormal():
    pose = look_at(np.array([5.0, 1.0, 2.0]), np.array([3.0, 3.0, 1.0]))
    np.testing.assert_allclose(pose.rotation.T @ pose.rotation, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(pose.rotation) - 1) < 1e-12
