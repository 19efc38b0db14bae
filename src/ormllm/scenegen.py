"""Deterministic synthetic operating-room world generator.

A Scene is a set of class-labeled axis-aligned boxes inside a 6x6x3 m
room plus spatial relations derived from box geometry by fixed rules.
Views are flat-shaded raycast renders: each pixel takes the class color
of the nearest box hit, the camera-frame z of the hit as ground-truth
depth, and the class id as ground-truth segmentation. Pixels that hit
nothing carry the depth sentinel 0 and the floor/background id 1, so
rendered depth, segmentation and geometry agree exactly by construction.

All randomness flows from integer seeds through numpy SeedSequence, so a
fixed (seed, config, generator version) reproduces the dataset byte for
byte.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import DataParseError, DomainError, GenerationError
from .geometry import CameraIntrinsics, CameraPose
from .vocab import Vocabulary

GEN_VERSION = "1"

ROOM = np.array([6.0, 6.0, 3.0])

# Class ids are 1-based; id 1 (floor) doubles as background for ray misses.
CLASS_NAMES = (
    "floor",
    "operating_table",
    "patient",
    "surgeon",
    "nurse",
    "instrument_tray",
    "anesthesia_machine",
    "monitor",
)
CLASS_ID = {name: i + 1 for i, name in enumerate(CLASS_NAMES)}
CLASS_TEXT = {name: name.replace("_", " ") for name in CLASS_NAMES}

# Flat-shading palette, one distinct color per class; misses use BACKGROUND.
CLASS_COLORS = np.array(
    [
        [0.70, 0.70, 0.70],  # floor
        [0.10, 0.55, 0.55],  # operating_table
        [0.90, 0.75, 0.60],  # patient
        [0.15, 0.65, 0.20],  # surgeon
        [0.20, 0.30, 0.85],  # nurse
        [0.80, 0.80, 0.90],  # instrument_tray
        [0.60, 0.15, 0.15],  # anesthesia_machine
        [0.10, 0.10, 0.15],  # monitor
    ]
)
BACKGROUND_COLOR = np.array([0.03, 0.03, 0.06])

PREDICATES = (
    "left_of",
    "right_of",
    "in_front_of",
    "behind",
    "next_to",
    "on_top_of",
    "holding",
)
PRED_ID = {p: i for i, p in enumerate(PREDICATES)}
PRED_PHRASE = {
    "left_of": "to the left of",
    "right_of": "to the right of",
    "in_front_of": "in front of",
    "behind": "behind",
    "next_to": "next to",
    "on_top_of": "on top of",
    "holding": "holding",
}
# derive_triples makes right_of and behind the exact inverses of left_of and
# in_front_of, and next_to symmetric: a gold graph holds each of these
# triples together with its inverse.
INVERSE = {"left_of": "right_of", "right_of": "left_of",
           "in_front_of": "behind", "behind": "in_front_of",
           "next_to": "next_to"}

REL_MARGIN = 0.1
NEXT_TO_GAP = 0.3
ON_TOP_OVERLAP = 0.5
ON_TOP_ZTOL = 0.05
HOLDING_GAP = 0.1

NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven")

# (width-x, depth-y, height-z) sampling ranges in meters.
SIZE_RANGES = {
    "operating_table": ((1.7, 2.1), (0.8, 1.0), (0.9, 1.1)),
    "patient": ((1.3, 1.6), (0.45, 0.6), (0.25, 0.35)),
    "surgeon": ((0.45, 0.6), (0.45, 0.6), (1.6, 1.9)),
    "nurse": ((0.45, 0.6), (0.45, 0.6), (1.55, 1.85)),
    "instrument_tray": ((0.45, 0.6), (0.35, 0.5), (0.7, 0.95)),
    "anesthesia_machine": ((0.55, 0.8), (0.55, 0.8), (1.2, 1.6)),
    "monitor": ((0.45, 0.6), (0.12, 0.25), (0.3, 0.5)),
}
PRESENCE_PROB = {
    "patient": 0.85,
    "surgeon": 0.8,
    "nurse": 0.7,
    "instrument_tray": 0.75,
    "anesthesia_machine": 0.5,
    "monitor": 0.5,
}
PLACE_LO, PLACE_HI = 1.1, 4.9  # central placement band, keeps walls clear


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


class QaPair(NamedTuple):
    question: str
    answers: tuple[str, ...]


@dataclass
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def size(self) -> np.ndarray:
        return self.hi - self.lo

    def contains_point(self, p: np.ndarray, tol: float = 0.0) -> bool:
        return bool(((p >= self.lo - tol) & (p <= self.hi + tol)).all())

    def overlaps_3d(self, other: "Box") -> bool:
        return bool(((self.lo < other.hi) & (other.lo < self.hi)).all())


def _axis_gap(alo, ahi, blo, bhi) -> float:
    return max(0.0, max(blo - ahi, alo - bhi))


def _footprint_overlap_area(a: Box, b: Box) -> float:
    dx = min(a.hi[0], b.hi[0]) - max(a.lo[0], b.lo[0])
    dy = min(a.hi[1], b.hi[1]) - max(a.lo[1], b.lo[1])
    return max(0.0, dx) * max(0.0, dy)


def _footprint_contains(outer: Box, inner: Box) -> bool:
    return bool(
        (outer.lo[:2] <= inner.lo[:2]).all() and (inner.hi[:2] <= outer.hi[:2]).all()
    )


@dataclass
class Entity:
    cls: str
    box: Box
    color_id: int


@dataclass
class Scene:
    entities: list[Entity]
    relations: set[Triple]
    seed: int

    def present_classes(self) -> list[str]:
        return [e.cls for e in self.entities]


def _validate_scene(entities: list[Entity]) -> bool:
    classes = [e.cls for e in entities]
    if len(set(classes)) != len(classes):
        return False
    for e in entities:
        if (e.box.lo < 0).any() or (e.box.hi > ROOM).any():
            return False
    patient = next((e for e in entities if e.cls == "patient"), None)
    table = next((e for e in entities if e.cls == "operating_table"), None)
    if patient is not None:
        if table is None or not _footprint_contains(table.box, patient.box):
            return False
    for i, a in enumerate(entities):
        for b in entities[i + 1 :]:
            if {a.cls, b.cls} == {"patient", "operating_table"}:
                continue
            if "floor" in (a.cls, b.cls):
                continue
            if a.box.overlaps_3d(b.box):
                return False
    return True


def _sample_entities(rng: np.random.Generator) -> list[Entity]:
    entities = [
        Entity("floor", Box(np.zeros(3), np.array([ROOM[0], ROOM[1], 0.05])),
               CLASS_ID["floor"])
    ]

    def sample_box(cls: str, *, bottom: float | None = 0.0,
                   xy: np.ndarray | None = None) -> Box:
        (wx0, wx1), (wy0, wy1), (wz0, wz1) = SIZE_RANGES[cls]
        size = np.array([rng.uniform(wx0, wx1), rng.uniform(wy0, wy1),
                         rng.uniform(wz0, wz1)])
        if xy is None:
            xy = np.array([rng.uniform(PLACE_LO, PLACE_HI - size[0]),
                           rng.uniform(PLACE_LO, PLACE_HI - size[1])])
        z0 = bottom if bottom is not None else rng.uniform(1.3, 1.9)
        lo = np.array([xy[0], xy[1], z0])
        return Box(lo, lo + size)

    table = Entity("operating_table", sample_box("operating_table"),
                   CLASS_ID["operating_table"])
    entities.append(table)

    if rng.random() < PRESENCE_PROB["patient"]:
        (wx0, wx1), (wy0, wy1), (wz0, wz1) = SIZE_RANGES["patient"]
        size = np.array([rng.uniform(wx0, wx1), rng.uniform(wy0, wy1),
                         rng.uniform(wz0, wz1)])
        tb = table.box
        size[0] = min(size[0], tb.size[0] * 0.95)
        size[1] = min(size[1], tb.size[1] * 0.95)
        x = rng.uniform(tb.lo[0], tb.hi[0] - size[0])
        y = rng.uniform(tb.lo[1], tb.hi[1] - size[1])
        lo = np.array([x, y, tb.hi[2]])
        entities.append(Entity("patient", Box(lo, lo + size), CLASS_ID["patient"]))

    for cls in ("surgeon", "nurse", "anesthesia_machine"):
        if rng.random() < PRESENCE_PROB[cls]:
            entities.append(Entity(cls, sample_box(cls), CLASS_ID[cls]))

    if rng.random() < PRESENCE_PROB["instrument_tray"]:
        holder = next((e for e in entities if e.cls in ("surgeon", "nurse")), None)
        if holder is not None and rng.random() < 0.6:
            # Park the tray within holding distance of the staff member.
            (wx0, wx1), (wy0, wy1), (wz0, wz1) = SIZE_RANGES["instrument_tray"]
            size = np.array([rng.uniform(wx0, wx1), rng.uniform(wy0, wy1),
                             rng.uniform(wz0, wz1)])
            gap = rng.uniform(0.02, 0.08)
            side = rng.integers(0, 4)
            hb = holder.box
            if side == 0:
                xy = np.array([hb.hi[0] + gap, hb.lo[1]])
            elif side == 1:
                xy = np.array([hb.lo[0] - gap - size[0], hb.lo[1]])
            elif side == 2:
                xy = np.array([hb.lo[0], hb.hi[1] + gap])
            else:
                xy = np.array([hb.lo[0], hb.lo[1] - gap - size[1]])
            lo = np.array([xy[0], xy[1], 0.0])
            entities.append(
                Entity("instrument_tray", Box(lo, lo + size), CLASS_ID["instrument_tray"])
            )
        else:
            entities.append(
                Entity("instrument_tray", sample_box("instrument_tray"),
                       CLASS_ID["instrument_tray"])
            )

    if rng.random() < PRESENCE_PROB["monitor"]:
        entities.append(Entity("monitor", sample_box("monitor", bottom=None),
                               CLASS_ID["monitor"]))
    return entities


def generate_scene(seed: int) -> Scene:
    """Rejection-samples entity subsets and placements until the scene
    invariants hold; fails after 1000 attempts."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5CE9E, seed]))
    for _ in range(1000):
        entities = _sample_entities(rng)
        if _validate_scene(entities):
            scene = Scene(entities=entities, relations=set(), seed=seed)
            scene.relations = derive_triples(scene)
            return scene
    raise GenerationError(f"scene generation exhausted 1000 attempts for seed {seed}")


def derive_triples(scene: Scene) -> set[Triple]:
    """Geometric relation rules over ordered entity pairs; the floor is
    excluded (it would relate trivially to everything)."""
    ents = [e for e in scene.entities if e.cls != "floor"]
    out: set[Triple] = set()

    def left_of(a: Box, b: Box) -> bool:
        return a.center[0] < b.lo[0] - REL_MARGIN

    def in_front_of(a: Box, b: Box) -> bool:
        return a.center[1] < b.lo[1] - REL_MARGIN

    for a in ents:
        for b in ents:
            if a.cls == b.cls:
                continue
            ab, bb = a.box, b.box
            if left_of(ab, bb):
                out.add(Triple(a.cls, "left_of", b.cls))
            if left_of(bb, ab):
                out.add(Triple(a.cls, "right_of", b.cls))
            if in_front_of(ab, bb):
                out.add(Triple(a.cls, "in_front_of", b.cls))
            if in_front_of(bb, ab):
                out.add(Triple(a.cls, "behind", b.cls))
            gx = _axis_gap(ab.lo[0], ab.hi[0], bb.lo[0], bb.hi[0])
            gy = _axis_gap(ab.lo[1], ab.hi[1], bb.lo[1], bb.hi[1])
            contained = _footprint_contains(ab, bb) or _footprint_contains(bb, ab)
            if gx < NEXT_TO_GAP and gy < NEXT_TO_GAP and not contained:
                out.add(Triple(a.cls, "next_to", b.cls))
            area_a = ab.size[0] * ab.size[1]
            if area_a > 0 and _footprint_overlap_area(ab, bb) >= ON_TOP_OVERLAP * area_a \
                    and abs(ab.lo[2] - bb.hi[2]) <= ON_TOP_ZTOL:
                out.add(Triple(a.cls, "on_top_of", b.cls))
            if (a.cls, b.cls) in (("surgeon", "instrument_tray"),
                                  ("nurse", "instrument_tray")):
                gz = _axis_gap(ab.lo[2], ab.hi[2], bb.lo[2], bb.hi[2])
                if max(gx, gy, gz) < HOLDING_GAP:
                    out.add(Triple(a.cls, "holding", b.cls))
    return out


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    scene_id: int
    view_id: int
    rgb: np.ndarray        # [H, W, 3] in [0, 1]
    depth: np.ndarray      # [H, W], 0 = no geometry
    seg: np.ndarray        # [H, W] class ids, 1 = floor/background
    K: CameraIntrinsics
    pose: CameraPose
    triples: list[Triple]
    description: str
    qa: list[QaPair]

    @property
    def sample_id(self) -> str:
        return f"s{self.scene_id:04d}v{self.view_id}"


def default_intrinsics(image_size: int) -> CameraIntrinsics:
    f = 0.75 * image_size
    c = (image_size - 1) / 2.0
    return CameraIntrinsics(fx=f, fy=f, cx=c, cy=c)


def look_at(eye: np.ndarray, target: np.ndarray) -> CameraPose:
    forward = target - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    n = np.linalg.norm(right)
    if n < 1e-9:
        raise GenerationError("camera looking straight along the up axis")
    right /= n
    down = np.cross(forward, right)
    rot = np.stack([right, down, forward], axis=1)
    return CameraPose(rotation=rot, translation=eye.copy())


def _raycast(scene: Scene, K: CameraIntrinsics, pose: CameraPose, H: int, W: int):
    """Slab-test every box against every pixel's ray at once ([E, H, W, 3]).
    A pixel shows the box with the smallest t_near among those it hits
    (t_near <= t_far, t_near > 1e-9), the first in entity order on a tie;
    a 0/0 slab gives NaN, which hits nothing."""
    uu, vv = np.meshgrid(np.arange(W, dtype=np.float64),
                         np.arange(H, dtype=np.float64))
    dirs_cam = np.stack([(uu - K.cx) / K.fx, (vv - K.cy) / K.fy,
                         np.ones_like(uu)], axis=-1)
    dirs = dirs_cam @ pose.rotation.T  # ray parameter equals camera-frame z
    o = pose.translation
    lo = np.array([e.box.lo for e in scene.entities]).reshape(-1, 1, 1, 3)
    hi = np.array([e.box.hi for e in scene.entities]).reshape(-1, 1, 1, 3)
    colors = np.array([e.color_id for e in scene.entities], dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / dirs
        t2 = (hi - o) / dirs
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        t_near = np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2])
        t_far = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
        t_hit = np.where((t_near <= t_far) & (t_near > 1e-9), t_near, np.inf)
    if not len(colors):
        t_hit = np.full((1, H, W), np.inf)
        colors = np.ones(1, dtype=np.int64)
    first = t_hit.argmin(axis=0)  # argmin keeps the first of equal minima
    depth = np.take_along_axis(t_hit, first[None], axis=0)[0]
    miss = ~np.isfinite(depth)
    depth[miss] = 0.0
    seg = np.where(miss, 1, colors[first])
    rgb = CLASS_COLORS[seg - 1].copy()
    rgb[miss] = BACKGROUND_COLOR
    return rgb, depth, seg


def render_views(scene: Scene, n_views: int, image_size: int,
                 qa_seed: int | None = None) -> list[Sample]:
    """Ring of inward-looking cameras around the room center. A camera that
    lands inside an entity box is nudged outward, with an error after 100
    nudges."""
    if n_views < 1:
        raise DomainError("need at least one view")
    rng = np.random.default_rng(np.random.SeedSequence([0xCA3E5A, scene.seed]))
    centers = [e.box.center for e in scene.entities if e.cls != "floor"]
    target = np.mean(centers, axis=0) if centers else np.array([3.0, 3.0, 1.0])
    target[2] = min(max(target[2], 0.7), 1.3)
    K = default_intrinsics(image_size)
    description, qa = template_text(
        scene, scene.relations, scene.seed if qa_seed is None else qa_seed
    )
    triples = sort_triples(scene.relations)

    samples = []
    for k in range(n_views):
        angle = 2.0 * np.pi * k / n_views + rng.uniform(-0.15, 0.15)
        radius = rng.uniform(2.5, 3.0)
        height = rng.uniform(1.5, 2.0)
        for nudge in range(101):
            eye = np.array([3.0 + radius * np.cos(angle),
                            3.0 + radius * np.sin(angle), height])
            inside = any(e.box.contains_point(eye) for e in scene.entities)
            if not inside:
                break
            radius += 0.25
        else:
            raise GenerationError(
                f"camera for scene {scene.seed} view {k} stuck inside geometry"
            )
        pose = look_at(eye, target + rng.uniform(-0.1, 0.1, size=3))
        rgb, depth, seg = _raycast(scene, K, pose, image_size, image_size)
        samples.append(
            Sample(scene_id=scene.seed, view_id=k, rgb=rgb, depth=depth, seg=seg,
                   K=K, pose=pose, triples=triples, description=description, qa=qa)
        )
    return samples


# ---------------------------------------------------------------------------
# Text templating
# ---------------------------------------------------------------------------


def _article(noun: str) -> str:
    return "an" if noun[0] in "aeiou" else "a"


def sort_triples(triples) -> list[Triple]:
    return sorted(triples, key=lambda t: (CLASS_ID[t.subject], PRED_ID[t.predicate],
                                          CLASS_ID[t.object]))


def triples_to_text(triples) -> str:
    """Compact serialized scene graph: one segment 'subject object
    predicate ... ;' per (subject, object) pair, the pairs in class-id
    order and each pair's predicates in PREDICATES order. A triple whose
    predicate has an INVERSE is written only when its subject's class id
    is below its object's; metrics.parse_triples adds the inverse back.
    So the text of a graph closed under INVERSE, as every gold graph is,
    parses back to exactly that graph. Class names and predicates are
    distinct words, so a segment needs no other separator. An empty
    relation set serializes to the empty string."""
    kept = sorted((t for t in triples if t.predicate not in INVERSE
                   or CLASS_ID[t.subject] < CLASS_ID[t.object]),
                  key=lambda t: (CLASS_ID[t.subject], CLASS_ID[t.object],
                                 PRED_ID[t.predicate]))
    return " ".join(
        " ".join([subject, obj, *(t.predicate for t in group), ";"])
        for (subject, obj), group in itertools.groupby(
            kept, key=lambda t: (t.subject, t.object)))


def template_text(scene: Scene, triples, qa_seed: int) -> tuple[str, list[QaPair]]:
    """Deterministic description plus QA pairs from fixed schemas: relation,
    existence, counting and nearest-entity questions. Answers are emitted
    already normalized (lowercase, no punctuation)."""
    rng = np.random.default_rng(np.random.SeedSequence([0x7E47, qa_seed]))
    ordered = sort_triples(triples)
    description = " ".join(
        f"The {CLASS_TEXT[t.subject]} is {PRED_PHRASE[t.predicate]} "
        f"the {CLASS_TEXT[t.object]}."
        for t in ordered
    )

    qa: list[QaPair] = []
    by_pair: dict[tuple[str, str], list[str]] = {}
    for t in ordered:
        by_pair.setdefault((t.subject, t.object), []).append(t.predicate)
    pairs = sorted(by_pair, key=lambda p: (CLASS_ID[p[0]], CLASS_ID[p[1]]))
    if pairs:
        chosen = rng.choice(len(pairs), size=min(4, len(pairs)), replace=False)
        for idx in sorted(chosen):
            s, o = pairs[idx]
            answers = tuple(PRED_PHRASE[p] for p in
                            sorted(by_pair[(s, o)], key=PRED_ID.get))
            qa.append(QaPair(
                f"Where is the {CLASS_TEXT[s]} relative to the {CLASS_TEXT[o]}?",
                answers,
            ))

    present = set(scene.present_classes())
    candidates = [c for c in CLASS_NAMES if c != "floor"]
    picks = rng.choice(len(candidates), size=3, replace=False)
    for idx in sorted(picks):
        cls = candidates[idx]
        text = CLASS_TEXT[cls]
        qa.append(QaPair(
            f"Is there {_article(text)} {text} in the room?",
            ("yes",) if cls in present else ("no",),
        ))

    n_entities = len([e for e in scene.entities if e.cls != "floor"])
    qa.append(QaPair("How many entities are in the room?",
                     (NUMBER_WORDS[n_entities],)))
    n_people = len([e for e in scene.entities
                    if e.cls in ("patient", "surgeon", "nurse")])
    qa.append(QaPair("How many people are in the room?",
                     (NUMBER_WORDS[n_people],)))

    movable = [e for e in scene.entities if e.cls != "floor"]
    if len(movable) >= 2:
        anchor = movable[int(rng.integers(0, len(movable)))]
        others = [e for e in movable if e.cls != anchor.cls]
        dists = [(float(np.linalg.norm(e.box.center - anchor.box.center)),
                  CLASS_ID[e.cls], e.cls) for e in others]
        nearest = min(dists)[2]
        qa.append(QaPair(
            f"Which entity is closest to the {CLASS_TEXT[anchor.cls]}?",
            (CLASS_TEXT[nearest],),
        ))
    return description, qa


# ---------------------------------------------------------------------------
# Dataset assembly and serialization
# ---------------------------------------------------------------------------


@dataclass
class DatasetSplit:
    train: list[str]
    val: list[str]
    test: list[str]


@dataclass
class DatasetBundle:
    scenes: list[Scene]
    samples: list[Sample]
    split: DatasetSplit
    vocab: Vocabulary
    meta: dict

    def part_samples(self, part: str) -> list[Sample]:
        wanted = set(getattr(self.split, part))
        return [s for s in self.samples if s.sample_id in wanted]


def split_by_scene(samples: list[Sample], scene_ids: list[int],
                   seed: int) -> DatasetSplit:
    """60/20/20 split over scenes; every view of a scene shares its part."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5197, seed]))
    order = [scene_ids[i] for i in rng.permutation(len(scene_ids))]
    n = len(order)
    n_train = int(np.floor(0.6 * n))
    n_val = int(np.floor(0.2 * n))
    parts = {
        "train": set(order[:n_train]),
        "val": set(order[n_train : n_train + n_val]),
        "test": set(order[n_train + n_val :]),
    }
    by_part = {k: [s.sample_id for s in samples if s.scene_id in v]
               for k, v in parts.items()}
    return DatasetSplit(train=by_part["train"], val=by_part["val"],
                        test=by_part["test"])


def build_vocabulary(samples: list[Sample]) -> Vocabulary:
    from .metrics import normalize  # deferred: metrics imports this module

    corpus: list[str] = []
    for s in samples:
        corpus.append(" ".join(normalize(s.description)))
        corpus.append(triples_to_text(s.triples))
        for q, answers in s.qa:
            corpus.append(" ".join(normalize(q)))
            corpus.extend(answers)
    corpus.append(" ".join(CLASS_NAMES[1:]))
    corpus.append(" ".join(PREDICATES))
    corpus.append(" ".join(NUMBER_WORDS))
    corpus.append("| ; yes no")
    return Vocabulary.from_corpus(corpus)


def build_dataset(seed: int, n_scenes: int, n_views: int,
                  image_size: int) -> DatasetBundle:
    if n_scenes < 1 or n_views < 1:
        raise DomainError("need at least one scene and one view")
    scenes = [generate_scene(seed + i) for i in range(n_scenes)]
    samples = []
    for sc in scenes:
        samples.extend(render_views(sc, n_views, image_size))
    split = split_by_scene(samples, [sc.seed for sc in scenes], seed)
    vocab = build_vocabulary(samples)
    meta = {
        "generator_version": GEN_VERSION,
        "tool_version": __version__,
        "seed": seed,
        "scenes": n_scenes,
        "views": n_views,
        "image_size": image_size,
        "vocab_file": "vocab.txt",
    }
    return DatasetBundle(scenes=scenes, samples=samples, split=split,
                         vocab=vocab, meta=meta)


def _fmt(value) -> str:
    """JSON emission with floats at 17 significant digits (exact float64
    round trip) and deterministic key order."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_fmt(v)}"
                               for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _sample_record(s: Sample) -> dict:
    return {
        "sample_id": s.sample_id,
        "scene_id": s.scene_id,
        "view_id": s.view_id,
        "rgb": s.rgb,
        "depth": s.depth,
        "seg": s.seg,
        "camera": {
            "fx": s.K.fx, "fy": s.K.fy, "cx": s.K.cx, "cy": s.K.cy,
            "rotation": s.pose.rotation, "translation": s.pose.translation,
        },
        "triples": [[t.subject, t.predicate, t.object] for t in s.triples],
        "description": s.description,
        "qa": [{"question": q, "answers": list(a)} for q, a in s.qa],
    }


def _scene_record(sc: Scene) -> dict:
    return {
        "seed": sc.seed,
        "entities": [
            {"cls": e.cls, "lo": e.box.lo, "hi": e.box.hi, "color_id": e.color_id}
            for e in sc.entities
        ],
        "relations": [[t.subject, t.predicate, t.object]
                      for t in sort_triples(sc.relations)],
    }


def write_dataset(bundle: DatasetBundle, path: str,
                  extra_meta: list[str] | None = None) -> None:
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "meta"), "w", encoding="utf-8") as fh:
        for k, v in bundle.meta.items():
            fh.write(f"{k} = {v}\n")
        for line in extra_meta or []:
            fh.write(line.rstrip("\n") + "\n")
    bundle.vocab.save(os.path.join(path, "vocab.txt"))
    with open(os.path.join(path, "scenes.jsonl"), "w", encoding="utf-8") as fh:
        for sc in bundle.scenes:
            fh.write(_fmt(_scene_record(sc)) + "\n")
    with open(os.path.join(path, "samples.jsonl"), "w", encoding="utf-8") as fh:
        for s in bundle.samples:
            fh.write(_fmt(_sample_record(s)) + "\n")
    with open(os.path.join(path, "split"), "w", encoding="utf-8") as fh:
        for part in ("train", "val", "test"):
            fh.write(part + " " + " ".join(getattr(bundle.split, part)) + "\n")


def _parse_jsonl(path: str):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataParseError(f"{path}:{lineno}: {exc.msg}") from None


def read_dataset(path: str) -> DatasetBundle:
    meta: dict = {}
    try:
        with open(os.path.join(path, "meta"), encoding="utf-8") as fh:
            for line in fh:
                if "=" in line:
                    k, v = line.split("=", 1)
                    meta[k.strip()] = v.strip()
    except FileNotFoundError:
        raise DataParseError(f"{path}: missing meta file") from None

    scenes = []
    for rec in _parse_jsonl(os.path.join(path, "scenes.jsonl")):
        try:
            entities = [Entity(e["cls"], Box(np.array(e["lo"]), np.array(e["hi"])),
                               int(e["color_id"])) for e in rec["entities"]]
            relations = {Triple(*t) for t in rec["relations"]}
            scenes.append(Scene(entities=entities, relations=relations,
                                seed=int(rec["seed"])))
        except (KeyError, ValueError) as exc:
            raise DataParseError(f"{path}/scenes.jsonl: bad record: {exc}") from None

    samples = []
    for rec in _parse_jsonl(os.path.join(path, "samples.jsonl")):
        try:
            cam = rec["camera"]
            samples.append(Sample(
                scene_id=int(rec["scene_id"]),
                view_id=int(rec["view_id"]),
                rgb=np.array(rec["rgb"], dtype=np.float64),
                depth=np.array(rec["depth"], dtype=np.float64),
                seg=np.array(rec["seg"], dtype=np.int64),
                K=CameraIntrinsics(fx=cam["fx"], fy=cam["fy"],
                                   cx=cam["cx"], cy=cam["cy"]),
                pose=CameraPose(np.array(cam["rotation"]),
                                np.array(cam["translation"])),
                triples=[Triple(*t) for t in rec["triples"]],
                description=rec["description"],
                qa=[QaPair(q["question"], tuple(q["answers"])) for q in rec["qa"]],
            ))
        except (KeyError, ValueError) as exc:
            raise DataParseError(f"{path}/samples.jsonl: bad record: {exc}") from None

    with open(os.path.join(path, "split"), encoding="utf-8") as fh:
        parts = {}
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if fields[0] not in ("train", "val", "test"):
                raise DataParseError(f"{path}/split:{lineno}: unknown part {fields[0]!r}")
            parts[fields[0]] = fields[1:]
    split = DatasetSplit(train=parts.get("train", []), val=parts.get("val", []),
                         test=parts.get("test", []))
    vocab = Vocabulary.load(os.path.join(path, "vocab.txt"))
    return DatasetBundle(scenes=scenes, samples=samples, split=split,
                         vocab=vocab, meta=meta)
