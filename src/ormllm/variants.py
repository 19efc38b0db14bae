"""The ablation variants, one row each: what fills the image, seg and pc
slots of the token sequence.

Every other per-variant decision derives from the row: which spatial nets
and projection heads get built (`spatial`, `needs_depth`, `needs_seg`), at
which pixels the modality path runs the depth and seg heads
(`depth_on_raster`, `seg_at_cells`), which slots `build_input_sequence`
fills and which supervision losses the stage-2 depth/seg phase runs. A
checkpoint's variant is the one whose built tensor names are the
checkpoint's (`model.match_variant`). The rows hold data only; the model
code reads them and calls the module-level networks itself.

    variant       image slot        seg slot            pc slot
    full          RGB patches       region tokens       point-cloud token
    no-pc         RGB patches       region tokens       depth patches
    no-seg        RGB patches       -                   point-cloud token
    no-depth      RGB patches       region tokens       -
    no-depth-seg  RGB patches       -                   -
    no-fusion     early composite   -                   -
    stacked       RGB patches       recolor-seg view    depth view

What each stands for in the paper's study of its Spatial-Enhanced Feature
Fusion Block:

- full: the block itself. Region tokens pool encoder cells per predicted
  class; the predicted depth, back-projected, gives one point-cloud token.
- no-pc: no 3D lifting; depth enters as 2D patches (`proj.depth_embed`).
- no-seg, no-depth: one inferred cue removed (without depth there is no
  point cloud either).
- no-depth-seg: the RGB-only baseline, with no spatial block at all.
- no-fusion: early fusion instead of the block: predicted classes recolored
  over RGB plus depth as a fourth channel, through one tower
  (`proj.early_embed`).
- stacked: late concatenation instead of the block: the recolored classes
  and the depth map, rendered as images, go through the shared RGB tower.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError


@dataclass(frozen=True)
class VariantSpec:
    name: str
    image: str           # "rgb" | "early"
    seg: str | None      # None | "regions" | "view"
    pc: str | None       # None | "points" | "depth_patches" | "view"

    @property
    def needs_depth(self) -> bool:
        """Predicted depth feeds a slot (the early composite holds it too)."""
        return self.image == "early" or self.pc is not None

    @property
    def needs_seg(self) -> bool:
        """A predicted class map feeds a slot."""
        return self.image == "early" or self.seg is not None

    @property
    def seg_at_cells(self) -> bool:
        """Region pooling is the only reader of the predicted class map, and
        it reads the map at the encoder cell centres only; the early
        composite and the seg view read every pixel."""
        return self.seg == "regions" and self.image != "early"

    @property
    def depth_on_raster(self) -> bool:
        """The point encoder is the only reader of the predicted depth, and
        it reads a fixed raster of pixels only; the early composite, depth
        patches and the depth view read every pixel."""
        return self.pc == "points" and self.image != "early"

    @property
    def spatial(self) -> bool:
        """The variant runs the spatial block's encoder at all."""
        return self.needs_depth or self.needs_seg


VARIANTS: dict[str, VariantSpec] = {spec.name: spec for spec in (
    VariantSpec("full", image="rgb", seg="regions", pc="points"),
    VariantSpec("no-pc", image="rgb", seg="regions", pc="depth_patches"),
    VariantSpec("no-seg", image="rgb", seg=None, pc="points"),
    VariantSpec("no-depth", image="rgb", seg="regions", pc=None),
    VariantSpec("no-depth-seg", image="rgb", seg=None, pc=None),
    VariantSpec("no-fusion", image="early", seg=None, pc=None),
    VariantSpec("stacked", image="rgb", seg="view", pc="view"),
)}


def variant_spec(name: str) -> VariantSpec:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigurationError(f"unknown variant {name!r}") from None
