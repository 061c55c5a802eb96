"""Render synthetic scenes to textured grayscale frames.

The Lucas-Kanade tracker needs real image structure to latch onto, so the
renderer gives every object a deterministic high-contrast texture (plus a
darker rim that yields strong Shi-Tomasi corners at the object boundary)
and draws it over a smooth background that scrolls with the camera pan.
Object texture is mapped in object-local coordinates, so a moving object
carries its texture with subpixel consistency — exactly the signal optical
flow exploits in real video.

Frames are ``float32`` arrays in ``[0, 1]`` shaped ``(height, width)``.

Rendering is deterministic in ``(scenario config, scene seed,
frame_index)``; the hot paths here are pinned bit-for-bit to the frozen
pre-optimisation implementation in :mod:`repro.perf.reference` (see the
``render_frame`` microbench and tests/perf/test_equivalence.py), so the
separable sampling below is a *faster spelling* of the same arithmetic,
never a different computation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.geometry import Box
from repro.video import framestore
from repro.video.objects import SceneObject
from repro.video.scene import Scene
from repro.vision.image import gaussian_blur
from repro.vision.optical_flow import FramePyramid

_TEXTURE_TILE = 48
_BACKGROUND_TILE = 256

@lru_cache(maxsize=4096)
def _warp_tables(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed frequency/phase tables for :func:`_warp_modulation`.

    The tables are a pure function of the seed, but the modulation is
    evaluated per object per frame — constructing a fresh
    ``default_rng`` every call dominated its cost.  Returned arrays are
    read-only because they are shared across calls.
    """
    rng = np.random.default_rng(seed ^ 0x3A7B)
    freqs = rng.uniform(0.6, 1.9, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
    freqs.setflags(write=False)
    phases.setflags(write=False)
    return freqs, phases


def _warp_modulation(seed: int, base_period: float, age: float) -> tuple[float, float]:
    """Aperiodic warp modulation in [-1, 1] per axis at object age ``age``.

    Three incommensurate sinusoids around the object's base deformation
    period, seeded per object.  Deterministic in (seed, age).
    """
    base_freqs, phases = _warp_tables(seed)
    freqs = base_freqs / base_period
    angle = 2.0 * np.pi * freqs * age
    mod_u = float(np.sin(angle + phases[:3]).sum() / 3.0)
    mod_v = float(np.sin(angle + phases[3:]).sum() / 3.0)
    return mod_u, mod_v


def _smooth_noise(rng: np.random.Generator, shape: tuple[int, int], sigma: float) -> np.ndarray:
    """Zero-mean smooth noise with unit-ish amplitude."""
    noise = rng.standard_normal(shape)
    smooth = gaussian_blur(noise, sigma)
    peak = np.abs(smooth).max()
    if peak <= 0:
        return smooth
    return smooth / peak


def make_object_texture(seed: int, contrast: float) -> np.ndarray:
    """A deterministic ``_TEXTURE_TILE``-square texture for one object.

    Mixes two spatial scales of smooth noise (corner-rich interior) and
    darkens the silhouette edge so the object boundary yields strong
    Shi-Tomasi corners.
    """
    rng = np.random.default_rng(seed)
    base = 0.5 + float(rng.uniform(-0.15, 0.15))
    fine = _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=1.2)
    coarse = _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=4.0)
    tile = base + contrast * (0.6 * fine + 0.4 * coarse)
    # Darken toward the silhouette boundary (see _shape_inside: the object
    # occupies an ellipse within its box, like real objects do).
    r = _shape_radius()
    tile = tile * np.clip(2.2 * (1.0 - r), 0.3, 1.0)
    return np.clip(tile, 0.0, 1.0)


def _shape_radius() -> np.ndarray:
    """Normalised elliptical radius over the texture tile (1.0 = silhouette).

    Real bounding boxes are not filled by their object: a car or person
    covers roughly 70-80 % of its box, and the corners show background.
    Features extracted inside a detection box therefore partly sit on
    background — which is precisely what makes optical-flow boxes lag fast
    objects once the on-object features are lost.  We model the silhouette
    as the inscribed ellipse (area pi/4 ~ 78.5 % of the box).
    """
    coords = (np.arange(_TEXTURE_TILE, dtype=np.float64) + 0.5) / _TEXTURE_TILE
    u, v = np.meshgrid(coords, coords)
    return np.sqrt(((u - 0.5) / 0.5) ** 2 + ((v - 0.5) / 0.5) ** 2)


def make_background(seed: int, contrast: float) -> np.ndarray:
    """A tileable-ish background canvas sampled with wraparound offsets."""
    rng = np.random.default_rng(seed)
    fine = _smooth_noise(rng, (_BACKGROUND_TILE, _BACKGROUND_TILE), sigma=2.0)
    coarse = _smooth_noise(rng, (_BACKGROUND_TILE, _BACKGROUND_TILE), sigma=12.0)
    canvas = 0.45 + contrast * (0.35 * fine + 0.65 * coarse)
    return np.clip(canvas, 0.0, 1.0)


def _separable_bilinear(
    image: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """:func:`sample_bilinear` on the outer grid of 1-D ``xs`` × ``ys``.

    When the sample coordinates factor into per-column x and per-row y
    (background scroll, undeformed object texture), the bilinear weights
    factor too: interpolate every image row along x once, then combine
    row pairs along y.  This replaces per-point coordinate work on
    ``len(ys) × len(xs)`` points with work on ``len(xs) + len(ys)``
    points.  Each output element evaluates the *same expression tree* as
    ``sample_bilinear`` — ``top + (bottom - top) * fy`` over
    ``tl + (tr - tl) * fx`` — so the result is bit-identical.  Clamping
    uses ``ndarray.clip`` for the same reason ``sample_bilinear`` does.
    """
    h, w = image.shape
    xs = xs.clip(0.0, w - 1.000001)
    ys = ys.clip(0.0, h - 1.000001)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    fx = xs - x0
    fy = ys - y0
    if h > 2 * _TEXTURE_TILE:
        # Only image rows y0 and y0+1 contribute; interpolating just those
        # (at most len(ys)+1 distinct rows, wrap-around included) keeps the
        # x pass proportional to the output, not to the image height.  For
        # small images (object texture tiles) the row-selection bookkeeping
        # costs more than it saves, hence the guard.
        uniq = np.unique(np.concatenate((y0, y0 + 1)))
        rows_top = np.searchsorted(uniq, y0)
        rows_bottom = np.searchsorted(uniq, y0 + 1)
        image = image[uniq]
    else:
        rows_top = y0
        rows_bottom = y0 + 1
    left = image[:, x0]
    right = image[:, x0 + 1]
    rows = left + (right - left) * fx
    top = rows[rows_top]
    bottom = rows[rows_bottom]
    return top + (bottom - top) * fy[:, None]


def _sample_texture_warped(
    field_v: np.ndarray,
    texture: np.ndarray,
    u: np.ndarray,
    vy: np.ndarray,
    amp_v: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Warp the v coordinate through ``field_v`` and sample ``texture``.

    Fused spelling of::

        vb = np.broadcast_to(vy[:, None], u.shape)
        v = vb + amp_v * sample_bilinear(field_v, u, vb)
        patch = sample_bilinear(texture, u, v)

    with the shared coordinate work done once: both gathers use the same
    x coordinates (clipped/truncated ``u``), and the first gather's y
    coordinates are an outer broadcast of 1-D ``vy``, so its y pass runs
    on ``len(vy)`` points instead of the full patch.  Every arithmetic
    step matches :func:`sample_bilinear`'s expression tree, so ``v`` and
    ``patch`` are bit-identical to the two-call spelling.  Returns
    ``(v, patch)``; ``v`` feeds the silhouette-radius test.
    """
    h, w = field_v.shape
    if texture.shape != field_v.shape:
        raise ValueError("warp field and texture must share a shape")
    shape = u.shape
    # Shared x pass.
    xs = u.ravel().clip(0.0, w - 1.000001)
    x0 = xs.astype(np.intp)
    fx = (xs - x0).reshape(shape)
    x0 = x0.reshape(shape)
    # 1-D y pass for the (u, broadcast vy) gather.
    ys1 = vy.clip(0.0, h - 1.000001)
    y01 = ys1.astype(np.intp)
    fy1 = ys1 - y01
    flat = field_v.ravel()
    base = (y01 * w)[:, None] + x0
    tl = flat[base]
    tr = flat[base + 1]
    bl = flat[base + w]
    br = flat[base + w + 1]
    top = tl + (tr - tl) * fx
    bottom = bl + (br - bl) * fx
    warp = top + (bottom - top) * fy1[:, None]
    v = np.broadcast_to(vy[:, None], shape) + amp_v * warp
    # Full y pass for the texture gather at the warped v.
    ys2 = v.ravel().clip(0.0, h - 1.000001)
    y02 = ys2.astype(np.intp)
    fy2 = (ys2 - y02).reshape(shape)
    flat = texture.ravel()
    base = (y02 * w).reshape(shape) + x0
    tl = flat[base]
    tr = flat[base + 1]
    bl = flat[base + w]
    br = flat[base + w + 1]
    top = tl + (tr - tl) * fx
    bottom = bl + (br - bl) * fx
    patch = top + (bottom - top) * fy2
    return v, patch


class FrameRenderer:
    """Renders frames of a :class:`Scene` on demand, through the frame store.

    :meth:`render` and :meth:`pyramid` read through the process-wide
    :class:`~repro.video.framestore.FrameStore`, keyed by the scene
    fingerprint, so every renderer of the same scene in the process —
    e.g. 13 sweep arms over one clip — renders each frame and builds each
    pyramid once while the store holds it.  They are the store's only
    callers, so the key format lives here.

    Construction is cheap: the blurred background canvas is built by the
    first frame this renderer actually rasterises, so a renderer whose
    clip is only described (a sweep parent turning clips into specs) or
    whose frames all come from the store never builds it.
    """

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self._background: np.ndarray | None = None
        self._textures: dict[int, np.ndarray] = {}
        self._warp_fields: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._fingerprint = framestore.scene_fingerprint(scene)
        # Per-frame constants of the background fast path.
        cfg = scene.config
        self._bg_ys = np.arange(cfg.frame_height, dtype=np.float64)
        self._bg_xs = np.arange(cfg.frame_width, dtype=np.float64)
        # Static cameras reuse one scroll offset for every frame; memoise
        # the last clean background (returned by copy, because callers
        # paint into it) as one ``(offset, image)`` pair, so a thread
        # never pairs one frame's offset with another frame's pixels.
        self._bg_memo: tuple[tuple[float, float], np.ndarray] | None = None

    def _texture_for(self, obj: SceneObject) -> np.ndarray:
        texture = self._textures.get(obj.object_id)
        if texture is None:
            texture = make_object_texture(
                obj.texture_seed, self.scene.config.object_contrast
            )
            self._textures[obj.object_id] = texture
        return texture

    def _warp_fields_for(self, obj: SceneObject) -> tuple[np.ndarray, np.ndarray]:
        """Smooth per-object warp fields in [-1, 1] (articulation pattern).

        Different parts of a deformable object move differently; these
        fixed spatial fields, modulated sinusoidally in time, produce that
        internal motion.
        """
        fields = self._warp_fields.get(obj.object_id)
        if fields is None:
            rng = np.random.default_rng(obj.texture_seed ^ 0xDEF0)
            fields = (
                _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=2.5),
                _smooth_noise(rng, (_TEXTURE_TILE, _TEXTURE_TILE), sigma=2.5),
            )
            self._warp_fields[obj.object_id] = fields
        return fields

    def _render_background(self, frame_index: int) -> np.ndarray:
        """The scrolled background for one frame (always safe to paint into).

        Separable sampling: the scroll offsets shift whole rows/columns,
        so the bilinear gather factors into 1-D x and y passes (see
        :func:`_separable_bilinear`).  Static cameras produce the same
        offset every frame; the size-1 memo turns their per-frame cost
        into one array copy.  The background canvas itself is built here,
        on first use.
        """
        offset = self.scene.camera_offset(frame_index)
        memo = self._bg_memo
        if memo is not None and memo[0] == offset:
            return memo[1].copy()
        off_x, off_y = offset
        if self._background is None:
            self._background = make_background(
                self.scene.seed ^ 0xBAC4, self.scene.config.background_contrast
            )
        ys = (self._bg_ys + off_y) % (_BACKGROUND_TILE - 1)
        xs = (self._bg_xs + off_x) % (_BACKGROUND_TILE - 1)
        background = _separable_bilinear(self._background, xs, ys)
        self._bg_memo = (offset, background)
        return background.copy()

    def _paint_object(
        self, frame: np.ndarray, obj: SceneObject, full_box: Box, frame_index: int
    ) -> None:
        """Draw one object by sampling its texture in object-local coords."""
        cfg = self.scene.config
        rows, cols = full_box.pixel_slice((cfg.frame_height, cfg.frame_width))
        if rows.stop <= rows.start or cols.stop <= cols.start:
            return
        if full_box.width < 1e-6 or full_box.height < 1e-6:
            return
        ys = np.arange(rows.start, rows.stop, dtype=np.float64) + 0.5
        xs = np.arange(cols.start, cols.stop, dtype=np.float64) + 0.5
        # Object-local texture coordinates in [0, tile-1].  They factor
        # into a per-column ``ux`` and per-row ``vy`` until the warp below
        # bends them, so the in-tile test and (for rigid objects) the
        # texture gather run on 1-D arrays.
        ux = (xs - full_box.left) / full_box.width * (_TEXTURE_TILE - 1)
        vy = (ys - full_box.top) / full_box.height * (_TEXTURE_TILE - 1)
        inside = ((vy >= 0) & (vy <= _TEXTURE_TILE - 1))[:, None] & (
            (ux >= 0) & (ux <= _TEXTURE_TILE - 1)
        )[None, :]
        shape = (ys.size, xs.size)
        if obj.deform_amp > 0:
            # Time-modulated spatial warp: the object's interior motion in
            # frame pixels, converted to texture units per axis.  The time
            # modulation mixes incommensurate frequencies seeded per object,
            # so the warp wanders instead of oscillating — a periodic warp
            # would let tracking drift cancel itself every half period,
            # which real articulated motion does not do.
            field_u, field_v = self._warp_fields_for(obj)
            age = frame_index - obj.spawn_frame
            mod_u, mod_v = _warp_modulation(obj.texture_seed, obj.deform_period, age)
            amp_u = obj.deform_amp * mod_u * (_TEXTURE_TILE - 1) / full_box.width
            amp_v = obj.deform_amp * mod_v * (_TEXTURE_TILE - 1) / full_box.height
            # The first field sample still sees the unwarped outer grid,
            # so it is separable; the next one samples at the warped u and
            # must gather per point.
            u = np.broadcast_to(ux[None, :], shape) + amp_u * _separable_bilinear(
                field_u, ux, vy
            )
            v, patch = _sample_texture_warped(
                field_v, self._texture_for(obj), u, vy, amp_v
            )
            # Only paint inside the object's elliptical silhouette; box
            # corners keep showing background, as with real objects (see
            # _shape_radius).
            norm_u = u / (_TEXTURE_TILE - 1)
            norm_v = v / (_TEXTURE_TILE - 1)
            radius = np.sqrt(
                ((norm_u - 0.5) / 0.5) ** 2 + ((norm_v - 0.5) / 0.5) ** 2
            )
            inside &= radius <= 1.0
        else:
            # Rigid object: coordinates stay an outer grid end to end, so
            # the texture gather and the silhouette radius are separable.
            texture = self._texture_for(obj)
            patch = _separable_bilinear(texture, ux, vy)
            norm_u = ux / (_TEXTURE_TILE - 1)
            norm_v = vy / (_TEXTURE_TILE - 1)
            radius = np.sqrt(
                (((norm_u - 0.5) / 0.5) ** 2)[None, :]
                + (((norm_v - 0.5) / 0.5) ** 2)[:, None]
            )
            inside &= radius <= 1.0
        region = frame[rows, cols]
        frame[rows, cols] = np.where(inside, patch, region)

    def render_frame(self, frame_index: int) -> np.ndarray:
        """Render the frame at ``frame_index`` from scratch (no caches).

        This is the pure computation behind :meth:`render`; the
        ``render_frame`` microbench times it against the frozen reference
        implementation in :mod:`repro.perf.reference`.
        """
        cfg = self.scene.config
        frame = self._render_background(frame_index)
        # Larger objects are treated as nearer: draw them last so they occlude.
        drawable = []
        for obj in self.scene.objects:
            full = self.scene.full_box(obj, frame_index)
            if full is None or full.area <= 0:
                continue
            clipped = full.intersection(
                Box(0, 0, cfg.frame_width, cfg.frame_height)
            )
            if clipped.area <= 0:
                continue
            drawable.append((full.area, obj, full))
        drawable.sort(key=lambda item: item[0])
        for _, obj, full in drawable:
            self._paint_object(frame, obj, full, frame_index)
        if cfg.sensor_noise > 0:
            noise_rng = np.random.default_rng(
                (self.scene.seed * 1_000_003 + frame_index) & 0x7FFFFFFF
            )
            # In-place spelling of ``frame + sensor_noise * noise``:
            # multiplication and addition are commutative in IEEE float,
            # so the bits match the reference exactly.
            noise = noise_rng.standard_normal(frame.shape)
            noise *= cfg.sensor_noise
            noise += frame
            frame = noise
        np.clip(frame, 0.0, 1.0, out=frame)
        return frame.astype(np.float32)

    def render(self, frame_index: int) -> np.ndarray:
        """The frame at ``frame_index``: from the store, or rendered and stored."""
        store = framestore.default_store()
        key = (self._fingerprint, framestore.FRAME, frame_index, 0)
        frame = store.get(key)
        if frame is None:
            # Serve the canonical array the store settled on: the frozen
            # stored frame, or under a racing first insert the winner's —
            # bit-identical bytes either way.
            frame = store.put(key, self.render_frame(frame_index))
        return frame

    def pyramid(self, frame_index: int, levels: int) -> FramePyramid:
        """The ``levels``-level pyramid of frame ``frame_index``, read through the store.

        Built on the frame :meth:`render` serves, which becomes its level 0
        uncopied, so the store charges it only for the levels above.
        """
        store = framestore.default_store()
        key = (self._fingerprint, framestore.PYRAMID, frame_index, levels)
        pyramid = store.get(key)
        if pyramid is None:
            pyramid = store.put(key, FramePyramid(self.render(frame_index), levels))
        return pyramid
