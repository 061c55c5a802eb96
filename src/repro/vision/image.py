"""Low-level image operations used by the feature and optical-flow code.

Images are 2-D ``float64`` (or ``float32``) numpy arrays with values in
``[0, 1]`` indexed as ``image[row, col]`` — i.e. ``image[y, x]``.  Points
are ``(x, y)`` pairs, matching the OpenCV convention the paper's code used.
A ``float32`` image (a rendered frame, kept as a pyramid's level 0) is
widened to ``float64`` where it is read — in the pads' copies into
scratch and in the bilinear gather's corner samples — never as a whole
frame.  The widening is exact, so every result is the one the widened
image would give.

The separable convolutions here are the *fused engine* of DESIGN.md §10:
every kernel (blur, gradients, pyramid decimation, the batched
structure-tensor blur) runs through one tap-sweep primitive that pads into
reusable per-thread scratch and accumulates with ``np.multiply(..., out=)``
instead of allocating a fresh ``k * padded[...]`` array per tap.  The
accumulation order per output element is unchanged from the original
per-tap loop, so every fused path is bit-identical to the frozen
references in :mod:`repro.perf.reference` (asserted by the equivalence
tests and the bench harness).  Inputs are assumed finite — the zero-tap
skip below is an identity only for finite samples, and every caller feeds
rendered frames or their derivatives, which are.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided


@lru_cache(maxsize=64)
def _cached_kernel(sigma: float, radius: int) -> np.ndarray:
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    kernel = kernel / kernel.sum()
    kernel.setflags(write=False)  # cached: shared across callers and threads
    return kernel


def _gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """A normalised 1-D Gaussian kernel, memoised by ``(sigma, radius)``.

    The pipelines use a handful of sigmas (1.0 for pyramid levels, 1.5 for
    the Shi-Tomasi window), so the LRU never churns in practice.  The
    returned array is read-only.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    return _cached_kernel(float(sigma), int(radius))


class _ScratchPool(threading.local):
    """Per-thread reusable ``float64`` buffers keyed by ``(tag, shape)``.

    Tags keep nested kernels from aliasing each other's buffers (a blur
    running inside the Shi-Tomasi pipeline must not stomp the gradient
    buffers), and thread-locality makes the pool safe under the live
    executor without locking.  Scratch contents are fully overwritten
    before use, except LK's gradient planes, which are written only where
    that call's windows read (``optical_flow._window_gradients``); results
    returned to callers are always fresh arrays, never pool views.
    """

    _MAX_ENTRIES = 64

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        key = (tag, shape)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self._MAX_ENTRIES:
                # Shape churn beyond what the pipelines produce (e.g. a
                # sweep of arbitrary test shapes): drop everything rather
                # than grow without bound.
                self._buffers.clear()
            buffer = np.empty(shape, dtype=np.float64)
            self._buffers[key] = buffer
        return buffer


_SCRATCH = _ScratchPool()


def _scratch_buffer(tag: str, shape: tuple[int, ...]) -> np.ndarray:
    """Package-internal access to the scratch pool (see features.py)."""
    return _SCRATCH.get(tag, shape)


def _reflect_pad(array: np.ndarray, radius: int, axis: int, tag: str) -> np.ndarray:
    """Reflect-pad ``array`` along ``axis`` into a reusable scratch buffer.

    Matches ``np.pad(..., mode="reflect")`` exactly: the edge sample is
    not repeated, so the left block is ``array[radius:0:-1]`` and the
    right block ``array[n-2 : n-2-radius : -1]`` along the axis.  That
    formula needs ``radius <= n - 1``; wider pads (tiny images under a
    big sigma) fall back to ``np.pad``, whose repeated reflection the
    original implementation relied on.  Either way the pad is ``float64``:
    a ``float32`` array is widened by the copy.
    """
    n = array.shape[axis]
    if radius > n - 1:
        pad = [(0, 0)] * array.ndim
        pad[axis] = (radius, radius)
        return np.pad(array.astype(np.float64, copy=False), pad, mode="reflect")
    shape = list(array.shape)
    shape[axis] = n + 2 * radius
    padded = _SCRATCH.get(tag, tuple(shape))
    index = [slice(None)] * array.ndim
    source = [slice(None)] * array.ndim
    index[axis] = slice(radius, radius + n)
    padded[tuple(index)] = array
    if radius > 0:
        index[axis] = slice(0, radius)
        source[axis] = slice(radius, 0, -1)
        padded[tuple(index)] = array[tuple(source)]
        index[axis] = slice(radius + n, radius + n + radius)
        stop = n - 2 - radius
        source[axis] = slice(n - 2, None if stop < 0 else stop, -1)
        padded[tuple(index)] = array[tuple(source)]
    return padded


def _tap_sweep(
    padded: np.ndarray,
    kernel: np.ndarray,
    out: np.ndarray,
    axis: int,
    tag: str,
    span: int,
    step: int = 1,
) -> np.ndarray:
    """``out = Σ_i kernel[i] · padded[tap-shifted slice]``, taps in order.

    This is the original per-tap loop with its allocations removed: the
    accumulator is zero-filled then grown one ``out += tap`` at a time in
    kernel order, exactly like ``out += k * padded[...]``, but the per-tap
    product lands in a reused scratch buffer via ``np.multiply(..., out=)``.
    Per output element the float operations and their order are unchanged,
    so the result is bit-identical.

    ``span`` is the input extent along ``axis`` (the output extent times
    ``step``, up to the odd-length remainder); ``step=2`` computes only
    every second output sample — the decimated pyramid path — without
    touching the per-element arithmetic.

    Zero taps are skipped.  For finite inputs this is exact: the
    accumulator is ``+0.0`` or nonzero after every step (IEEE ``0.0 + x``
    never yields ``-0.0`` for finite ``x``), and adding the zero tap's
    ``±0.0`` product to such a value changes nothing.
    """
    tap = _SCRATCH.get(tag, out.shape)
    out[...] = 0.0
    index = [slice(None)] * out.ndim
    for i, k in enumerate(kernel):
        if k == 0.0:
            continue
        index[axis] = slice(i, i + span, step)
        np.multiply(padded[tuple(index)], k, out=tap)
        out += tap
    return out


def _separable_blur(image: np.ndarray, kernel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Axis-0 then axis-1 sweep of ``kernel`` over one 2-D image into ``out``."""
    radius = len(kernel) // 2
    h, w = image.shape
    padded = _reflect_pad(image, radius, 0, "blur.pad0")
    rows = _SCRATCH.get("blur.rows", image.shape)
    _tap_sweep(padded, kernel, rows, 0, "blur.tap", span=h)
    padded = _reflect_pad(rows, radius, 1, "blur.pad1")
    return _tap_sweep(padded, kernel, out, 1, "blur.tap", span=w)


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing via separable convolution with reflect borders."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D image")
    kernel = _gaussian_kernel1d(sigma)
    return _separable_blur(image, kernel, np.empty(image.shape, dtype=np.float64))


# A (C, H, W) sweep keeps C accumulator/tap planes live at once; past the
# per-core cache that thrashes and loses to C sequential 2-D sweeps of the
# same taps.  48K float64 elements ≈ 384 KiB of stack — per-box structure
# tensors sit far below it, full frames far above.  Both sides of the
# split are bit-identical, so the threshold only moves time, never output.
_BATCH_SWEEP_MAX_ELEMENTS = 49_152


def gaussian_blur_batched(
    stack: np.ndarray, sigma: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Blur every channel of a ``(C, H, W)`` stack with one shared kernel.

    Channel ``c`` of the result equals ``gaussian_blur(stack[c], sigma)``
    bit for bit; small stacks are swept whole (one pad + one tap loop for
    all channels), large ones per channel (see the threshold above).

    ``out``, if given, must be a ``(C, H, W)`` float64 array; it is
    returned.  Callers passing scratch as ``out`` own the aliasing risk —
    the default allocates fresh.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("gaussian_blur_batched expects a (C, H, W) stack")
    kernel = _gaussian_kernel1d(sigma)
    if out is None:
        out = np.empty(stack.shape, dtype=np.float64)
    channels, h, w = stack.shape
    if stack.size <= _BATCH_SWEEP_MAX_ELEMENTS:
        radius = len(kernel) // 2
        padded = _reflect_pad(stack, radius, 1, "batch.pad0")
        rows = _SCRATCH.get("batch.rows", stack.shape)
        _tap_sweep(padded, kernel, rows, 1, "batch.tap", span=h)
        padded = _reflect_pad(rows, radius, 2, "batch.pad1")
        _tap_sweep(padded, kernel, out, 2, "batch.tap", span=w)
    else:
        for channel in range(channels):
            _separable_blur(stack[channel], kernel, out[channel])
    return out


_SCHARR_DERIV = np.array([-1.0, 0.0, 1.0]) / 2.0
_SCHARR_SMOOTH = np.array([3.0, 10.0, 3.0]) / 16.0


def _scharr_pad(image: np.ndarray, tag: str) -> np.ndarray:
    """``image`` reflect-padded by one pixel, corners too, into ``float64``
    scratch — the copy that widens a ``float32`` level."""
    h, w = image.shape
    padded = _SCRATCH.get(tag, (h + 2, w + 2))
    padded[1 : h + 1, 1 : w + 1] = image
    padded[1 : h + 1, 0] = image[:, 1]
    padded[1 : h + 1, w + 1] = image[:, w - 2]
    padded[0] = padded[2]
    padded[h + 1] = padded[h - 1]
    return padded


def _image_gradients_into(
    image: np.ndarray, ix: np.ndarray, iy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused gradient core: both derivative passes share one padded buffer.

    The derivative kernels have radius 1 on different axes, so a single
    ``(H+2, W+2)`` reflect pad serves both — the x-derivative sweeps its
    row band, the y-derivative its column band (the four corner samples
    are never read).  Images thinner than 2 pixels on either axis take the
    per-axis path, whose ``np.pad`` fallback replicates the original
    edge-case behaviour.
    """
    h, w = image.shape
    deriv_x = _SCRATCH.get("grad.dx", (h, w))
    deriv_y = _SCRATCH.get("grad.dy", (h, w))
    if h >= 2 and w >= 2:
        padded = _scharr_pad(image, "grad.pad")
        _tap_sweep(padded[1 : h + 1, :], _SCHARR_DERIV, deriv_x, 1, "grad.tap", span=w)
        _tap_sweep(padded[:, 1 : w + 1], _SCHARR_DERIV, deriv_y, 0, "grad.tap", span=h)
    else:
        padded = _reflect_pad(image, 1, 1, "grad.fb1")
        _tap_sweep(padded, _SCHARR_DERIV, deriv_x, 1, "grad.tap", span=w)
        padded = _reflect_pad(image, 1, 0, "grad.fb0")
        _tap_sweep(padded, _SCHARR_DERIV, deriv_y, 0, "grad.tap", span=h)
    padded = _reflect_pad(deriv_x, 1, 0, "grad.pad0")
    _tap_sweep(padded, _SCHARR_SMOOTH, ix, 0, "grad.tap", span=h)
    padded = _reflect_pad(deriv_y, 1, 1, "grad.pad1")
    _tap_sweep(padded, _SCHARR_SMOOTH, iy, 1, "grad.tap", span=w)
    return ix, iy


def _tile_views(array: np.ndarray, size: int) -> np.ndarray:
    """Every ``size``-square window of a 2-D array, as a writable view
    indexed by its top-left corner."""
    h, w = array.shape
    shape = (h - size + 1, w - size + 1, size, size)
    return as_strided(array, shape=shape, strides=array.strides * 2)


def _gradients_on_tiles(
    tiled: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]], size: int
) -> None:
    """Scharr ``(Ix, Iy)`` on square tiles of several images in one stack.

    Each ``(image, origins, ix, iy)`` entry names ``size``-square tiles
    inside ``image`` by their ``(y, x)`` corners, a ``(K, 2)`` array, and
    receives their gradients in ``ix``/``iy``; other pixels are left as
    they were.  Every tile is cut with its halo from the image padded as
    :func:`_image_gradients_into` pads it, and the same :func:`_tap_sweep`
    passes run over the stack, so each written value is bit-identical to
    the full-plane gradient at that pixel (DESIGN.md §7).
    """
    count = sum(origins.shape[0] for _, origins, _, _ in tiled)
    block = np.empty((count, size + 2, size + 2))
    start = 0
    for image, origins, _, _ in tiled:
        padded = _scharr_pad(image, "tile.pad")
        stop = start + origins.shape[0]
        block[start:stop] = _tile_views(padded, size + 2)[origins[:, 0], origins[:, 1]]
        start = stop
    # The derivative sweeps keep the halo rows (columns) the smoothing reads.
    halo_rows = np.empty((count, size + 2, size))
    halo_cols = np.empty((count, size, size + 2))
    _tap_sweep(block, _SCHARR_DERIV, halo_rows, 2, "tile.tap", span=size)
    _tap_sweep(block, _SCHARR_DERIV, halo_cols, 1, "tile.tap", span=size)
    grad_x = np.empty((count, size, size))
    grad_y = np.empty((count, size, size))
    _tap_sweep(halo_rows, _SCHARR_SMOOTH, grad_x, 1, "tile.tap", span=size)
    _tap_sweep(halo_cols, _SCHARR_SMOOTH, grad_y, 2, "tile.tap", span=size)
    start = 0
    for _, origins, ix, iy in tiled:
        stop = start + origins.shape[0]
        _tile_views(ix, size)[origins[:, 0], origins[:, 1]] = grad_x[start:stop]
        _tile_views(iy, size)[origins[:, 0], origins[:, 1]] = grad_y[start:stop]
        start = stop


def image_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scharr-style image gradients ``(Ix, Iy)``.

    Scharr's 3x3 kernels (derivative in one axis, smoothing in the other)
    are what OpenCV's Lucas-Kanade uses internally; they are rotationally
    better-behaved than plain central differences.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image_gradients expects a 2-D image")
    ix = np.empty(image.shape, dtype=np.float64)
    iy = np.empty(image.shape, dtype=np.float64)
    return _image_gradients_into(image, ix, iy)


def _as_image(image: np.ndarray) -> np.ndarray:
    """``image`` itself if ``float32`` or ``float64``, else widened to ``float64``."""
    image = np.asarray(image)
    if image.dtype == np.float32:
        return image
    return image.astype(np.float64, copy=False)


def pyramid_down(image: np.ndarray) -> np.ndarray:
    """One pyramid level: Gaussian blur then 2x subsampling, fused.

    Only the retained ``[::2, ::2]`` output samples are computed: the
    first sweep strides its tap slices down the padded rows
    (``padded[i : i + H : 2]``), the second down the columns.  Each kept
    sample sees exactly the taps, order, and padding it would in
    blur-everything-then-slice, so the result is bit-identical at ~4x
    fewer multiply-accumulates.  A ``float32`` image is widened by the
    first pad's copy into scratch; the result is ``float64``.
    """
    image = _as_image(image)
    if min(image.shape) < 2:
        raise ValueError("image too small to downsample")
    kernel = _gaussian_kernel1d(1.0)
    radius = len(kernel) // 2
    h, w = image.shape
    half_h, half_w = (h + 1) // 2, (w + 1) // 2
    padded = _reflect_pad(image, radius, 0, "pyr.pad0")
    rows = _SCRATCH.get("pyr.rows", (half_h, w))
    _tap_sweep(padded, kernel, rows, 0, "pyr.tap0", span=h, step=2)
    padded = _reflect_pad(rows, radius, 1, "pyr.pad1")
    out = np.empty((half_h, half_w), dtype=np.float64)
    return _tap_sweep(padded, kernel, out, 1, "pyr.tap1", span=w, step=2)


def build_pyramid(image: np.ndarray, levels: int) -> list[np.ndarray]:
    """An image pyramid ``[full, half, quarter, ...]`` with ``levels`` entries.

    Level 0 is ``image`` itself when it is ``float32`` or ``float64`` (no
    copy; other dtypes are widened to ``float64``); levels 1 and up are
    ``float64``.  Stops early (returning fewer levels) if the image
    becomes too small for a useful Lucas-Kanade window, rather than
    failing.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    pyramid = [_as_image(image)]
    for _ in range(levels - 1):
        current = pyramid[-1]
        if min(current.shape) < 16:
            break
        pyramid.append(pyramid_down(current))
    return pyramid


class _BilinearTaps(NamedTuple):
    """The coordinate half of bilinear sampling, shareable across images.

    ``x0``/``fx`` and ``y0``/``fy`` are each tap's truncated column and row
    and their fractional weights, in the callers' shapes: a window grid
    passes its columns as ``(N, 1, W)`` and its rows as ``(N, W, 1)``, so
    these hold one value per (point, column) or (point, row).  ``base`` is
    the flat index of every tap's top-left neighbour in a ``(h, w)``
    image, broadcast to the full sample shape; ``width`` is the row stride.
    """

    base: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    width: int


def _bilinear_taps(
    shape: tuple[int, ...], xs: np.ndarray, ys: np.ndarray
) -> _BilinearTaps:
    """Clamp, truncate, and weight ``(xs, ys)`` for any image of ``shape``.

    ``xs`` and ``ys`` broadcast against each other, and each is clamped,
    truncated and weighted in its own shape; only the flat index is
    broadcast.  Per sample the float operations are those of the full
    grid, so the taps are bit-identical to it.  ``ndarray.clip`` is the
    ``np.clip`` ufunc without the dispatch wrapper, so clamping stays
    bit-identical — signed zeros included, which ``np.maximum``/
    ``np.minimum`` do not preserve.
    """
    h, w = shape
    if h < 2 or w < 2:
        raise ValueError("sample_bilinear needs an image of at least 2x2")
    xs = np.asarray(xs, dtype=np.float64).clip(0.0, w - 1.000001)
    ys = np.asarray(ys, dtype=np.float64).clip(0.0, h - 1.000001)
    x0 = xs.astype(np.intp)
    y0 = ys.astype(np.intp)
    return _BilinearTaps(y0 * w + x0, xs - x0, ys - y0, x0, y0, w)


def _take_widened(flat: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``np.take(flat, base)`` as ``float64``: a ``float32`` level is widened
    sample by sample, exactly; a ``float64`` one is returned uncopied."""
    return np.take(flat, base).astype(np.float64, copy=False)


def _bilinear_gather(image: np.ndarray, taps: _BilinearTaps) -> np.ndarray:
    """Interpolate ``image`` at precomputed taps.

    Flat gather: one ``np.take`` per corner, each from the flattened image
    offset by that corner's stride, so no shifted copy of ``base`` is
    built.  The blend runs in place on the gathered corners, computing
    ``top = tl + (tr - tl) * fx``, ``bottom`` likewise and
    ``top + (bottom - top) * fy`` with the same operations in the same
    order as the expression would, without its temporaries.  Each corner
    is widened to ``float64`` as it is gathered, so a ``float32`` image
    blends exactly as its widened copy would.  This is the hot path of
    Lucas-Kanade.
    """
    flat = image.ravel()
    base = taps.base
    w = taps.width
    top = _take_widened(flat, base)
    right = _take_widened(flat[1:], base)
    right -= top
    right *= taps.fx
    top += right
    bottom = _take_widened(flat[w:], base)
    corner = _take_widened(flat[w + 1 :], base)
    corner -= bottom
    corner *= taps.fx
    bottom += corner
    bottom -= top
    bottom *= taps.fy
    top += bottom
    return top


def sample_bilinear(image: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of ``image`` at points ``(xs, ys)``.

    Coordinates outside the image are clamped to the border, matching the
    behaviour OpenCV uses for patch sampling near edges.  ``xs`` and ``ys``
    may be any shapes that broadcast together; the result has the
    broadcast shape and is ``float64``.  A ``float32`` image is read as
    is — only the sampled corners are widened — so sampling a frame
    costs no ``float64`` copy of it.
    """
    image = _as_image(image)
    return _bilinear_gather(image, _bilinear_taps(image.shape, xs, ys))
