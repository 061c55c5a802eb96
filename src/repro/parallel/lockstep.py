"""Lockstep method arms: one Lucas-Kanade solve per frame pair of a clip unit.

A clip unit runs every method arm of a sweep over one clip (see
:func:`~repro.parallel.costs.clip_units`), and the tracking arms ask the
clip for Lucas-Kanade flow between the same frame pairs, each for its own
points.  ``track_features`` pays ~1.8 ms per call before its first point
and ~0.09 ms per point after it, so one call per arm per step is mostly
fixed cost.  A :class:`Lockstep` session runs the arms as threads,
exactly one at a time, and turns each arm's ``clip.flow`` into a park.
When every live arm is parked or done, the session takes the smallest
pending ``(prev, next, params)`` step, solves it once over the waiting
arms' points with one ``clip.flow`` call on the driving thread, hands
each arm its own rows and resumes the arms in order.  An arm's seeding
and block-matching reads park too, and the driving thread makes them, so
all pixel work stays on one thread (see :class:`_ArmClip`).  Seeds are
memoised for the session by (frame, box pixel slice, seeding params), so
arms that seed the same box on the same frame share one computation.

Outputs do not move: Lucas-Kanade solves every point independently of
the others (``tests/vision/test_flow_properties.py``), so an arm's rows
are bit-identical to a solve of its points alone.  The hand-off order is
fixed (arms in the order given, the smallest step first), so the store
sees the same traffic on every run.

The session runs only while a caller is inside :meth:`Lockstep.finish`:
``finish(key)`` drives the arms until that one is done and leaves the
others parked.  The sweep engine calls it once per cell, so cells keep
disjoint timed spans and every CPU second lands in exactly one of them.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.geometry import Box
from repro.obs import WORK
from repro.vision.block_motion import BlockMotionField, BlockMotionParams
from repro.vision.features import SeedParams
from repro.vision.optical_flow import FlowResult, LKParams

# The arms' flow requests, the merged steps the sessions solved for them,
# and the boxes the arms asked seeds for, in the process's one account of
# pixel work.
_REQUESTS = WORK.counter("lk.requests")
_STEPS = WORK.counter("lk.steps")
_SEED_REQUESTS = WORK.counter("seed.requests")


class _Cancelled(BaseException):
    """Unwinds an arm whose session closed before the arm finished.

    A ``BaseException``, so a pipeline's ``except Exception`` lets it by.
    """


def _own(exc: Exception) -> Exception:
    """A copy of ``exc`` holding the traceback it was caught with, for one
    arm to raise.

    Raising an instance prepends the raising frames to its traceback, so
    arms re-raising one shared failure would each carry, and keep alive,
    the stacks of the arms that raised it before them.
    """
    try:
        fresh = copy.copy(exc)
    except Exception:  # an exception type that cannot be rebuilt from its args
        return exc
    fresh.__cause__ = exc.__cause__
    fresh.__context__ = exc.__context__
    fresh.__suppress_context__ = exc.__suppress_context__
    return fresh.with_traceback(exc.__traceback__)


def _closed_lock() -> threading.Lock:
    """A lock held from the start: its ``release`` hands a turn over."""
    lock = threading.Lock()
    lock.acquire()
    return lock


class _ArmClip:
    """The clip as one arm sees it: its pixel reads park, the rest delegates.

    ``flow`` parks until the session solves the step; ``features`` and
    ``motion`` park until the driving thread has made them.  So every
    render, pyramid build, seeding, block match and solve runs on one
    thread, and an arm's thread allocates only its pipeline's bookkeeping:
    glibc gives each thread that allocates its own malloc arena, which
    keeps what it freed.  Arms that rendered their own frames kept
    ~3.5 MiB each, +48 MiB of peak RSS on a 13-arm jobs=1 sweep of the
    fig6-reuse inputs, and arms that seeded boxes and matched blocks
    themselves another ~11 MiB.
    """

    def __init__(self, clip: Any, arm: "_Arm") -> None:
        self._clip = clip
        self._arm = arm

    def __getattr__(self, name: str) -> Any:
        return getattr(self._clip, name)

    def features(
        self, index: int, boxes: Sequence[Box], params: SeedParams
    ) -> list[np.ndarray]:
        return self._arm.call(self._arm.session.features, index, boxes, params)

    def motion(
        self, prev_index: int, next_index: int, points: np.ndarray, params: BlockMotionParams
    ) -> BlockMotionField:
        return self._arm.call(self._clip.motion, prev_index, next_index, points, params)

    def flow(
        self, prev_index: int, next_index: int, points: np.ndarray, params: LKParams
    ) -> FlowResult:
        return self._arm.park((prev_index, next_index, params), points)


class _Arm:
    """One arm's thread and its hand-off state."""

    def __init__(self, session: "Lockstep", order: int, body: Callable[[Any], Any]) -> None:
        self.session = session
        self.order = order
        self.body = body
        self.turn = _closed_lock()
        self.thread: threading.Thread | None = None
        self.ready = False  # holds a turn it has not taken yet
        self.done = False
        # While parked: a read for the driving thread to make, or a flow step.
        self.read: tuple[Callable[..., Any], tuple] | None = None
        self.step: tuple[int, int, LKParams] | None = None
        self.points: np.ndarray | None = None
        self.reply: Any = None
        self.result: Any = None
        self.error: BaseException | None = None

    def call(self, read: Callable[..., Any], *args: Any) -> Any:
        """Called on the arm's thread: ``read(*args)``, made by the driving thread."""
        self._check()
        self.read = (read, args)
        return self._wait()

    def park(self, step: tuple[int, int, LKParams], points: np.ndarray) -> FlowResult:
        """Called on the arm's thread: wait until the session solves ``step``."""
        self._check()
        _REQUESTS.inc()
        self.step = step
        self.points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 2)
        return self._wait()

    def _check(self) -> None:
        if self.session.closing:
            raise _Cancelled

    def _wait(self) -> Any:
        """Hand the turn back, and return the reply the next turn brings."""
        self.session.back.release()
        self.turn.acquire()
        self._check()
        reply, self.reply = self.reply, None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def main(self) -> None:
        self.turn.acquire()
        try:
            if not self.session.closing:
                self.result = self.body(_ArmClip(self.session.clip, self))
        except _Cancelled:
            pass
        except BaseException as exc:  # handed to whoever finishes this arm
            self.error = exc
        finally:
            self.done = True
            self.session.back.release()


class Lockstep:
    """One clip unit's arms, run one at a time with their flow steps merged.

    ``bodies`` maps a key to a callable that runs one arm on the clip it
    is given (a proxy whose pixel reads park) and returns the arm's result.
    Threads start at the first :meth:`finish`; :meth:`close` cancels the
    arms nobody finished, joins every thread and drops the session's seeds.
    Use as a context manager.
    """

    def __init__(self, clip: Any, bodies: Mapping[Hashable, Callable[[Any], Any]]) -> None:
        self.clip = clip
        self.closing = False
        # (frame, box pixel slice, params) -> that box's seeds, or the
        # failure computing them raised.
        self._seeds: dict[tuple, np.ndarray | Exception] = {}
        self.back = _closed_lock()  # released when the running arm parks or ends
        self._arms = {
            key: _Arm(self, order, body) for order, (key, body) in enumerate(bodies.items())
        }
        self._running: _Arm | None = None
        self._started = False

    def __enter__(self) -> "Lockstep":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def finish(self, key: Hashable) -> Any:
        """Drive the session until arm ``key`` is done; its result, or its raise."""
        arm = self._arms[key]
        if not self._started:
            self._start()
        while not arm.done:
            self._advance()
        error, arm.error = arm.error, None
        if error is not None:
            raise error
        result, arm.result = arm.result, None
        return result

    def close(self) -> None:
        """Cancel every unfinished arm and join every thread."""
        self.closing = True
        if self._running is not None:
            # Interrupted while an arm ran: let it reach its next park.
            self.back.acquire()
            self._running = None
        for arm in self._arms.values():
            if arm.thread is None:
                continue
            if not arm.done:
                arm.turn.release()
                self.back.acquire()
            arm.thread.join()
        self._seeds.clear()

    def features(
        self, index: int, boxes: Sequence[Box], params: SeedParams
    ) -> list[np.ndarray]:
        """Called on the driving thread: the seeds of ``boxes`` on frame
        ``index``, computing only those no arm has asked for yet.

        A box's seeds depend only on the frame's pixels under its pixel
        slice and on ``params``, so that is the key.  The served arrays
        are read-only: arms that drew the same box share them.
        """
        config = self.clip.config
        shape = (config.frame_height, config.frame_width)
        keys = []
        for box in boxes:
            rows, cols = box.pixel_slice(shape)
            keys.append((index, rows.start, rows.stop, cols.start, cols.stop, params))
        _SEED_REQUESTS.inc(len(keys))
        missing = {key: box for key, box in zip(keys, boxes) if key not in self._seeds}
        if missing:
            try:
                seeds = self.clip.features(index, list(missing.values()), params)
            except Exception as exc:
                seeds = [exc] * len(missing)
            for key, seed in zip(missing, seeds):
                if isinstance(seed, np.ndarray):
                    seed.setflags(write=False)
                self._seeds[key] = seed
        replies = [self._seeds[key] for key in keys]
        for reply in replies:
            if isinstance(reply, Exception):
                raise _own(reply)
        return replies

    def _start(self) -> None:
        self._started = True
        for key, arm in self._arms.items():
            arm.thread = threading.Thread(
                target=arm.main, name=f"lockstep-arm-{key}", daemon=True
            )
            arm.thread.start()
            arm.ready = True

    def _advance(self) -> None:
        """Run the first arm holding a turn; failing that, make the first
        parked read; failing that, solve a step."""
        for arm in self._arms.values():
            if arm.ready:
                self._run(arm)
                return
        for arm in self._arms.values():
            if arm.read is not None:
                read, args = arm.read
                arm.read = None
                try:
                    arm.reply = read(*args)
                except Exception as exc:
                    arm.reply = exc
                arm.ready = True
                return
        parked = [arm for arm in self._arms.values() if arm.step is not None]
        first = min(parked, key=lambda arm: (arm.step[0], arm.step[1], arm.order))
        self._solve(first.step, [arm for arm in parked if arm.step == first.step])

    def _run(self, arm: _Arm) -> None:
        """Hand ``arm`` the turn and wait until it parks or ends."""
        arm.ready = False
        self._running = arm
        arm.turn.release()
        self.back.acquire()
        self._running = None

    def _solve(self, step: tuple[int, int, LKParams], waiting: list[_Arm]) -> None:
        """One ``clip.flow`` call over every waiting arm's points."""
        _STEPS.inc()
        points = np.concatenate([arm.points for arm in waiting])
        try:
            flow = self.clip.flow(*step[:2], points, step[2])
        except Exception as exc:
            # Each arm meets the failure where its own call would have,
            # as an instance of its own.
            replies = [_own(exc) for _ in waiting]
        else:
            bounds = np.cumsum([0] + [len(arm.points) for arm in waiting])
            replies = [
                FlowResult(
                    points=flow.points[start:stop].copy(),
                    status=flow.status[start:stop].copy(),
                    residual=flow.residual[start:stop].copy(),
                )
                for start, stop in zip(bounds, bounds[1:])
            ]
        for arm, reply in zip(waiting, replies):
            arm.reply = reply
            arm.step = arm.points = None
            arm.ready = True
