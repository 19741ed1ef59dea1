"""Epoch clock and span tracer, both installed from outside the program.

Each wrapper replaces a function at the module attribute (or ``Tape`` class
attribute) its callers look up, and restores the original on ``close``.  No
code inside ``phenomnn`` is changed.

``EpochClock`` is installed on every run: it takes one timestamp whenever
``train`` creates an epoch's ``Tape`` and one when ``train`` starts its
closing ``descent_trace``, which are the epoch boundaries.

``Tracer`` is installed on traced runs only.  It records span durations per
name into the current window and adds the duration of outermost spans to
``covered``, so a window's span coverage can be stated.  While ``active`` is
false every wrapper passes straight through.

``ProbeInside`` runs the speed probe inside long step-bound calls.
Durations are process CPU seconds (see ``speed.py``).
"""

from __future__ import annotations

import functools
import tracemalloc
import weakref
from collections import defaultdict

from speed import clock, scaled

TAPE_PRIMITIVES = (
    "spmm",
    "matmul",
    "row_scale",
    "add",
    "sub",
    "scale",
    "transpose",
    "relu",
    "mul_const",
    "add_rowvec",
    "softmax_cross_entropy",
)


class _Patches:
    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` with ``make(original)``; skipped when absent."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def close(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Window:
    """Per-call span durations by name, and the time outermost spans cover."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.covered = 0.0

    def total(self, name) -> float:
        return sum(self.samples.get(name, ()))

    def calls(self, name) -> int:
        return len(self.samples.get(name, ()))


class Tracer(_Patches):
    def __init__(self):
        super().__init__()
        self.active = False
        self.window = Window()
        self.depth = 0
        self.tape_ops = 0

    def take(self) -> Window:
        """Return the current window and start a fresh one."""
        done, self.window = self.window, Window()
        return done

    def _add(self, name, dt, outermost):
        self.window.samples[name].append(dt)
        if outermost:
            self.window.covered += dt

    def span(self, name):
        """Decorator factory timing every active call under ``name``."""

        def make(orig):
            @functools.wraps(orig)
            def timed(*args, **kwargs):
                if not self.active:
                    return orig(*args, **kwargs)
                outermost = self.depth == 0
                self.depth += 1
                t0 = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.depth -= 1
                    self._add(name, clock() - t0, outermost)

            return timed

        return make

    def install(self, mods: dict):
        model, energy, linalg = mods["model"], mods["energy"], mods["linalg"]
        train, autodiff = mods["train"], mods["autodiff"]
        # untaped sparse products, at every name their callers use
        for mod in (model, energy, linalg):
            self.patch(mod, "spmm", self.span("linalg.spmm"))
        self.patch(model, "layer_simple", self.span("model.layer"))
        self.patch(model, "layer_general", self.span("model.layer"))
        self.patch(model, "energy_simple", self.span("energy.energy"))
        self.patch(model, "energy_general", self.span("energy.energy"))
        self.patch(model, "grad_simple", self.span("energy.grad"))
        self.patch(model, "grad_general", self.span("energy.grad"))
        self.patch(model, "extreme_eigenvalue", self._eigen)
        self.patch(train, "build_taped_logits", self.span("model.taped_forward"))
        self.patch(train, "backward", self._backward)
        self.patch(train, "adam_step", self.span("train.adam"))
        self.patch(train, "forward", self.span("train.eval"))
        self.patch(train, "accuracy", self.span("train.eval"))
        self.patch(train, "descent_trace", self.span("train.trace"))
        for p in TAPE_PRIMITIVES:
            self.patch(autodiff.Tape, p, self._primitive(p))

    def _eigen(self, orig):
        apply_span = self.span("linalg.eig_apply")

        @functools.wraps(orig)
        def wrapped(apply, *args, **kwargs):
            return orig(apply_span(apply), *args, **kwargs)

        return wrapped

    def _backward(self, orig):
        timed = self.span("autodiff.backward")(orig)

        @functools.wraps(orig)
        def wrapped(tape, loss, *args, **kwargs):
            if self.active:
                self.tape_ops = len(tape.ops)
            return timed(tape, loss, *args, **kwargs)

        return wrapped

    def _primitive(self, name):
        fwd = self.span(f"autodiff.op.{name}.fwd")
        bwd = self.span(f"autodiff.op.{name}.bwd")

        def make(orig):
            timed = fwd(orig)

            @functools.wraps(orig)
            def wrapped(tape, *args, **kwargs):
                out = timed(tape, *args, **kwargs)
                # time this op's vector-Jacobian product when backward runs it
                if self.active and tape.ops and tape.ops[-1].out == out.idx:
                    tape.ops[-1].vjp = bwd(tape.ops[-1].vjp)
                return out

            return wrapped

        return make


class EpochClock(_Patches):
    """Epoch boundaries of ``train`` from the benchmark's own clock.

    With a tracer, it also runs the tracer's per-epoch schedule: epoch 0 is
    measured by ``tracemalloc`` with spans off, later epochs alternate
    between spans on (even) and off (odd), so the traced and untraced epoch
    times of one process give the tracing overhead.  The speed probe and the
    tracer's bookkeeping at a boundary fall between two epochs, not inside
    one; ``probes[i]`` and ``probes[i + 1]`` bracket epoch ``i``.
    """

    def __init__(self, train_mod, probe, tracer: Tracer | None = None):
        super().__init__()
        self.probe = probe
        self.probes = []
        self.starts = []
        self.ends = []
        self.tracer = tracer
        self.epochs = []  # (mode, Window) per finished epoch, traced runs only
        self.tapes = []
        self.tapes_alive_max = 0
        self.epoch_peak_mb = 0.0
        self.patch(train_mod, "Tape", self._on_tape)
        self.patch(train_mod, "descent_trace", self._on_trace)

    @staticmethod
    def mode(epoch: int) -> str:
        if epoch == 0:
            return "mem"
        return "on" if epoch % 2 == 0 else "off"

    def _boundary(self, starting: bool):
        now = clock()
        if self.starts:
            self.ends.append(now)
        tr = self.tracer
        if tr is not None:
            if self.starts:
                finished = self.mode(len(self.starts) - 1)
                if finished == "mem":
                    self.epoch_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self.epochs.append((finished, tr.take()))
            # the finished epoch's tape is still bound in train; older ones
            # should be gone
            alive = sum(ref() is not None for ref in self.tapes)
            self.tapes_alive_max = max(self.tapes_alive_max, alive)
            tr.active = False
        self.probes.append(self.probe())
        if tr is not None:
            mode = self.mode(len(self.starts)) if starting else "on"
            tr.active = mode == "on"
            if mode == "mem":
                tracemalloc.start()
        if starting:
            self.starts.append(clock())

    def _on_tape(self, orig):
        @functools.wraps(orig)
        def make_tape(*args, **kwargs):
            self._boundary(starting=True)
            tape = orig(*args, **kwargs)
            self.tapes.append(weakref.ref(tape))
            return tape

        return make_tape

    def _on_trace(self, orig):
        @functools.wraps(orig)
        def trace(*args, **kwargs):
            self._boundary(starting=False)
            return orig(*args, **kwargs)

        return trace

    def epoch_seconds(self) -> list:
        return [b - a for a, b in zip(self.starts, self.ends)]

    def epoch_scaled(self) -> list:
        return [scaled(t, a, b) for t, a, b in zip(self.epoch_seconds(), self.probes, self.probes[1:])]


class ProbeInside(_Patches):
    """Runs the speed probe every ``every`` applications of the step bound's
    operator, so a multi-second eigensolver call is scaled by the machine's
    speed during the call and not only at its ends.  ``samples`` holds the
    probe times taken inside the current call, to be subtracted from it."""

    def __init__(self, model_mod, probe, every: int):
        super().__init__()
        self.samples = []
        self.patch(model_mod, "extreme_eigenvalue", self._wrap(probe, every))

    def _wrap(self, probe, every):
        def make(orig):
            @functools.wraps(orig)
            def wrapped(apply, *args, **kwargs):
                calls = [0]

                def probed_apply(v):
                    calls[0] += 1
                    if calls[0] % every == 0:
                        self.samples.append(probe())
                    return apply(v)

                return orig(probed_apply, *args, **kwargs)

            return wrapped

        return make
