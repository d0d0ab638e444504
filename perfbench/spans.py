"""Spans around mrflow's public callables, recorded from outside the package.

A `Recorder` replaces a function by a wrapper at every name it is bound
to, so a call is seen no matter which module looks it up: `mri_step` is
called through `mrflow.mri`'s globals, `fused_linear_combination` through
`from`-imports in `ark` and `mri`, and methods through their class.
Each span is `[name, start, end, parent, tag]`, kept per thread in
memory; a rank returns its own list with its result. After a fork the
child starts with an empty list, so a socket worker reports only what
it did itself.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import sys
import threading
import time

LAYERS = ("transport", "mesh", "euler", "chemistry", "newton", "ark",
          "vectors", "mri", "harness")

NAME, START, END, PARENT, TAG = range(5)


class Recorder:
    """Installs span wrappers and collects the spans of the calling thread."""

    def __init__(self):
        self._local = threading.local()
        self._patched = []          # (owner, attribute, previous value)
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self):
        self._local = threading.local()

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack, local.kept = [], [], {}
            return local.spans, local.stack

    def take(self):
        """-> (spans, kept results) of this thread; both start over empty."""
        spans, _ = self._thread_state()
        local = self._local
        kept = local.kept
        del local.spans, local.stack, local.kept
        return spans, kept

    def wrap(self, fn, name, tag=None, keep=False):
        """A wrapper recording one span per call of fn.

        tag(args) labels the span; keep stores the latest return value
        under `name` for take().
        """
        clock = time.perf_counter
        state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    tag(args) if tag is not None else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                self._local.kept[name] = result
            return result

        return wrapper

    def patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def patch_everywhere(self, fn, wrapper):
        """Rebind every mrflow module global that refers to fn."""
        hits = 0
        for module in _mrflow_modules():
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attribute, wrapper)
                    hits += 1
        return hits

    def trace_layers(self):
        """Wrap every public function and method of the layer modules.

        Span names are `<layer>.<qualified name>`. Returns the names.
        """
        names = []
        for layer, qualname, owner, attribute, raw in layer_callables():
            name = f"{layer}.{qualname}"
            if owner is None:
                self.patch_everywhere(raw, self.wrap(raw, name))
            elif isinstance(raw, staticmethod):
                self.patch(owner, attribute,
                           staticmethod(self.wrap(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self.patch(owner, attribute,
                           classmethod(self.wrap(raw.__func__, name)))
            else:
                self.patch(owner, attribute, self.wrap(raw, name))
            names.append(name)
        return names

    def restore(self):
        """Undo every patch, latest first."""
        while self._patched:
            owner, attribute, previous = self._patched.pop()
            setattr(owner, attribute, previous)


def _mrflow_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "mrflow" or n.startswith("mrflow."))]


def layer_callables():
    """(layer, qualname, owner class or None, attribute, raw object) for
    each public function and public method defined in a layer module."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"mrflow.{layer}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((layer, name, None, name, obj))
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                for attribute, raw in sorted(vars(obj).items()):
                    if attribute.startswith("_") and attribute != "__call__":
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)):
                        out.append((layer, f"{name}.{attribute}", obj, attribute, raw))
    return out


# ---------------------------------------------------------------------------
# reading a rank's spans

def self_times(spans):
    """Per-span duration minus the part its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_seconds(spans):
    """Self time summed per layer (spans named `<layer>.*`)."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out


def inclusive_seconds(spans, names):
    """Wall time inside any of `names`, counting nested calls once."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total


def self_seconds(spans, names):
    names = set(names)
    return sum(own for s, own in zip(spans, self_times(spans))
               if s[NAME] in names)


def call_count(spans, names):
    names = set(names)
    return sum(1 for s in spans if s[NAME] in names)
