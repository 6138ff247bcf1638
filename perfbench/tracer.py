"""Timing wrappers installed from outside on the package's public functions.

A `Tracer` replaces each target with a wrapper that counts calls, failed
calls and inclusive wall time, then puts the originals back on `remove`.
A target that no longer exists is recorded in `missing` instead of raising,
so the metrics built on it can be reported as absent.

Functions are patched in every loaded `daesvr` module that holds the same
object, because modules import each other's functions by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

_UNSET = object()


class Tracer:
    def __init__(self, targets):
        """`targets` maps a key to (module name, dotted attribute, observe).

        `observe(tracer, args, result, error)` may be None; when given it runs
        after every call and records derived values with `note`.
        """
        self.targets = dict(targets)
        self.missing = set()
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.seconds = defaultdict(float)
        self.notes = defaultdict(list)

    def note(self, key, value):
        self.notes[key].append(value)

    def take(self):
        """Counters since the last `take`, then start from zero."""
        out = {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "seconds": dict(self.seconds),
            "notes": {k: list(v) for k, v in self.notes.items()},
        }
        self.reset()
        return out

    def install(self):
        for key, (module_name, dotted, observe) in self.targets.items():
            try:
                owner, name, original = _resolve(module_name, dotted)
            except (ImportError, AttributeError):
                self.missing.add(key)
                continue
            wrapper = self._wrap(key, original, observe)
            if "." in dotted:  # a method or an attribute of an object
                self._patch(owner, name, wrapper)
                continue
            for mod in _package_modules(module_name):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def remove(self):
        for owner, name, previous in reversed(self._patches):
            if previous is _UNSET:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._patches = []

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner).get(name, _UNSET)))
        setattr(owner, name, wrapper)

    def _wrap(self, key, original, observe):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as err:
                tracer.seconds[key] += perf_counter() - t0
                tracer.calls[key] += 1
                tracer.errors[key] += 1
                if observe is not None:
                    observe(tracer, args, None, err)
                raise
            tracer.seconds[key] += perf_counter() - t0
            tracer.calls[key] += 1
            if observe is not None:
                observe(tracer, args, result, None)
            return result

        return wrapper


def _resolve(module_name, dotted):
    """(owner, attribute name, current value) for `module.dotted.path`."""
    owner = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _package_modules(module_name):
    package = module_name.split(".")[0]
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
