"""In-memory span recorder that wraps voltfi's public functions from outside.

Two kinds of wrapper:

* kept: every call is recorded as a span (name, tag, start, end, parent,
  self time); used for calls that happen at most a few times per
  experiment.
* hot: calls are only counted and timed in aggregate (count, total, self);
  used for the per-access layers (memory accessors, cache load/store,
  backing-store read/write), which run millions of times.

Self time is a call's duration minus the time of the wrapped calls made
inside it. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []        # [name, tag, start_ns, end_ns, parent index or -1, self_ns, failed]
        self.calls = {}        # name -> [calls, total_ns, self_ns]
        self._stack = []       # one [child_ns, span index or -1] frame per active wrapped call
        self._patches = []     # (namespace, key, original) to restore

    def _wrapper(self, fn, name, keep, tag, after):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        stat = self.calls.setdefault(name, [0, 0, 0])

        def wrapped(*args, **kwargs):
            idx = -1
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                idx = len(spans)
                spans.append([name, tag(args) if tag else None, 0, 0, parent, 0, False])
            frame = [0, idx]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                if keep:
                    spans[idx][6] = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if keep:
                    s = spans[idx]
                    s[2], s[3], s[5] = t0, t1, dur - frame[0]
                if after:
                    after(args, result)

        return wrapped

    def wrap(self, owner, attr, name, keep=False, tag=None, after=None):
        """Wrap owner.attr; a module-level function is replaced in every voltfi module that binds it."""
        orig = getattr(owner, attr)
        wrapper = self._wrapper(orig, name, keep, tag, after)
        if isinstance(owner, type):
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "voltfi" and mod is not None:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- queries ---------------------------------------------------------------

    def kept(self, name, tag=None):
        return [s for s in self.spans if s[0] == name and (tag is None or s[1] == tag)]

    def total_s(self, name, tag=None) -> float:
        return sum(s[3] - s[2] for s in self.kept(name, tag)) / 1e9

    def self_s(self, name, tag=None) -> float:
        return sum(s[5] for s in self.kept(name, tag)) / 1e9

    def count(self, *names) -> int:
        return sum(self.calls.get(n, (0, 0, 0))[0] for n in names)

    def self_ns(self, *names) -> int:
        return sum(self.calls.get(n, (0, 0, 0))[2] for n in names)

    def total_ns(self, *names) -> int:
        return sum(self.calls.get(n, (0, 0, 0))[1] for n in names)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "tag", "start_ns", "end_ns", "parent", "self_ns", "failed"],
                       "spans": self.spans, "calls": self.calls}, fh)
