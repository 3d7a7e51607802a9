"""Span tracing from outside the program: wrappers at layer boundaries.

``Tracer.install()`` replaces, on the classes and modules of
``src/repro``, the public calls at which one layer hands work to
another, and wraps every callable handed across one of them (scheduled
callbacks, message handlers, completion callbacks, the Paxos node's
hooks). Nothing under ``src/`` is edited; ``uninstall()`` puts every
attribute back.

A span is ``(id, parent, layer, name, start, end, op)``. ``layer`` is
the ``repro.<package>`` that defines the callable — the class of
``__self__`` for bound methods, ``__module__`` for functions and
closures — and callables of the benchmark's own files count as
``workload``. Spans nest on a stack; a span's *self time* is its
duration minus the time its child spans cover, and the per-layer sums of
self time, plus the garbage-collection pauses reported to ``pause()``,
partition the wall time of ``Simulator.run`` exactly (the run loop and
heap pops are the self time of the ``Simulator.run`` span, layer
``sim``). Aggregates are exact and kept in memory; the first
``RAW_CAP`` spans of the measured phase are kept raw as well.

Wrappers add no events, draw no random numbers and return what the
wrapped call returned, so a traced run replays the untraced run's
simulated history bit for bit — the harness checks that it does.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("sim", "net", "rpc", "core", "kvstore", "erasure", "storage",
          "workload", "check")
RAW_CAP = 20_000

_OWN = "workload"  # layer of callables defined outside src/repro/<layer>


def layer_of_module(module: str | None) -> str:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return _OWN


def layer_of(fn) -> str:
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type(sys)):
        cls = owner if isinstance(owner, type) else type(owner)
        return layer_of_module(cls.__module__)
    return layer_of_module(getattr(fn, "__module__", None))


def find_op(obj, depth: int = 4):
    """``(client, op_id)`` if ``obj`` (a message, or a wrapper around
    one) exposes it."""
    while obj is not None and depth > 0:
        client = getattr(obj, "client", None)
        op_id = getattr(obj, "op_id", None)
        if isinstance(client, str) and client and isinstance(op_id, int):
            return (client, op_id)
        depth -= 1
        for attr in ("body", "payload", "share", "meta"):
            nxt = getattr(obj, attr, None)
            if nxt is not None:
                obj = nxt
                break
        else:
            return None
    return None


def self_times(spans) -> dict[str, float]:
    """Per-layer self time of a list of raw spans: each span's duration
    minus the part of it its direct children cover. (The live tracer
    computes the same sums incrementally; this is the reference the
    self-test checks it against.)"""
    child = {}
    for sid, parent, _layer, _name, start, end, _op in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _parent, layer, _name, start, end, _op in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []       # frames: [child_s, span id, op]
        self.cells: dict[tuple[str, str], list] = {}  # -> [calls, self_s]
        self.counts: dict[str, int] = {}  # boundary counts without a
        self.raw: list[tuple] = []        # public counter in the program
        self.paused_s = 0.0               # garbage collection, see pause()
        self._ids = [0]
        self._patches: list[tuple] = []
        self._frozen: dict | None = None
        self._by_code: dict = {}
        # Every span closure shares one code object: that is how an
        # already-wrapped callable is recognised without marking it.
        self._traced_code = None
        self._traced_code = self._span(
            len, ("sim", "", [0, 0.0], ""), ()).__code__

    # -- aggregation ----------------------------------------------------

    def reset(self) -> None:
        """Start of the measured phase: forget everything so far."""
        for cell in self.cells.values():
            cell[0], cell[1] = 0, 0.0
        for k in self.counts:
            self.counts[k] = 0
        self.raw.clear()
        self.paused_s = 0.0
        self._ids[0] = 0
        self._frozen = None

    def freeze(self, wall_s: float) -> None:
        """End of the measured phase: keep a copy of the aggregates."""
        by_layer = {layer: 0.0 for layer in LAYERS}
        spans = []
        for (layer, name), (calls, self_s) in self.cells.items():
            if calls:
                by_layer[layer] = by_layer.get(layer, 0.0) + self_s
                spans.append((self_s, calls, layer, name))
        spans.sort(reverse=True)
        self._frozen = {
            "wall_s": wall_s,
            "self_s": by_layer,
            "gc_s": self.paused_s,
            "counts": dict(self.counts),
            "spans": self._ids[0],
            # "layer|name" -> [calls, self seconds], largest first
            "cells": {f"{la}|{n}": [c, s_] for s_, c, la, n in spans},
            "raw": list(self.raw),
        }

    def report(self) -> dict:
        return self._frozen or {}

    def pause(self, seconds: float) -> None:
        """Time that passed inside the current span but is not its doing
        (a garbage collection): taken out of its self time."""
        if self.stack:
            self.paused_s += seconds
            self.stack[-1][0] += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping -------------------------------------------------------

    def _info(self, fn, code, key=None) -> tuple:
        """(layer, name, aggregate cell, event-count key) of a callable,
        cached by code object and, for bound methods, owner type."""
        owner = getattr(fn, "__self__", None)
        ck = (code, type(owner))
        info = self._by_code.get(ck) if key is None else None
        if info is None:
            layer, name = key or (
                layer_of(fn),
                getattr(getattr(fn, "__func__", fn), "__qualname__",
                        type(fn).__name__))
            cell = self.cells.setdefault((layer, name), [0, 0.0])
            info = (layer, name, cell, f"events.{layer}")
            if key is None and code is not None:
                self._by_code[ck] = info
        return info

    def wrap(self, fn, wrap_args: tuple[int, ...] = (),
             key: tuple[str, str] | None = None):
        """``fn`` inside a span. ``wrap_args`` are positions of callables
        ``fn`` receives that are wrapped in turn (a handler's
        ``respond``). A span whose only enclosing span is
        ``Simulator.run`` is a scheduled event: those are counted per
        layer (``events.<layer>``)."""
        if fn is None:
            return None
        code = getattr(fn, "__code__", None)
        if code is self._traced_code:
            return fn  # already one of ours
        return self._span(fn, self._info(fn, code, key), wrap_args)

    def _span(self, fn, info: tuple, wrap_args: tuple[int, ...]):
        layer, name, cell, event_key = info
        stack, raw, ids, wrap = self.stack, self.raw, self._ids, self.wrap
        counts = self.counts

        def traced(*args, **kwargs):
            sid = ids[0]
            ids[0] = sid + 1
            if wrap_args:
                args = list(args)
                for i in wrap_args:
                    if i < len(args):
                        args[i] = wrap(args[i])
            frame = [0.0, sid, None]
            parent = stack[-1] if stack else None
            if len(stack) == 1:
                counts[event_key] = counts.get(event_key, 0) + 1
            if sid < RAW_CAP:
                for arg in args[:5]:
                    frame[2] = find_op(arg)
                    if frame[2] is not None:
                        break
                else:
                    frame[2] = parent[2] if parent else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                cell[0] += 1
                cell[1] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if sid < RAW_CAP:
                    raw.append((sid, parent[1] if parent else -1, layer,
                                name, t0, t1, frame[2]))

        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)
                              if isinstance(owner, type)
                              else getattr(owner, attr, _MISSING)))
        setattr(owner, attr, new)

    def _method(self, cls, attr: str, callbacks: tuple = (),
                handler_args: tuple[int, ...] = (),
                before=None, after=None) -> None:
        """Span around ``cls.attr``; ``callbacks`` are (position, keyword)
        pairs of callables it is handed, wrapped before the call.
        ``handler_args``: positions of callables those callbacks will in
        turn receive. ``before(self, *args, **kwargs)`` and
        ``after(result)`` keep counts."""
        orig = cls.__dict__[attr]
        key = (layer_of_module(cls.__module__), f"{cls.__name__}.{attr}")
        wrap = self.wrap
        if not callbacks and before is None and after is None:
            self._patch(cls, attr, wrap(orig, key=key))
            return

        # The boundary's own bookkeeping runs inside its span, so it is
        # charged to the layer being entered, not to the caller.
        def body(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if callbacks:
                args = list(args)
                for pos, kw in callbacks:
                    if pos < len(args):
                        args[pos] = wrap(args[pos], handler_args)
                    elif kw in kwargs:
                        kwargs[kw] = wrap(kwargs[kw], handler_args)
            result = orig(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(cls, attr, wrap(body, key=key))

    def _function(self, module, attr: str) -> None:
        """Span around a module-level function, in every ``repro``
        module that imported it by name."""
        orig = getattr(module, attr)
        key = (layer_of_module(module.__name__), attr)
        traced = self.wrap(orig, key=key)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, attr, None) is orig:
                self._patch(mod, attr, traced)

    def _hook(self, cls, attr: str) -> None:
        """Wrap whatever gets assigned to the instance attribute
        ``cls().attr`` (a hook one layer sets on another's object)."""
        slot = f"_perf_{attr}"
        wrap = self.wrap

        def fget(obj):
            return obj.__dict__.get(slot)

        def fset(obj, fn):
            obj.__dict__[slot] = wrap(fn)

        self._patch(cls, attr, property(fget, fset))

    def install(self) -> None:
        from repro.check import invariants, linearize
        from repro.core import node as core_node, value as core_value
        from repro.erasure.rs import RSCodec
        from repro.kvstore import KVClient, KVServer
        from repro.net import Network
        from repro.rpc import Batch, Channel, Reply, Request, RpcEndpoint
        from repro.rpc.mux import ChannelMsg
        from repro.sim import FifoResource, Simulator
        from repro.sim.loop import Event
        from repro.storage import (CheckpointStore, Disk, WalView,
                                   WriteAheadLog)

        count = self.count
        counts = self.counts

        # sim: every scheduled callback becomes a span of its own layer.
        def on_call_at(sim, when, callback):
            counts["sim.call_at"] = counts.get("sim.call_at", 0) + 1
            n = len(sim._heap) + 1
            if n > counts.get("sim.heap_peak", 0):
                counts["sim.heap_peak"] = n

        self._method(Simulator, "run")
        self._method(Simulator, "call_at", ((2, "callback"),),
                     before=on_call_at)
        self._method(FifoResource, "submit")
        self._method(Event, "cancel",
                     before=lambda ev: count("sim.cancels"))

        # net
        def on_net_send(net, src, dst, payload, size):
            if isinstance(payload, Request):
                count("rpc.request_transmits")
            if src == dst:
                count("net.loopbacks")
                return
            bodies = 1
            if isinstance(payload, (Request, Reply)):
                payload = payload.body
            if isinstance(payload, ChannelMsg):
                payload = payload.body
            if isinstance(payload, Batch):
                bodies = len(payload.items)
            count("net.bodies", bodies)

        self._method(Network, "send", before=on_net_send)
        self._method(Network, "set_handler", ((2, "handler"),))
        self._method(Network, "add_host", ((2, "handler"),))

        # rpc (RpcEndpoint, and Channel which offers the same surface)
        for cls in (RpcEndpoint, Channel):
            self._method(cls, "send")
            self._method(cls, "request",
                         ((4, "on_reply"), (7, "on_timeout")))
            self._method(cls, "on", ((2, "handler"),))
            self._method(cls, "on_request_async", ((2, "handler"),),
                         handler_args=(2,))
        self._method(RpcEndpoint, "on_request", ((2, "handler"),))

        # storage
        self._method(WriteAheadLog, "append", ((3, "callback"),))
        self._method(WalView, "append", ((3, "callback"),))
        self._method(WriteAheadLog, "recover", after=lambda records: count(
            "storage.recover_records", len(records)))
        self._method(WalView, "recover")
        self._method(WriteAheadLog, "truncate_prefix")
        self._method(Disk, "write", ((2, "callback"), (3, "on_error")))
        self._method(Disk, "read", ((2, "callback"),))
        self._method(CheckpointStore, "save", ((3, "callback"),))
        self._method(CheckpointStore, "load")

        # erasure
        def on_encode(codec, value, *rest):
            count("erasure.encode_bytes", len(value))

        def on_decode(codec, shares):
            if shares:
                count("erasure.decode_bytes", shares[0].value_size)

        self._method(RSCodec, "encode", before=on_encode)
        self._method(RSCodec, "encode_share", before=on_encode)
        self._method(RSCodec, "decode", before=on_decode)

        # core
        for fn in ("encode_value", "encode_one_share", "decode_value"):
            self._function(core_value, fn)
        self._method(core_node.PaxosNode, "propose", ((2, "on_decided"),))
        self._method(core_node.PaxosNode, "become_leader",
                     ((1, "on_ready"),))
        for hook in ("on_apply", "on_preempted", "on_missing_value",
                     "prepare_gate"):
            self._hook(core_node.PaxosNode, hook)

        # kvstore
        self._method(KVClient, "put", ((4, "on_done"),))
        self._method(KVClient, "get", ((3, "on_done"),))
        self._method(KVServer, "crash")
        self._method(KVServer, "recover")

        # check
        self._function(linearize, "check_history")
        self._function(invariants, "check_cluster")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()
