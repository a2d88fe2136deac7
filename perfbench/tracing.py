"""Span tracing of circio's public functions, applied from outside the package.

Tracer.install() replaces each traced function at every circio module that
binds it (theta_image, for one, is bound in circio.theta, circio.classify,
circio.enumeration, circio.goldens, circio.cli and the package itself), so
calls are seen whichever module makes them. It also swaps the json module
that circio.cli uses, to time the report dump done by `circio scan`.
Tracer.restore() puts every original binding back and checks that it did.

Spans are (name, parent, start, end) rows kept in compact arrays; a span's
self time is its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

TRACED = {
    "core": ("reflexive_reduce", "is_circulant", "adjacency_spectrum"),
    "multipliers": ("units", "multiply_set", "adam_orbit", "is_adam_equivalent"),
    "theta": ("theta_image", "theta_vertex_map", "theta_witness", "theta_scan"),
    "oracle": ("isomorphic", "canonical_form", "verify_permutation"),
    "classify": ("classify_pair",),
    "enumeration": ("enumerate_family", "full_scan"),
    "goldens": ("verify_goldens",),
    "cli": ("export_csv", "export_jsonl"),
}
SCAN_ORDERS = (16, 27, 32, 48, 54)
_WRAPPED = "__perfbench_wrapped__"


def _hit(counts: Counter, name: str, args: tuple, result) -> None:
    if result is not None:
        counts[name + ".hits"] += 1


def _iso_outcome(counts: Counter, name: str, args: tuple, result) -> None:
    # Any non-isomorphic certificate other than the canonical forms' comes
    # from the pre-filter, whatever its text.
    if result.kind == "timeout":
        counts[name + ".timeouts"] += 1
    elif result.kind == "isomorphic" or result.certificate == "canonical-form":
        counts[name + ".canonical_decisions"] += 1
    else:
        counts[name + ".spectral_rejects"] += 1


def _verdict_outcome(counts: Counter, name: str, args: tuple, result) -> None:
    counts[name + "." + result.kind.replace("-", "_")] += 1


def _file_bytes(counts: Counter, name: str, args: tuple, result) -> None:
    counts[name + ".bytes"] += os.path.getsize(args[1])


def _dump_bytes(counts: Counter, name: str, args: tuple, result) -> None:
    counts[name + ".bytes"] += args[1].tell()


OUTCOMES: dict[str, Callable] = {
    "core.is_circulant": _hit,
    "theta.theta_image": _hit,
    "multipliers.is_adam_equivalent": _hit,
    "oracle.isomorphic": _iso_outcome,
    "classify.classify_pair": _verdict_outcome,
    "cli.export_csv": _file_bytes,
    "cli.export_jsonl": _file_bytes,
    "cli.scan_report": _dump_bytes,
}


class _TracedJson:
    """Stands in for the json module inside circio.cli; only dump is traced."""

    def __init__(self, dump: Callable):
        self.dump = dump

    def __getattr__(self, attr: str):
        return getattr(json, attr)


class Tracer:
    """In-memory span recorder. One instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, label: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span named name (plus label(args), if given)."""
        nid = self.name_id(name)
        outcome = OUTCOMES.get(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid if label is None else self.name_id(name + label(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if outcome is not None:
                outcome(counts, name, args, result)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every circio module that binds it."""
        modules = _circio_modules()
        for layer, fnames in TRACED.items():
            home = sys.modules.get("circio." + layer)
            if home is None:
                continue
            for fname in fnames:
                original = getattr(home, fname)
                label = _scan_label if (layer, fname) == ("enumeration", "full_scan") else None
                wrapper = self.wrap(f"{layer}.{fname}", original, label)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patch(module, fname, wrapper)
        cli = sys.modules.get("circio.cli")
        if cli is not None:
            self._patch(cli, "json", _TracedJson(self.wrap("cli.scan_report", json.dump)))

    def _patch(self, module: object, attr: str, value: object) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> list[str]:
        """Put back every original binding; return any that failed to restore."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        problems = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        for module in _circio_modules():
            for attr, value in vars(module).items():
                if getattr(value, _WRAPPED, False) or isinstance(value, _TracedJson):
                    problems.append(f"{module.__name__}.{attr} still wrapped")
        self._patched.clear()
        return problems

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> list[int]:
        return self_times(self.parents, self.starts, self.ends)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass except the tracing overhead."""
        return layer_metrics(self.names, self.name_ids, self.starts, self.ends,
                             self.self_times(), self.counts)

    def write(self, stem: str) -> None:
        """Write the spans as <stem>.bin (four arrays, one after the other)
        and <stem>.json (span names, array layout and outcome counts)."""
        arrays = (self.name_ids, self.parents, self.starts, self.ends)
        with open(stem + ".bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [[field, arr.typecode, arr.itemsize] for field, arr in
                       zip(("name_id", "parent", "start_ns", "end_ns"), arrays)],
            "byteorder": sys.byteorder,
            "counts": dict(sorted(self.counts.items())),
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _scan_label(args: tuple, kwargs: dict) -> str:
    return f".n{args[0] if args else kwargs['n']}"


def _circio_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "circio" or name.startswith("circio."))
    ]


def self_times(parents, starts, ends) -> list[int]:
    """Duration of each span minus the union of its direct children.

    Spans are numbered in start order, so each parent's children arrive
    sorted by start and their union is found in one pass.
    """
    out = [ends[i] - starts[i] for i in range(len(starts))]
    covered_to: dict[int, int] = {}
    for i in range(len(starts)):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], covered_to.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_to[p] = hi
    return out


def layer_metrics(names, name_ids, starts, ends, selfs, counts) -> dict[str, float]:
    """calls, self_s and busy_s per span name, plus the outcome counts."""
    out: Counter = Counter()
    for i, nid in enumerate(name_ids):
        name = names[nid]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[i] / 1e9
        out[name + ".busy_s"] += (ends[i] - starts[i]) / 1e9
    out["enumeration.full_scan.self_s"] = sum(
        v for k, v in out.items()
        if k.startswith("enumeration.full_scan.n") and k.endswith(".self_s")
    )
    out.update(counts)
    calls = out["theta.theta_image.calls"]
    out["theta.theta_image.hit_ratio"] = out["theta.theta_image.hits"] / calls if calls else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER if name != "bench.trace_overhead"}


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = {
        "core.reflexive_reduce": "calls self_s",
        "core.is_circulant": "calls hits self_s",
        "core.adjacency_spectrum": "calls self_s",
        "multipliers.units": "calls self_s",
        "multipliers.multiply_set": "calls self_s",
        "multipliers.adam_orbit": "calls self_s",
        "multipliers.is_adam_equivalent": "calls hits self_s",
        "theta.theta_image": "calls hits hit_ratio self_s",
        "theta.theta_vertex_map": "calls",
        "theta.theta_witness": "calls self_s",
        "theta.theta_scan": "calls self_s",
        "oracle.isomorphic": "calls self_s spectral_rejects canonical_decisions timeouts",
        "oracle.canonical_form": "calls self_s",
        "oracle.verify_permutation": "calls self_s",
        "classify.classify_pair": "calls self_s type1 type2 non_isomorphic unknown",
        "enumeration.enumerate_family": "self_s",
        "enumeration.full_scan": "self_s " + " ".join(f"n{n}.busy_s" for n in SCAN_ORDERS),
        "goldens.verify_goldens": "self_s",
        "cli.export_csv": "self_s bytes",
        "cli.export_jsonl": "self_s bytes",
        "cli.scan_report": "self_s bytes",
        "bench": "trace_overhead",
    }
    units = {"self_s": "s", "busy_s": "s", "bytes": "B", "hit_ratio": "ratio",
             "trace_overhead": "ratio"}
    higher = {"hits", "hit_ratio", "spectral_rejects"}
    out = []
    for prefix, keys in spec.items():
        for key in keys.split():
            last = key.rsplit(".", 1)[-1]
            out.append((f"{prefix}.{key}", units.get(last, "count"),
                        "higher" if last in higher else "lower"))
    return out


PER_LAYER = _per_layer()
