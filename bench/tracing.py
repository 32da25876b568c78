"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :class:`Tracer` wraps the
public functions of the package by replacing the name in every module that
bound it (callers look functions up by name, so patching only the defining
module would miss ``cli.min_distance`` or ``simulate.encode``).  Spans live
in memory as ``(name, start, end, parent, attrs)`` and are written out once
the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None at top
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Children of one span never overlap (the run is single-threaded), so the
    covered time is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _code_name(es) -> str:
    return f"q{es.field.order}_b{es.b}"


def _cli_name(args, kwargs) -> str:
    argv = list(args[0] if args else kwargs.get("argv") or sys.argv[1:])
    words = [w for w in argv[:2] if not w.startswith("-")]
    if words[:1] == ["verify"]:
        return "cli.main." + "_".join(words)
    return "cli.main." + (words[0] if words else "none")


def _min_distance_attrs(args, kwargs, result) -> dict:
    es = args[0] if args else kwargs["es"]
    return {"code": _code_name(es), "classes": result.enumerated, "n": es.n}


def _repair_attrs(args, kwargs, result) -> dict:
    paths = list(result.paths.values())
    return {"rounds": result.rounds, "V": paths.count("V"),
            "H": paths.count("H"), "repaired": len(paths),
            "erased": len(paths) + len(result.unrecovered)}


# (module, attribute, span-name function or None, attrs function or None)
TARGETS = (
    ("gf", "make_field", None, None),
    ("gf", "FieldSpec.np_tables", None, None),
    ("poly", "splits_completely_distinct", None, None),
    ("poly", "all_roots", None, None),
    ("poly", "factor_monic", None, None),
    ("construction", "find_nice_orbits", None, None),
    ("construction", "build_evaluation_set", None, None),
    ("lrc_code", "generator_matrix", None, None),
    ("lrc_code", "min_distance", None, _min_distance_attrs),
    ("lrc_code", "encode", None, None),
    ("recovery", "repair", None, _repair_attrs),
    ("recovery", "recover_vertical", None, None),
    ("recovery", "recover_horizontal", None, None),
    ("simulate", "run_simulation", None, None),
    ("serialize", "profile_from_dict", None, None),
    ("serialize", "evaluation_set_from_profile", None, None),
    ("serialize", "codeword_from_dict", None, None),
    ("serialize", "save_json", None, None),
    ("cli", "run_table", None, None),
    ("cli", "main", _cli_name, None),
    ("newton_arc", "splitting_at_infinity", None, None),
    ("newton_arc", "segment_polynomials", None, None),
    ("elliptic_verify", "verify_vertical_sum", None, None),
    ("elliptic_verify", "horizontal_sum_two_torsion", None, None),
    ("elliptic_verify", "discriminant_profile", None, None),
)


class Tracer:
    """Collects spans while installed; :meth:`install` / :meth:`remove`
    patch and restore the package's names."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, name_fn=None, attrs_fn=None):
        """fn wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_fn(args, kwargs) if name_fn else name
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            rec = Span(label, tracer.clock(), 0.0, parent)
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = tracer.clock()
                tracer._stack.pop()
            if attrs_fn:
                rec.attrs = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "fibered_lrc") -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for mod_name, attr, name_fn, attrs_fn in TARGETS:
            owner = sys.modules[f"{package}.{mod_name}"]
            *cls, func = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, func)
            wrapped = self.span(f"{mod_name}.{func}", orig, name_fn, attrs_fn)
            if cls:
                self._patch(owner, func, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, new) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def remove(self) -> None:
        for owner, key, old in reversed(self._patched):
            setattr(owner, key, old)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs} for s in self.spans]


CODES = ("q121_b1", "q121_b2", "q121_b3", "q169_b1", "q169_b4",
         "q625_b3", "q625_b7")


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced run.

    ``.s`` is total inclusive time, ``.ms``/``.us_p50`` the median inclusive
    time per call, ``.self_s``/``.self_ms`` the total/median self time.
    A layer the workload never calls reads 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(idx)

    def idxs(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(spans[i].duration for i in idxs(name)))

    def med(name, scale):
        return _median([spans[i].duration for i in idxs(name)], scale)

    def calls(name):
        return float(len(idxs(name)))

    out: dict[str, tuple[float, str]] = {
        "gf.make_field.s": (total("gf.make_field"), "s"),
        "gf.np_tables.s": (total("gf.np_tables"), "s"),
        "poly.splits_completely_distinct.calls":
            (calls("poly.splits_completely_distinct"), "count"),
        "poly.splits_completely_distinct.s":
            (total("poly.splits_completely_distinct"), "s"),
        "poly.all_roots.s": (total("poly.all_roots"), "s"),
        "poly.factor_monic.s": (total("poly.factor_monic"), "s"),
        "construction.find_nice_orbits.s":
            (total("construction.find_nice_orbits"), "s"),
        "construction.build_evaluation_set.ms":
            (med("construction.build_evaluation_set", 1e3), "ms"),
        "construction.build_evaluation_set.calls":
            (calls("construction.build_evaluation_set"), "count"),
        "lrc_code.generator_matrix.ms":
            (med("lrc_code.generator_matrix", 1e3), "ms"),
    }
    for code in CODES:
        mine = [i for i in idxs("lrc_code.min_distance")
                if spans[i].attrs.get("code") == code]
        secs = float(sum(spans[i].duration for i in mine))
        work = sum(spans[i].attrs["classes"] * spans[i].attrs["n"]
                   for i in mine)
        out[f"lrc_code.min_distance.{code}.s"] = (secs, "s")
        out[f"lrc_code.min_distance.{code}.ns_per_class_symbol"] = (
            secs * 1e9 / work if work else 0.0, "ns")
    out["lrc_code.encode.us_p50"] = (med("lrc_code.encode", 1e6), "us")
    out["lrc_code.encode.calls"] = (calls("lrc_code.encode"), "count")

    reps = [spans[i].attrs for i in idxs("recovery.repair")]
    erased = sum(a["erased"] for a in reps)
    out["recovery.repair.us_p50"] = (med("recovery.repair", 1e6), "us")
    out["recovery.repair.calls"] = (float(len(reps)), "count")
    out["recovery.repair.rounds_mean"] = (
        statistics.fmean(a["rounds"] for a in reps) if reps else 0.0, "count")
    out["recovery.repair.paths_V"] = (float(sum(a["V"] for a in reps)), "count")
    out["recovery.repair.paths_H"] = (float(sum(a["H"] for a in reps)), "count")
    out["recovery.repair.recovered_frac"] = (
        sum(a["repaired"] for a in reps) / erased if erased else 0.0, "ratio")
    out["recovery.recover_vertical.us_p50"] = (
        med("recovery.recover_vertical", 1e6), "us")
    out["recovery.recover_horizontal.us_p50"] = (
        med("recovery.recover_horizontal", 1e6), "us")

    def self_total(name):
        return float(sum(own[i] for i in idxs(name)))

    out["simulate.run_simulation.self_s"] = (
        self_total("simulate.run_simulation"), "s")
    for name in ("profile_from_dict", "evaluation_set_from_profile",
                 "codeword_from_dict", "save_json"):
        out[f"serialize.{name}.ms"] = (med(f"serialize.{name}", 1e3), "ms")
    out["cli.run_table.self_s"] = (self_total("cli.run_table"), "s")
    out["cli.main.recover.self_ms"] = (
        _median([own[i] for i in idxs("cli.main.recover")], 1e3), "ms")
    for check in ("newton", "elliptic", "invariants"):
        out[f"cli.main.verify_{check}.ms"] = (
            med(f"cli.main.verify_{check}", 1e3), "ms")
    for name in ("splitting_at_infinity", "segment_polynomials"):
        out[f"newton_arc.{name}.ms"] = (med(f"newton_arc.{name}", 1e3), "ms")
    for name in ("verify_vertical_sum", "horizontal_sum_two_torsion",
                 "discriminant_profile"):
        out[f"elliptic_verify.{name}.ms"] = (
            med(f"elliptic_verify.{name}", 1e3), "ms")
    return out
