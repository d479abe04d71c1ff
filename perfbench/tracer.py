"""Span recorder and the wrappers that attach it to gbsn from outside.

``Tracer`` replaces public functions under the names their callers look
them up by (a module global such as ``classify.non_discreteness_witness``, or
a class attribute such as ``britton.GeodesicOracle.distance``), records a span
or a count at each call, and puts every original back on exit. Nothing under
``src/`` is edited.

A span is (name, start, end, parent index, job id). Spans stay in memory and
are written out once, when the run ends. A span's self time is its duration
minus the time its direct children cover; spans never overlap otherwise,
since the benchmark runs one job at a time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import gbsn.britton as britton
import gbsn.cli as cli
import gbsn.gog as gog
import gbsn.gogfile as gogfile
import gbsn.holonomy as holonomy
import gbsn.linalg as linalg
import gbsn.matgroups as matgroups
import gbsn.words as words

# gbsn/__init__.py rebinds the attribute gbsn.classify to the function of
# that name, so the module has to be fetched by its full name
classify = importlib.import_module("gbsn.classify")

# (owner, attribute, span name). Several owners may share a span name when
# one function is imported under several names.
SPANNED = (
    (cli, "run", "cli.run"),
    (gogfile, "parse", "gogfile.parse"),
    (gog, "validate", "gog.validate"),
    (holonomy, "compute_holonomy", "holonomy.compute"),
    (classify, "compute_holonomy", "holonomy.compute"),
    (classify, "non_discreteness_witness", "holonomy.witness"),
    (matgroups, "virtually_solvable", "matgroups.virtually_solvable"),
    (classify, "virtually_solvable", "matgroups.virtually_solvable"),
    (matgroups, "closure_describe", "matgroups.closure_describe"),
    (classify, "closure_describe", "matgroups.closure_describe"),
    (matgroups, "pingpong_certify", "matgroups.pingpong"),
    (classify, "coarse_density", "matgroups.coarse_density"),
    (classify, "cartan_hausdorff_samples", "matgroups.cartan_samples"),
    (classify, "whyte_classify", "classify.whyte"),
    (classify, "cv_properties", "classify.cv_properties"),
    (britton, "britton_reduce", "britton.reduce"),
    (britton, "nf_multiply", "britton.nf_multiply"),
    (britton, "distortion_profile", "britton.distortion"),
    (britton.GeodesicOracle, "distance", "britton.distance"),
)

# (owner, attribute, name): hot leaf functions, counted in name_calls and
# timed in name_s without a span each (squarefree_decompose runs ~10^5
# times in one verdicts pass).
TIMED = ((linalg, "squarefree_decompose", "linalg.squarefree"),)

# (owner, attribute, counter name): hot functions, counted but not timed.
COUNTED = (
    (matgroups, "eigen_directions", "linalg.eigen_calls"),
    (linalg, "eigen_directions", "linalg.eigen_calls"),
    (britton, "lattice_residue", "linalg.lattice_residue_calls"),
    (britton.GeodesicOracle, "__init__", "britton.oracle_builds"),
)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Recorder:
    """In-memory spans, counters and maxima of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # [name, start, end, parent, job]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.job = -1
        self.label = ""  # spec name of the current job
        self._first = 0  # index of the current job's first span
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def start_job(self, job: int, label: str) -> None:
        self.job, self.label = job, label
        self._first = len(self.spans)

    def end_job(self) -> None:
        """Close the spans of a job that the time limit interrupted."""
        now = time.perf_counter()
        for span in self.spans[self._first:]:
            if span[2] is None:
                span[2] = now
        self._stack.clear()

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict:
        """Per span name: call count, inclusive seconds (outermost spans of
        that name only, so recursion is not counted twice) and self seconds."""
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        own = self.self_times()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += own[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                rec["s"] += end - start
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


class Tracer:
    """Context manager: install the wrappers on entry, restore on exit."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list[tuple] = []

    def _replace(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def __enter__(self):
        try:
            for owner, attr, name in SPANNED:
                self._replace(owner, attr, self._spanned(owner.__dict__[attr], name))
            for owner, attr, name in TIMED:
                self._replace(owner, attr, self._timed(owner.__dict__[attr], name))
            for owner, attr, name in COUNTED:
                self._replace(owner, attr, self._counted(owner.__dict__[attr], name))
            self._replace(linalg.QMat, "__mul__", self._qmat_mul(linalg.QMat.__mul__))
            self._replace(words.Word, "single_letters", self._letters(words.Word.single_letters))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _spanned(self, fn, name):
        rec = self.rec
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            index = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(index)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def _timed(self, fn, name):
        counts, seconds = self.rec.counts, self.rec.seconds
        calls, spent = f"{name}_calls", f"{name}_s"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[spent] += time.perf_counter() - start

        return wrapper

    def _counted(self, fn, name):
        counts = self.rec.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _qmat_mul(self, fn):
        rec = self.rec

        def wrapper(a, b):
            out = fn(a, b)
            rec.counts["linalg.qmat_mul_calls"] += 1
            rec.note_max("linalg.max_entry_bits", max(_bits(x) for row in out.rows for x in row))
            return out

        return wrapper

    def _letters(self, fn):
        counts = self.rec.counts

        def wrapper(word):
            # the expansion yields len(word) letters; counting them one by
            # one would add a Python call per letter to the traced pass
            counts["words.letters_expanded"] += len(word)
            return fn(word)

        return wrapper


def _after_witness(rec, args, kwargs, result):
    length = len(result.word) if result.word is not None else result.searched_length
    rec.note_max("holonomy.witness_len", length)


def _after_nf_multiply(rec, args, kwargs, result):
    rec.counts["britton.nf_multiply_letters"] += len(args[2])


def _after_distance(rec, args, kwargs, result):
    states = len(args[0].dist)
    rec.note_max("britton.forward_ball_states", states)
    rec.note_max(f"britton.ball_states_{rec.label}", states)


_AFTER = {
    "holonomy.witness": _after_witness,
    "britton.nf_multiply": _after_nf_multiply,
    "britton.distance": _after_distance,
}
