"""Spans around symknot's public functions, kept in memory for the traced run.

The tracer replaces each public function at the module attribute where its
callers look it up (``cli.kh_homology``, ``obstruction.kh_homology``,
``khovanov.build_cube``, ``polynomials.kauffman_bracket``, ...), so a call the
package makes from inside another traced call becomes a child span.  A span
records name, start, end and parent; one run id covers the whole run.  Spans
are written out only by ``dump``, at the end of the run.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections import Counter, defaultdict
from contextlib import contextmanager

from symknot import cli, khovanov, obstruction, polynomials

# public function -> span name
SPAN_NAMES = {
    "cmd_invariants": "cli.invariants",
    "kh_homology": "khovanov.kh_homology",
    "build_cube": "khovanov.cube",
    "kauffman_bracket": "polynomials.bracket",
    "jones": "polynomials.jones",
    "jones_normalized": "polynomials.jones_normalized",
    "alexander": "polynomials.alexander",
    "determinant_alexander": "polynomials.determinant_alexander",
    "determinant_goeritz": "goeritz.determinant",
    "h1_branched_cover": "goeritz.h1",
    "ccc_verdict": "obstruction.ccc_verdict",
    "kn_template": "fixtures.kn_template",
}

# every module attribute through which the package calls a traced function;
# polynomials.jones stays bare so jones_normalized is one span, not two
PACKAGE_SITES = (
    (cli, ("cmd_invariants", "kh_homology", "jones", "jones_normalized", "alexander",
           "determinant_alexander", "determinant_goeritz", "h1_branched_cover",
           "ccc_verdict", "kn_template")),
    (obstruction, ("kh_homology", "kn_template", "h1_branched_cover",
                   "determinant_goeritz", "determinant_alexander")),
    (khovanov, ("build_cube",)),
    (polynomials, ("kauffman_bracket",)),
)

FIELDS = ("q", "f2")


class Tracer:
    """Installs span wrappers on construction; ``restore`` puts the originals back.

    Wrappers record only while ``active`` is set, so the untimed work of a
    traced run (input building, replays, checks) leaves no spans.
    """

    def __init__(self, api):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns, pass]
        self.kh_calls: list[list] = []  # [pass, field, diagram] per kh_homology span
        self.active = False
        self.pass_no = 0
        self._stack: list[int] = []
        self._undo: list = []
        sites = PACKAGE_SITES + ((api, tuple(n for n in vars(api) if n in SPAN_NAMES)),)
        for owner, names in sites:
            for name in names:
                fn = getattr(owner, name)
                self._undo.append(lambda o=owner, n=name, f=fn: setattr(o, n, f))
                setattr(owner, name, self._wrap(fn, SPAN_NAMES[name]))
        # the parser resolves --symun through this table, not through cli.kn_template
        fn = cli.TEMPLATES["5_2"]
        self._undo.append(lambda f=fn: cli.TEMPLATES.__setitem__("5_2", f))
        cli.TEMPLATES["5_2"] = self._wrap(fn, SPAN_NAMES["kn_template"])

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1] if self._stack else None, name,
                           time.perf_counter_ns(), None, self.pass_no])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][4] = time.perf_counter_ns()

    def _wrap(self, fn, name: str):
        is_kh = name == SPAN_NAMES["kh_homology"]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if is_kh:
                field = str(args[1] if len(args) > 1 else kwargs.get("field", "Q")).lower()
                label = f"{name}.{field}"
                self.kh_calls.append([self.pass_no, field, args[0]])
            with self.span(label):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, header: dict) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "pass")
        doc = dict(header, run_id=self.run_id,
                   spans=[dict(zip(keys, s)) for s in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def _q_values(cube, d) -> list[int]:
    """Every quantum grading kh_homology computes a slice for."""
    shift = d.n_plus - 2 * d.n_minus
    qs: set[int] = set()
    for v in range(cube.n_vertices):
        k = cube.circle_count(v)
        base = v.bit_count() + shift
        qs.update(range(base - k, base + k + 1, 2))
    return sorted(qs)


def replay_complexes(kh_calls: list[list]) -> dict:
    """Rebuild the chain complexes of one pass's kh_homology calls via slice_complex.

    Each distinct (diagram, field) is replayed once, every q-slice on one
    freshly built cube that ``slice_complex`` is handed instead of rebuilding
    it, so the time is generators plus differential assembly only.  Times and
    sizes are counted once per kh_homology call that built that complex.
    """
    groups: dict[tuple, list] = {}
    for _, field, d in kh_calls:
        groups.setdefault((field, id(d)), [d, 0])[1] += 1
    out = {"seconds": dict.fromkeys(FIELDS, 0.0), "generators": 0, "nonzeros": 0,
           "max_slice_generators": 0}
    saved = khovanov.build_cube
    try:
        for (field, _), (d, calls) in groups.items():
            cube = saved(d)
            khovanov.build_cube = lambda *args, **kwargs: cube
            seconds = 0.0
            for q in _q_values(cube, d):
                t0 = time.perf_counter()
                gens, diffs = khovanov.slice_complex(d, q, field)
                seconds += time.perf_counter() - t0
                size = sum(len(g) for g in gens.values())
                out["generators"] += size * calls
                out["nonzeros"] += calls * sum(
                    len(rows) for cols in diffs.values() for rows in cols.values())
                out["max_slice_generators"] = max(out["max_slice_generators"], size)
            out["seconds"][field] += seconds * calls
    finally:
        khovanov.build_cube = saved
    return out


def layer_metrics(spans: list[list], replay: dict) -> dict:
    """Per-layer numbers of one traced pass; self time = duration - children."""
    name_of = {s[0]: s[2] for s in spans}
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    cube_in = dict.fromkeys(FIELDS, 0.0)
    for sid, parent, name, start, end, _ in spans:
        dur = (end - start) / 1e9
        total[name] += dur
        self_s[name] += dur
        calls[name] += 1
        if parent is not None:
            self_s[name_of[parent]] -= dur
            if name == "khovanov.cube":
                for f in FIELDS:
                    if name_of[parent] == f"khovanov.kh_homology.{f}":
                        cube_in[f] += dur
    m: dict[str, float] = {}
    for f in FIELDS:
        kh = f"khovanov.kh_homology.{f}"
        m[f"{kh}.s"] = total[kh]
        m[f"{kh}.calls"] = calls[kh]
        m[f"khovanov.complex.{f}.s"] = replay["seconds"][f]
        m[f"khovanov.reduce.{f}.s"] = total[kh] - cube_in[f] - replay["seconds"][f]
    m["khovanov.cube.s"] = total["khovanov.cube"]
    for key in ("generators", "nonzeros", "max_slice_generators"):
        m[f"khovanov.{key}"] = replay[key]
    m["polynomials.jones.s"] = total["polynomials.jones"] + total["polynomials.jones_normalized"]
    m["polynomials.bracket.calls"] = calls["polynomials.bracket"]
    m["polynomials.alexander.s"] = total["polynomials.alexander"]
    m["polynomials.determinant_alexander.s"] = total["polynomials.determinant_alexander"]
    m["goeritz.h1.s"] = total["goeritz.h1"]
    m["goeritz.determinant.s"] = total["goeritz.determinant"]
    m["obstruction.ccc_verdict.self_s"] = self_s["obstruction.ccc_verdict"]
    m["fixtures.kn_template.s"] = total["fixtures.kn_template"]
    m["cli.invariants.self_s"] = self_s["cli.invariants"]
    return m
