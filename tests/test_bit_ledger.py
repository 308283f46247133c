"""A bit ledger: the exact output of six physics entries on a seeded corpus.

The entries are ``amplitudes``, ``observables_at``, ``truncated_amplitudes``
(n = 3), ``dressed_coefficients``, ``optimal_concurrence`` and
``solve_amplitudes_numeric``.  Each runs on every point of a corpus per
model.  One line per point holds the ``repr`` of the answer, or the type,
message and ``.point`` of the error.  ``data/bit_ledger.json`` pins the
sha256 of each block of 100 lines, with three of its lines in full so that a
mismatch can be located.

The corpus is built with ``random.Random`` alone, so a bare interpreter
builds the same one: 200 points in each of three regimes per model.
- uniform: opacities uniform on [0, 20], phases uniform on [0, pi);
- wide: opacities log-uniform on [1e-8, 1e12], phases as in uniform;
- near: opacities as in wide, phases within 1e-15..1e-1 of 0 and of pi,
  on either side (those below 0 or above pi fold).

Points and stacks are separate paths, pinned separately.
- Point form: each point alone.  Every entry but ``solve_amplitudes_numeric``
  is pure Python there, and its blocks are pinned exactly everywhere.
- Stack form: the block as one stacked point, then the points that answer
  alone as one stack; the first line is what the whole block raises, if
  anything.  ``optimal_concurrence`` takes no stack.

Stack blocks and the oracle's point blocks run through numpy.  Their bits
are pinned under the numpy version, machine and CPU dispatch targets that
froze them (``stack_environment`` in the ledger).  Under any other, each
stack cell is compared with the point form of the same cell, and each oracle
point with the closed form, within the relative bounds below; an error must
be of the same type at the same point.

A refactor leaves the ledger as it is.  A change that moves bits on purpose
re-freezes it and names each block that changed:

    PYTHONPATH=src python tests/test_bit_ledger.py --freeze

As a script, on an interpreter without numpy or pytest, it checks the
corpus and the numpy-free point blocks:

    PYTHONPATH=src python3.13 tests/test_bit_ledger.py
"""

import cmath
import functools
import hashlib
import json
import math
import platform
import random
import sys
import warnings
from pathlib import Path

from entscat import (
    DimensionlessPoint,
    ModelKind,
    amplitudes,
    dressed_coefficients,
    observables_at,
    optimal_concurrence,
    truncated_amplitudes,
)

LEDGER = Path(__file__).parent / "data" / "bit_ledger.json"
MODELS = {model.value: model for model in ModelKind}
REGIMES = ("uniform", "wide", "near")
POINTS, BLOCK = 200, 100  # per regime, per block
SAMPLED = (0, BLOCK // 2, BLOCK - 1)  # the cells of a block kept in full
ORACLE = "solve_amplitudes_numeric"


def _oracle(pt):
    from entscat import solve_amplitudes_numeric  # loads numpy

    return solve_amplitudes_numeric(pt)


ENTRIES = {
    "amplitudes": amplitudes,
    "observables_at": observables_at,
    "truncated_amplitudes": lambda pt: truncated_amplitudes(pt, 3),
    "dressed_coefficients": dressed_coefficients,
    "optimal_concurrence": lambda pt: optimal_concurrence(pt.omega_a, pt.omega_b),
    ORACLE: _oracle,
}
STACKED = [name for name in ENTRIES if name != "optimal_concurrence"]

# The largest gap, by :func:`_gap`, that a numpy other than the freezing one
# may show per regime: between a stack cell and the same point alone, and
# between the oracle and the closed form at a point.  Each is the power of ten
# at or above ten times the largest gap measured at freezing (``measured_gaps``
# in the ledger); the near regime's stack bound is set by ``observables_at``.
STACK_BOUND = {"uniform": 1e-13, "wide": 1e-13, "near": 1e-4}
ORACLE_BOUND = {"uniform": 1e-13, "wide": 1e-13, "near": 1e-11}


@functools.cache
def corpus(model: str) -> dict:
    """Regime -> the list of (omega_a, omega_b, phase) of ``model``'s corpus."""
    rng = random.Random(2026 + list(MODELS).index(model))
    out = {}
    for regime in REGIMES:
        points = []
        for _ in range(POINTS):
            if regime == "uniform":
                omegas = rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)
            else:
                omegas = 10.0 ** rng.uniform(-8.0, 12.0), 10.0 ** rng.uniform(-8.0, 12.0)
            if regime == "near":
                phase = rng.choice((0.0, math.pi)) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, -1.0)
            else:
                phase = rng.uniform(0.0, math.pi)
            points.append((*omegas, phase))
        out[regime] = points
    return out


def corpus_digest(model: str) -> str:
    return hashlib.sha256(repr(corpus(model)).encode()).hexdigest()


def _call(entry, pt):
    """``entry(pt)`` with every warning an error, or the exception it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ENTRIES[entry](pt)
    except Exception as exc:
        return exc


def _line(answer) -> str:
    """``repr`` of an answer; the type, message and ``.point`` of an error."""
    if isinstance(answer, Exception):
        return f"{type(answer).__name__}: {answer} at {getattr(answer, 'point', None)!r}"
    return repr(answer)


@functools.cache
def point_answers(entry: str, model: str, regime: str) -> list:
    """The answer, or the error, of ``entry`` at each point of a regime alone."""
    return [_call(entry, DimensionlessPoint(*values, MODELS[model])) for values in corpus(model)[regime]]


def _stack(values: list, model: str):
    import numpy as np

    return DimensionlessPoint(*np.array(values).T, MODELS[model])


def _cells(answer, n: int) -> list:
    """The ``n`` cells of a stack's answer, each a record of Python numbers."""
    import numpy as np

    make = getattr(type(answer), "_make", tuple)
    return [make(cell) for cell in zip(*(np.broadcast_to(x, (n,)).tolist() for x in answer))]


@functools.cache
def stack_answers(entry: str, model: str, regime: str, block: int) -> tuple:
    """(what the whole block raises or None, the answer per cell or None):
    the block as one stack, then its cells that answer alone as one stack."""
    cut = slice(block * BLOCK, (block + 1) * BLOCK)
    values = corpus(model)[regime][cut]
    whole = _call(entry, _stack(values, model))
    if not isinstance(whole, Exception):
        return None, _cells(whole, len(values))
    keep = [i for i, a in enumerate(point_answers(entry, model, regime)[cut]) if not isinstance(a, Exception)]
    cells = [None] * len(values)
    if keep:
        some = _call(entry, _stack([values[i] for i in keep], model))
        if isinstance(some, Exception):  # a cell that answers alone fails in a stack
            return whole, [some] * len(values)
        for i, cell in zip(keep, _cells(some, len(keep))):
            cells[i] = cell
    return whole, cells


def block_lines(key: str) -> dict:
    """Line per cell of block ``key``, keyed by its index in the block; a
    stack block leads with "stack", what the whole block raised ("answers"
    if nothing), and has "-" where a cell raises alone."""
    entry, model, regime, block, form = key.split()
    block = int(block)
    if form == "point":
        answers = point_answers(entry, model, regime)[block * BLOCK : (block + 1) * BLOCK]
        return {str(i): _line(a) for i, a in enumerate(answers)}
    whole, cells = stack_answers(entry, model, regime, block)
    lines = {"stack": "answers" if whole is None else _line(whole)}
    return lines | {str(i): "-" if cell is None else _line(cell) for i, cell in enumerate(cells)}


def digest(lines: dict) -> str:
    return hashlib.sha256("\n".join(lines.values()).encode()).hexdigest()


def block_keys(entries, forms):
    """Ledger key "entry model regime block form" of each block of ``entries`` in ``forms``."""
    for entry in entries:
        for form in forms:
            if form == "stack" and entry not in STACKED:
                continue
            for model in MODELS:
                for regime in REGIMES:
                    for block in range(POINTS // BLOCK):
                        yield f"{entry} {model} {regime} {block} {form}"


def stack_environment() -> str:
    """numpy's version, the machine and the CPU targets numpy dispatches to here."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in getattr(umath, "__cpu_dispatch__", ()) if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} on {platform.machine()}, dispatching to {' '.join(targets) or 'baseline only'}"


@functools.cache
def ledger() -> dict:
    return json.loads(LEDGER.read_text("utf-8"))


def mismatch(key: str) -> str:
    """'' if block ``key`` has its pinned digest, else where its sampled lines differ."""
    pinned, lines = ledger()["blocks"][key], block_lines(key)
    if digest(lines) == pinned["sha256"]:
        return ""
    moved = [f"  cell {i}:\n    pinned {line}\n    now    {lines[i]}" for i, line in pinned["lines"].items() if lines[i] != line]
    return f"{key}: digest moved\n" + ("\n".join(moved) or "  (no sampled line moved; diff a --freeze of both trees)")


def _gap(a, b) -> float:
    """The largest difference between the fields of two answers at one
    point, relative to their largest finite field; None and NaN are both
    undefined, and inf where a field is finite in one answer only."""
    pairs = [tuple(math.nan if v is None else v for v in pair) for pair in zip(a, b)]
    if any(cmath.isfinite(x) != cmath.isfinite(y) for x, y in pairs):
        return math.inf
    finite = [(x, y) for x, y in pairs if cmath.isfinite(x)]
    scale = max((max(abs(x), abs(y)) for x, y in finite), default=0.0)
    return max((abs(x - y) for x, y in finite), default=0.0) / scale if scale else 0.0


def _versus(a, b) -> float:
    """The gap between two outcomes at one point: :func:`_gap` of two
    answers, 0 for errors of one type at one point, inf otherwise."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        same = type(a) is type(b) and repr(getattr(a, "point", None)) == repr(getattr(b, "point", None))
        return 0.0 if same else math.inf
    return _gap(a, b)


def gaps(key: str) -> list:
    """(cell, gap) of each cell of block ``key`` against its reference, by
    :func:`_versus`.  A stack cell is held to the same point alone, and the
    block's "stack" line to the first error among its points alone.  An
    oracle point is held to the closed form where it answers; where it
    raises, it must be a NumericError carrying its point."""
    entry, model, regime, block, form = key.split()
    cut = slice(int(block) * BLOCK, (int(block) + 1) * BLOCK)
    alone = point_answers(entry, model, regime)[cut]
    if form == "point":  # the oracle
        closed = point_answers("amplitudes", model, regime)[cut]
        out = []
        for i, (a, b) in enumerate(zip(alone, closed)):
            if isinstance(a, Exception):
                out.append((str(i), 0.0 if getattr(a, "point", None) is not None else math.inf))
            else:
                out.append((str(i), _versus(a, b)))
        return out
    whole, cells = stack_answers(entry, model, regime, int(block))
    first = next((a for a in alone if isinstance(a, Exception)), None)
    out = [("stack", 0.0 if whole is None and first is None else _versus(whole, first))]
    return out + [(str(i), 0.0 if cell is None else _versus(cell, a)) for i, (cell, a) in enumerate(zip(cells, alone))]


def freeze() -> None:
    """Write the ledger from this tree, with the largest gaps measured here."""
    keys = list(block_keys(ENTRIES, ("point", "stack")))
    blocks = {}
    for key in keys:
        lines = block_lines(key)
        sampled = {k: lines[k] for k in ("stack", *map(str, SAMPLED)) if k in lines}
        blocks[key] = {"sha256": digest(lines), "lines": sampled}
    measured = {"stack": {}, "oracle": {}}
    for key in keys:
        entry, _, regime, _, form = key.split()
        if form == "stack" or entry == ORACLE:
            which = "stack" if form == "stack" else "oracle"
            worst = max((gap for _, gap in gaps(key)), default=0.0)
            measured[which][regime] = max(measured[which].get(regime, 0.0), worst)
    for which, bounds in (("stack", STACK_BOUND), ("oracle", ORACLE_BOUND)):
        for regime, worst in measured[which].items():
            assert worst <= bounds[regime], f"{which} gap {worst:.3e} in {regime} exceeds its bound {bounds[regime]:.0e}"
    old = json.loads(LEDGER.read_text("utf-8"))["blocks"] if LEDGER.exists() else {}
    for key in keys:
        if key in old and old[key]["sha256"] != blocks[key]["sha256"]:
            print("re-frozen:", key)
    document = {
        "corpus": {model: corpus_digest(model) for model in MODELS},
        "stack_environment": stack_environment(),
        "measured_gaps": measured,
        "blocks": blocks,
    }
    LEDGER.write_text(json.dumps(document, indent=1) + "\n", "utf-8")


# ---- tests --------------------------------------------------------------------


def test_the_corpus_is_the_frozen_one():
    for model in MODELS:
        assert corpus_digest(model) == ledger()["corpus"][model], f"the {model} corpus differs (libm's pow?)"


def _check_exact(keys) -> None:
    failures = [text for text in map(mismatch, keys) if text]
    assert not failures, "\n".join(failures)


def _check_gaps(keys) -> None:
    failures = []
    for key in keys:
        _, _, regime, _, form = key.split()
        bound = (STACK_BOUND if form == "stack" else ORACLE_BOUND)[regime]
        failures += [f"{key} cell {where}: gap {gap:.3e} > {bound:.0e}" for where, gap in gaps(key) if not gap <= bound]
    assert not failures, "\n".join(failures)


def _pinned_here() -> bool:
    return stack_environment() == ledger()["stack_environment"]


def test_numpy_free_point_blocks_are_pinned():
    _check_exact(block_keys([e for e in ENTRIES if e != ORACLE], ("point",)))


def test_oracle_point_blocks_are_pinned_or_near_the_closed_form():
    keys = list(block_keys([ORACLE], ("point",)))
    _check_exact(keys) if _pinned_here() else _check_gaps(keys)


def test_stack_blocks_are_pinned_or_near_the_point_form():
    keys = list(block_keys(STACKED, ("stack",)))
    _check_exact(keys) if _pinned_here() else _check_gaps(keys)


if __name__ == "__main__":
    if sys.argv[1:] == ["--freeze"]:
        freeze()
    else:
        had_numpy = "numpy" in sys.modules
        test_the_corpus_is_the_frozen_one()
        test_numpy_free_point_blocks_are_pinned()
        assert had_numpy or "numpy" not in sys.modules, "the numpy-free point forms loaded numpy"
        print(f"ok: the corpus and {len(list(block_keys([e for e in ENTRIES if e != ORACLE], ('point',))))} numpy-free point blocks")
