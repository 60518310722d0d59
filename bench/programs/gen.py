"""Seeded generator of total, terminating integer Lisp programs.

A frozen copy of the generator in ``repro.fuzz``: the benchmark owns its
inputs, so a later change to the fuzzer (a partial-program mode, a new
operator) cannot silently change the corpus a baseline was measured on.
The program under test only ever receives the generated text.

Every program terminates (loop counts are literal, no recursion), is total
(no division, no car/cdr of atoms, no unbound variables) and deterministic,
so the reference interpreter's answer is the expected output.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple

_UNARY_OPS = ("1+", "1-", "abs", "zerop", "not")
_BINARY_OPS = ("+", "-", "*", "max", "min")
_COMPARE_OPS = ("<", ">", "=", "<=", ">=")


def _gen_expr(rng: random.Random, env: Sequence[str], depth: int) -> str:
    """One pure integer-valued expression over the variables in *env*."""
    if depth <= 0 or rng.random() < 0.25:
        if env and rng.random() < 0.6:
            return rng.choice(list(env))
        return str(rng.randint(-30, 30))
    choice = rng.random()
    if choice < 0.30:
        op = rng.choice(_BINARY_OPS)
        return (f"({op} {_gen_expr(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)})")
    if choice < 0.45:
        op = rng.choice(_UNARY_OPS)
        inner = _gen_expr(rng, env, depth - 1)
        if op in ("zerop", "not"):
            return f"(if ({op} {inner}) 1 0)"
        return f"({op} {inner})"
    if choice < 0.70:
        return (f"(if {_gen_test(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)} "
                f"{_gen_expr(rng, env, depth - 1)})")
    if choice < 0.85:
        var = f"v{rng.randint(0, 99)}"
        value = _gen_expr(rng, env, depth - 1)
        body = _gen_expr(rng, list(env) + [var], depth - 1)
        return f"(let (({var} {value})) {body})"
    var = f"s{rng.randint(0, 99)}"
    init = _gen_expr(rng, env, depth - 1)
    update = _gen_expr(rng, list(env) + [var], depth - 1)
    body = _gen_expr(rng, list(env) + [var], depth - 1)
    return f"(let (({var} {init})) (progn (setq {var} {update}) {body}))"


def _gen_test(rng: random.Random, env: Sequence[str], depth: int) -> str:
    op = rng.choice(_COMPARE_OPS)
    return (f"({op} {_gen_expr(rng, env, depth)} "
            f"{_gen_expr(rng, env, depth)})")


def generate_function(rng: random.Random, name: str,
                      max_depth: int) -> Tuple[str, List[int]]:
    """One ``(defun name (args...) body)`` plus argument values for a call."""
    n_args = rng.randint(1, 3)
    params = [f"a{i}" for i in range(n_args)]
    body = _gen_expr(rng, params, rng.randint(2, max_depth))
    source = f"(defun {name} ({' '.join(params)}) {body})"
    args = [rng.randint(-20, 20) for _ in params]
    return source, args


def generate_program(rng: random.Random, n_functions: int,
                     max_depth: int) -> Tuple[str, List[str], List[int]]:
    """``(source, defined names, entry args)``; the entry function is the
    first one, ``f``; the others are compiled but not called."""
    names = ["f"] + [f"aux{i}" for i in range(1, n_functions)]
    sources = []
    entry_args: List[int] = []
    for name in names:
        source, args = generate_function(rng, name, max_depth)
        sources.append(source)
        if name == "f":
            entry_args = args
    return "\n".join(sources), names, entry_args


class SizeStrata:
    """Programs of one shape drawn by size stratum.

    Compile time grows with program size, which varies tenfold between
    draws.  The sizes of 1000 draws of a fixed seed are cut into *strata*
    groups of equal count, and draw *i* is taken from group *i* mod
    ``len(self.edges) + 1``, so any that many consecutive draws hold one
    program of each: seeds differ in which programs they hold, not in how
    large they are.  Size is the number of parentheses."""

    def __init__(self, n_functions: int, max_depth: int, strata: int):
        self.shape = (n_functions, max_depth)
        ordered = sorted(self._size(self.any(random.Random(f"strata/{i}")))
                         for i in range(1000))
        cuts = {ordered[len(ordered) * i // strata] for i in range(1, strata)}
        # Sizes are whole numbers, so cuts can coincide.  Each group keeps
        # at least one sampled size: its upper edge, or the largest size.
        self.edges = sorted(cut for cut in cuts if cut < ordered[-1])

    @staticmethod
    def _size(program) -> int:
        return program[0].count("(")

    def any(self, rng: random.Random):
        """One program of this shape, whatever its size."""
        return generate_program(rng, *self.shape)

    def draw(self, rng: random.Random, index: int):
        group = index % (len(self.edges) + 1)
        while True:
            program = self.any(rng)
            if bisect.bisect_left(self.edges, self._size(program)) == group:
                return program
