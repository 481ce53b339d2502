"""Randomized local-search baseline for classical 2-SAT.

Start from a uniformly random assignment; while some clause is unsatisfied,
pick one such clause uniformly, pick one of its two literals uniformly, and
flip that bit. With an iteration budget of b*n^2 the walk finds a satisfying
assignment of a satisfiable instance with probability 1 - O(1/b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densesim
from .errors import DimensionMismatch, ParseError


@dataclass(frozen=True, eq=False)
class CnfInstance:
    """n boolean variables and 2-literal clauses (variable index, negated flag).

    n and each variable index must be integers (numpy integers too, bools not,
    `densesim._is_integer`): DimensionMismatch for n, ParseError naming the clause
    for an index."""

    n: int
    clauses: tuple

    def __post_init__(self):
        if not densesim._is_integer(self.n):
            raise DimensionMismatch(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DimensionMismatch(f"need n >= 1, got {self.n}")
        clauses = tuple(tuple(clause) for clause in self.clauses)
        for k, clause in enumerate(clauses):
            if len(clause) != 2:
                raise ParseError(f"clause {k} has {len(clause)} literals, expected 2")
            for v, _ in clause:
                if not densesim._is_integer(v):
                    raise ParseError(f"clause {k} uses variable {v!r}, which is not an integer")
                if not 0 <= v < self.n:
                    raise ParseError(f"clause {k} uses variable {v}, outside [0, {self.n})")
        object.__setattr__(self, "clauses", tuple(tuple((int(v), bool(neg)) for v, neg in c) for c in clauses))

    @property
    def L(self) -> int:
        return len(self.clauses)


def check_cnf(assignment, inst: CnfInstance) -> bool:
    """True iff every clause has a true literal under the assignment."""
    assignment = np.asarray(assignment, dtype=bool)
    if assignment.shape != (inst.n,):
        raise DimensionMismatch(
            f"assignment has shape {assignment.shape}, expected ({inst.n},)"
        )
    return all(
        any(bool(assignment[v]) != neg for v, neg in clause) for clause in inst.clauses
    )


def papadimitriou(inst: CnfInstance, b: float, seed) -> np.ndarray | None:
    """Random-walk search with an iteration budget of ceil(b * n^2) flips.

    Returns the first satisfying assignment encountered (verified before
    returning), or None if the budget runs out. An unsatisfiable instance
    always returns None.
    """
    n = inst.n
    if not (b > 0 and math.isfinite(b * n * n)):
        raise DimensionMismatch(f"budget multiplier b must be positive with b * n^2 finite, got {b}")
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, 2, size=n).astype(bool)
    if not inst.clauses:
        return assignment
    variables = np.array([[v for v, _ in clause] for clause in inst.clauses])
    negations = np.array([[neg for _, neg in clause] for clause in inst.clauses])
    occurrences = [[] for _ in range(n)]     # the clauses each variable appears in, once each
    for k, clause in enumerate(inst.clauses):
        for v in {v for v, _ in clause}:
            occurrences[v].append(k)
    occurrences = [(occ, variables[occ], negations[occ])
                   for occ in (np.array(o, dtype=np.intp) for o in occurrences)]
    unsatisfied = (assignment[variables] == negations).all(axis=1)   # every literal false
    budget = math.ceil(b * n * n)
    for _ in range(budget):
        unsat = unsatisfied.nonzero()[0]                                  # ascending
        if unsat.size == 0:
            assert check_cnf(assignment, inst)
            return assignment
        clause_idx = unsat[int(rng.integers(unsat.size))]
        flip_var = variables[clause_idx, int(rng.integers(2))]
        assignment[flip_var] = not assignment[flip_var]
        occ, occ_vars, occ_negs = occurrences[flip_var]
        unsatisfied[occ] = (assignment[occ_vars] == occ_negs).all(axis=1)
    if not unsatisfied.any():
        assert check_cnf(assignment, inst)
        return assignment
    return None


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF text restricted to 2-literal clauses."""
    n = None
    declared = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(t.isdecimal() for t in parts[2:]):
                raise ParseError("malformed problem line", line=lineno)
            n, declared = int(parts[2]), int(parts[3])
            continue
        if n is None:
            raise ParseError("clause before problem line", line=lineno)
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError("non-integer literal", line=lineno)
        if not literals or literals[-1] != 0:
            raise ParseError("clause line must end with 0", line=lineno)
        literals = literals[:-1]
        if len(literals) != 2:
            raise ParseError(f"expected 2 literals, got {len(literals)}", line=lineno)
        clause = tuple((abs(lit) - 1, lit < 0) for lit in literals)
        clauses.append(clause)
    if n is None:
        raise ParseError("missing problem line", field="p cnf")
    if declared is not None and declared != len(clauses):
        raise ParseError(f"problem line declares {declared} clauses, found {len(clauses)}")
    return CnfInstance(n=n, clauses=tuple(clauses))


def assignment_string(assignment) -> str:
    return "".join("1" if bit else "0" for bit in assignment)
