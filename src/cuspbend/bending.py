"""Bending and iterated bending of marked representations.

A marked representation sends named generators to projective maps.  A
bending move carries a decomposition of the generating set -- two sides of
an amalgam, or a base plus stable letter for an HNN extension -- together
with an element centralizing the image of the edge subgroup.  Bending
conjugates one amalgam side by the centralizer, or left-multiplies the
stable letter; the centralizing condition is what makes the result
well-defined on the whole group.

Iterated bending applies several moves whose centralizers pairwise commute;
commutativity makes the outcome independent of the order of the moves, and
this module refuses move lists that do not satisfy the hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    compose,
    inverse,
    matrix_from_json,
    matrix_to_json,
    proj_equiv,
)


class RelatorViolation(ValueError):
    """A relator word does not evaluate to the identity."""


class CentralizerCheckFailed(ValueError):
    """The proposed centralizer does not commute with the edge subgroup image."""


class NonCommutingMoves(ValueError):
    """Iterated bending requires pairwise commuting centralizing elements."""


Word = tuple[tuple[str, int], ...]


def parse_word(tokens: Sequence) -> Word:
    """Words are sequences like ["a", "b^-1"]; pairs (name, exp) also accepted."""
    out = []
    for tok in tokens:
        if isinstance(tok, str):
            if "^" in tok:
                name, _, exp = tok.partition("^")
                out.append((name, int(exp)))
            else:
                out.append((tok, 1))
        else:
            name, exp = tok
            out.append((str(name), int(exp)))
    return tuple(out)


def word_to_json(word: Word) -> list:
    return [name if exp == 1 else f"{name}^{exp}" for name, exp in word]


@dataclass(frozen=True)
class MarkedRep:
    """Finite generating set of named projective maps, with optional relators
    (checked projectively on construction when supplied)."""

    n: int
    generators: dict
    relators: tuple = ()
    tol: float = DEFAULT_TOL

    def __init__(self, n: int, generators: dict, relators=None,
                 tol: float = DEFAULT_TOL, check: bool = True):
        gens = dict(generators)
        for name, g in gens.items():
            if not isinstance(g, ProjMap):
                raise TypeError(f"generator {name!r} is not a ProjMap")
            if g.n != n:
                raise ValueError(f"generator {name!r} has dimension {g.n}, expected {n}")
        rels = tuple(parse_word(w) for w in (relators or ()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)
        object.__setattr__(self, "tol", tol)
        # generator name -> inverse, filled on first use; valid for the
        # instance's lifetime, as the generators never change
        object.__setattr__(self, "_inverses", {})
        if check:
            self.check_relators()

    def names(self) -> list[str]:
        return list(self.generators)

    def evaluate(self, word) -> ProjMap:
        """Image of a word in the generators."""
        word = parse_word(word)
        result = ProjMap.identity(self.n, exact=self._exact())
        for name, exp in word:
            if name not in self.generators:
                raise KeyError(f"unknown generator {name!r}")
            if exp < 0:
                g = self._inverse(name)
                exp = -exp
            else:
                g = self.generators[name]
            for _ in range(exp):
                result = compose(result, g)
        return result

    def _inverse(self, name: str) -> ProjMap:
        inv = self._inverses.get(name)
        if inv is None:
            inv = self._inverses[name] = inverse(self.generators[name])
        return inv

    def _exact(self) -> bool:
        return all(g.exact for g in self.generators.values())

    def check_relators(self) -> None:
        ident = ProjMap.identity(self.n, exact=self._exact())
        for word in self.relators:
            img = self.evaluate(word)
            if not proj_equiv(img, ident, self.tol):
                raise RelatorViolation(
                    f"relator {word_to_json(word)} does not map to the identity")

    def with_generators(self, generators: dict) -> "MarkedRep":
        return MarkedRep(self.n, generators, self.relators, self.tol)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": {name: matrix_to_json(g) for name, g in self.generators.items()},
            "relators": [word_to_json(w) for w in self.relators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedRep":
        gens = {name: matrix_from_json(rows) for name, rows in data["generators"].items()}
        return cls(int(data["n"]), gens, data.get("relators"))


@dataclass(frozen=True)
class Decomposition:
    """Amalgam: generator names split into side1/side2, with the edge
    subgroup given as a word list for the centralizing check.  HNN: base
    names plus a stable letter (excluded from the base)."""

    kind: str
    side1: tuple = ()
    side2: tuple = ()
    base: tuple = ()
    stable: Optional[str] = None
    edge_words: tuple = ()

    def __post_init__(self):
        if self.kind not in ("amalgam", "hnn"):
            raise ValueError(f"unknown decomposition kind {self.kind!r}")
        object.__setattr__(self, "side1", tuple(self.side1))
        object.__setattr__(self, "side2", tuple(self.side2))
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(self, "edge_words", tuple(parse_word(w) for w in self.edge_words))
        if self.kind == "amalgam":
            overlap = set(self.side1) & set(self.side2)
            if overlap:
                raise ValueError(f"generators on both sides: {sorted(overlap)}")
        else:
            if self.stable is None:
                raise ValueError("hnn decomposition needs a stable letter")
            if self.stable in self.base:
                raise ValueError("stable letter must be excluded from the base")

    def validate_names(self, rep: MarkedRep) -> None:
        names = set(rep.names())
        if self.kind == "amalgam":
            listed = set(self.side1) | set(self.side2)
        else:
            listed = set(self.base) | {self.stable}
        if listed != names:
            raise ValueError(
                f"decomposition names {sorted(listed)} do not cover the "
                f"generators {sorted(names)} exactly once")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "edge_words": [word_to_json(w) for w in self.edge_words]}
        if self.kind == "amalgam":
            out["side1"] = list(self.side1)
            out["side2"] = list(self.side2)
        else:
            out["base"] = list(self.base)
            out["stable"] = self.stable
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Decomposition":
        return cls(kind=data["kind"],
                   side1=data.get("side1", ()),
                   side2=data.get("side2", ()),
                   base=data.get("base", ()),
                   stable=data.get("stable"),
                   edge_words=data.get("edge_words", ()))


@dataclass(frozen=True)
class BendingMove:
    decomposition: Decomposition
    centralizer: ProjMap

    def to_json(self) -> dict:
        out = self.decomposition.to_json()
        out["centralizer"] = matrix_to_json(self.centralizer)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BendingMove":
        return cls(Decomposition.from_json(data), matrix_from_json(data["centralizer"]))


def commute_check(c: ProjMap, d: ProjMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff cd = dc projectively."""
    if c.n != d.n:
        raise ValueError(f"dimension mismatch: {c.n} vs {d.n}")
    return proj_equiv(compose(c, d), compose(d, c), tol)


def centralizes_check(c: ProjMap, subgroup_words, rep: MarkedRep,
                      tol: float = DEFAULT_TOL) -> bool:
    """True iff c commutes with the image of every listed word."""
    for word in subgroup_words:
        if not commute_check(c, rep.evaluate(word), tol):
            return False
    return True


def bend(rep: MarkedRep, move: BendingMove, tol: float = DEFAULT_TOL) -> MarkedRep:
    """One bending move: conjugate the second amalgam side by the
    centralizer, or left-multiply the stable letter.  Relators carried by
    the representation are re-checked on the result."""
    dec = move.decomposition
    dec.validate_names(rep)
    c = move.centralizer
    if c.n != rep.n:
        raise ValueError(f"centralizer dimension {c.n} != representation dimension {rep.n}")
    if not centralizes_check(c, dec.edge_words, rep, tol):
        raise CentralizerCheckFailed(
            "centralizer does not commute with the edge subgroup image")
    gens = dict(rep.generators)
    if dec.kind == "amalgam":
        c_inv = inverse(c)
        for name in dec.side2:
            gens[name] = compose(compose(c, gens[name]), c_inv)
    else:
        gens[dec.stable] = compose(c, gens[dec.stable])
    return rep.with_generators(gens)


def iterated_bend(rep: MarkedRep, moves: Sequence[BendingMove],
                  tol: float = DEFAULT_TOL, verify_order: bool = False,
                  rng: Optional[np.random.Generator] = None) -> MarkedRep:
    """Apply several bending moves; refuses unless all pairs of centralizing
    elements commute, which is the hypothesis making the result independent
    of the order in which the moves are applied."""
    moves = list(moves)
    for i in range(len(moves)):
        for j in range(i + 1, len(moves)):
            if not commute_check(moves[i].centralizer, moves[j].centralizer, tol):
                raise NonCommutingMoves(
                    f"centralizers of moves {i} and {j} do not commute; "
                    "iterated bending needs pairwise commuting centralizers")
    for k, move in enumerate(moves):
        if not centralizes_check(move.centralizer, move.decomposition.edge_words, rep, tol):
            raise CentralizerCheckFailed(
                f"move {k}: centralizer does not commute with its edge subgroup image")
    result = rep
    for move in moves:
        result = bend(result, move, tol)
    if verify_order and len(moves) > 1:
        rng = rng or np.random.default_rng(0)
        perm = rng.permutation(len(moves))
        other = rep
        for idx in perm:
            other = bend(other, moves[idx], tol)
        for name in result.names():
            if not proj_equiv(result.generators[name], other.generators[name], tol):
                raise AssertionError(
                    f"order-permuted bending disagrees on generator {name!r}")
    return result
