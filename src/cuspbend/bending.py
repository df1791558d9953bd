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

Checks.  :func:`iterated_bend` checks, in this order: every centralizer
has the representation's dimension; the centralizers commute pairwise;
each move's centralizer commutes with its edge words in the given
representation; then, move by move, the decomposition covers the
generators, the centralizer has the right dimension, it commutes with the
edge words in the state the move is applied to, and every relator maps to
the identity in the new state; with ``verify_order``, the same for the
moves in a random order, and both results agree on every generator.
:func:`bend` is the one-move case.  A bend makes every check at its own
``tol``; a :class:`MarkedRep` checks its relators on construction, at
``DEFAULT_TOL``, and when read by ``from_json``, at its ``tol`` (the
``bend --tol`` of the CLI).  The generator sets are built first, with the
same :func:`compose` calls in the same order as one move at a time; then
every check is decided in one stacked pass (words compiled once to letter
indices, the words' products formed as stacked matmuls and compared by one
row-wise :func:`~cuspbend.projlin.proj_equiv_rows`), and the first check
that fails, in the order above, raises.  The stacking touches only
pass/fail, never the values of the generators a bend returns.  A map keeps
its own inverse (:func:`~cuspbend.projlin.inverse`), so an inverse lives as
long as its map.  The checks invert, and a bend keeps, the first map of
each value they meet, so maps of equal value share one inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    compose,
    inverse,
    matrix_from_json,
    matrix_to_json,
    proj_equiv_rows,
    require_int,
    require_json,
)


class RelatorViolation(ValueError):
    """A relator word does not evaluate to the identity."""


class CentralizerCheckFailed(ValueError):
    """The proposed centralizer does not commute with the edge subgroup image."""


class NonCommutingMoves(ValueError):
    """Iterated bending requires pairwise commuting centralizing elements."""


Word = tuple[tuple[str, int], ...]

# a word is multiplied out letter by letter, so |exponent| bounds the work of one letter
MAX_WORD_EXPONENT = 1000


def parse_word(tokens: Sequence, where: str = "word") -> Word:
    """Words are sequences like ["a", "b^-1"]; pairs (name, exp) also
    accepted, whose exp must be a JSON integer.  An exponent beyond
    ``MAX_WORD_EXPONENT`` either way is refused; errors name the letter as
    ``where[i]``."""
    out = []
    for i, tok in enumerate(tokens):
        if isinstance(tok, str):
            name, caret, exp = tok.partition("^")
            exp = int(exp) if caret else 1
        else:
            name, exp = tok
            name, exp = str(name), require_int(exp, f"{where}[{i}] exponent")
        if abs(exp) > MAX_WORD_EXPONENT:
            raise ValueError(f"{where}[{i}] exponent must be at most {MAX_WORD_EXPONENT} "
                             f"in absolute value, not {exp}")
        out.append((name, exp))
    return tuple(out)


def word_to_json(word: Word) -> list:
    return [name if exp == 1 else f"{name}^{exp}" for name, exp in word]


@dataclass(frozen=True)
class MarkedRep:
    """Finite generating set of named projective maps, with optional relators
    (checked projectively when supplied: at ``DEFAULT_TOL`` on construction,
    at the given tol by :meth:`from_json`)."""

    n: int
    generators: dict
    relators: tuple = ()

    def __init__(self, n: int, generators: dict, relators=None, check: bool = True):
        gens = dict(generators)
        for name, g in gens.items():
            if not isinstance(g, ProjMap):
                raise TypeError(f"generator {name!r} is not a ProjMap")
            if g.n != n:
                raise ValueError(f"generator {name!r} has dimension {g.n}, expected {n}")
        rels = tuple(parse_word(w, f"relators[{i}]") for i, w in enumerate(relators or ()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", rels)
        if check:
            self.check_relators()

    def names(self) -> list[str]:
        return list(self.generators)

    def check_relators(self) -> None:
        """Raise RelatorViolation for the first relator whose image is not
        the identity at ``DEFAULT_TOL`` (all relators are decided in one
        stacked pass)."""
        _check_relators(self, DEFAULT_TOL)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": {name: matrix_to_json(g) for name, g in self.generators.items()},
            "relators": [word_to_json(w) for w in self.relators],
        }

    @classmethod
    def from_json(cls, data: dict, *, tol: float) -> "MarkedRep":
        """The representation of ``data``, its relators checked at ``tol``."""
        gens = {name: matrix_from_json(rows)
                for name, rows in require_json(data["generators"], "rep.generators", dict).items()}
        rep = cls(require_int(data["n"], "rep.n"), gens, data.get("relators"), check=False)
        _check_relators(rep, tol)
        return rep


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
        object.__setattr__(self, "edge_words", tuple(parse_word(w, f"edge_words[{i}]")
                                                     for i, w in enumerate(self.edge_words)))
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


def _key(m: ProjMap):
    """A map by its value: the bytes of a float map, the reduced integer form
    of an exact one."""
    return (m.den, *m.num.flat) if m.exact else m.entries.tobytes()


class _Checks:
    """Pass/fail checks, collected in the order the code reaches them and
    decided together.

    A check asks whether the images of two words in a table of letters (maps,
    and the inverses that words need) are projectively equal.  Every letter
    has dimension n: callers check a map's dimension before its first check
    is queued.  Every word is multiplied out left to right as one stacked
    matmul per letter position, and the pairs are compared by one
    :func:`proj_equiv_rows`.  Exact letters are stacked as integer
    numerators (a word's product is then its image up to a positive scale,
    which proportionality ignores); if any letter is float, all letters are
    stacked as floats.  A check that repeats an earlier one (same letters,
    same tol) is dropped: it has the earlier one's verdict.  Maps of equal
    value share one letter, so a generator that two orders of the moves
    build alike is checked, and inverted, once (:meth:`first`).
    """

    def __init__(self, n: int, names=()):
        self.n = n
        self._slot = {name: i for i, name in enumerate(names)}
        self._letters = {}      # _key(map) -> index in the table
        self._table = []        # letter maps
        self._identity = None   # letter index of the identity
        self._codes = {}        # Word -> (letter codes, unknown name or None)
        self._checks = {}       # (lhs, rhs, tol) -> failure

    def letter(self, m: ProjMap) -> int:
        """The letter index of m, added to the table if new."""
        key = _key(m)
        idx = self._letters.get(key)
        if idx is None:
            idx = self._letters[key] = len(self._table)
            self._table.append(m)
        return idx

    def first(self, m: ProjMap) -> ProjMap:
        """The first map met here of m's value, which stands for every map of
        that value: it is the one inverted, and the one a bend keeps."""
        return self._table[self.letter(m)]

    def state(self, gens: dict) -> tuple:
        """A generator set (one map per name, in the order of ``names``) and
        the letter index of each letter code; an inverse's index is filled
        when a word first needs it."""
        maps = list(gens.values())
        return maps, [self.letter(g) for g in maps] + [None] * len(maps)

    def word(self, state: tuple, word: Word) -> tuple:
        """Letter indices of the image of a word in a state; the empty word
        is the identity.  Raises where multiplying the word out letter by
        letter would: an inverse is taken when its letter is reached, before
        an unknown name further on."""
        compiled = self._codes.get(word)
        if compiled is None:
            compiled = self._codes[word] = self._compile(word)
        codes, unknown = compiled
        maps, table = state
        out = [table[c] for c in codes]
        if None in out:
            for i, c in enumerate(codes):
                if table[c] is None:
                    table[c] = self.letter(inverse(self.first(maps[c - len(maps)])))
                out[i] = table[c]
        if unknown is not None:
            raise KeyError(f"unknown generator {unknown!r}")
        if not out:
            if self._identity is None:
                self._identity = self.letter(ProjMap.identity(self.n))
            out.append(self._identity)
        return tuple(out)

    def _compile(self, word: Word):
        """A word as letter codes (slot i for a generator, size + i for its
        inverse, repeated |exponent| times), cut at the first unknown name."""
        codes = []
        for name, exp in word:
            slot = self._slot.get(name)
            if slot is None:
                return tuple(codes), name
            codes += [slot if exp > 0 else slot + len(self._slot)] * abs(exp)
        return tuple(codes), None

    def require(self, lhs: tuple, rhs: tuple, tol: float, failure) -> None:
        """Check that two words have proportional images; ``failure`` is the
        exception for when they do not."""
        self._checks.setdefault((lhs, rhs, tol), failure)

    def run(self, build, *args):
        """Call ``build(*args)``, which adds checks and raises where the code
        it mirrors would raise.  Then decide every check, and raise the
        failure of the first that does not hold, else build's exception,
        else return build's result."""
        result, error = None, None
        try:
            result = build(*args)
        except (ValueError, KeyError) as exc:
            error = exc
        ok = self._verdicts()
        if not ok.all():
            raise list(self._checks.values())[int(np.argmin(ok))]
        if error is not None:
            raise error
        return result

    def _verdicts(self) -> np.ndarray:
        """One bool per distinct check, in the order they were added."""
        keys = list(self._checks)
        if not keys:
            return np.ones(0, dtype=bool)
        if all(m.exact for m in self._table):
            letters = np.array([m.num for m in self._table], dtype=object)
        else:
            letters = np.array([m.to_float().entries for m in self._table])
        words = [w for key in keys for w in key[:2]]
        prod = _products(letters, words).reshape(len(keys), 2, -1)
        return proj_equiv_rows(prod[:, 0], prod[:, 1], np.array([key[2] for key in keys]))


def _products(letters: np.ndarray, words: list) -> np.ndarray:
    """Left-to-right products of nonempty letter-index words, all at once.
    The words run longest first, so the rows still being multiplied at each
    letter position are a prefix of the stack."""
    order = sorted(range(len(words)), key=lambda i: len(words[i]), reverse=True)
    by_len = [words[i] for i in order]
    idx = np.array(list(zip_longest(*by_len, fillvalue=0)))
    prod = letters[idx[0]]
    k = len(by_len)
    for t in range(1, len(idx)):
        while len(by_len[k - 1]) <= t:
            k -= 1
        prod[:k] = prod[:k] @ letters[idx[t, :k]]
    out = np.empty_like(prod)
    out[order] = prod
    return out


def _require_commuting(checks: _Checks, maps: Sequence[ProjMap], tol: float,
                       failure) -> None:
    """Pairwise commutation of maps, pairs i < j in lexicographic order;
    ``failure(i, j)`` is the exception for a pair that does not commute."""
    for i, c in enumerate(maps):
        for j in range(i + 1, len(maps)):
            a, b = checks.letter(c), checks.letter(maps[j])
            checks.require((a, b), (b, a), tol, failure(i, j))


def _require_centralizes(checks: _Checks, c: ProjMap, words, state: tuple,
                         tol: float, failure) -> None:
    """c commutes with the image of every word in a state."""
    lc = checks.letter(c)
    for word in words:
        w = checks.word(state, word)
        checks.require((lc, *w), (*w, lc), tol, failure)


def _require_relators(checks: _Checks, rep: MarkedRep, gens: dict, tol: float) -> None:
    """Every relator of rep maps to the identity under gens."""
    state = checks.state(gens)
    ident = checks.word(state, ())
    for word in rep.relators:
        checks.require(checks.word(state, word), ident, tol, RelatorViolation(
            f"relator {word_to_json(word)} does not map to the identity"))


def _require_dimension(maps: Sequence[ProjMap], n: int) -> None:
    """Raise ValueError, naming both dimensions, for the first map not of
    dimension n."""
    for m in maps:
        if m.n != n:
            raise ValueError(f"dimension mismatch: {m.n} vs {n}")


def _check_relators(rep: MarkedRep, tol: float) -> None:
    checks = _Checks(rep.n, rep.generators)
    checks.run(_require_relators, checks, rep, rep.generators, tol)


def require_pairwise_commuting(maps: Sequence[ProjMap], tol: float, failure) -> None:
    """Raise ``failure(i, j)`` for the first pair i < j of maps, in
    lexicographic order, that do not commute projectively; maps of different
    dimensions raise ValueError first."""
    if not maps:
        return
    _require_dimension(maps, maps[0].n)
    checks = _Checks(maps[0].n)
    checks.run(_require_commuting, checks, maps, tol, failure)


def _bend_step(checks: _Checks, rep: MarkedRep, gens: dict, move: BendingMove,
               tol: float) -> dict:
    """One move of :func:`bend` on gens, a generator set of rep: builds the
    new generators, adding the move's checks to checks in bend's order."""
    dec = move.decomposition
    dec.validate_names(rep)
    c = move.centralizer
    if c.n != rep.n:
        raise ValueError(f"centralizer dimension {c.n} != representation dimension {rep.n}")
    _require_centralizes(checks, c, dec.edge_words, checks.state(gens), tol,
                         CentralizerCheckFailed(
                             "centralizer does not commute with the edge subgroup image"))
    gens = dict(gens)
    if dec.kind == "amalgam":
        c_inv = inverse(checks.first(c))
        for name in dec.side2:
            gens[name] = checks.first(compose(compose(c, gens[name]), c_inv))
    else:
        gens[dec.stable] = checks.first(compose(c, gens[dec.stable]))
    _require_relators(checks, rep, gens, tol)
    return gens


def _iterated_steps(checks: _Checks, rep: MarkedRep, moves: list, tol: float,
                    verify_order: bool, rng) -> dict:
    """The generator sets and checks of :func:`iterated_bend`, in its order;
    returns the generators after every move."""
    def non_commuting(i, j):
        return NonCommutingMoves(f"centralizers of moves {i} and {j} do not commute; "
                                 "iterated bending needs pairwise commuting centralizers")

    centralizers = [m.centralizer for m in moves]
    _require_dimension(centralizers, rep.n)
    _require_commuting(checks, centralizers, tol, non_commuting)
    base = checks.state(rep.generators)
    for k, move in enumerate(moves):
        _require_centralizes(checks, move.centralizer, move.decomposition.edge_words, base, tol,
                             CentralizerCheckFailed(f"move {k}: centralizer does not commute "
                                                    "with its edge subgroup image"))
    gens = rep.generators
    for move in moves:
        gens = _bend_step(checks, rep, gens, move, tol)
    if verify_order and len(moves) > 1:
        rng = rng or np.random.default_rng(0)
        other = rep.generators
        for idx in rng.permutation(len(moves)):
            other = _bend_step(checks, rep, other, moves[idx], tol)
        for name, g in gens.items():
            checks.require((checks.letter(g),), (checks.letter(other[name]),), tol,
                           AssertionError(
                               f"order-permuted bending disagrees on generator {name!r}"))
    return gens


def bend(rep: MarkedRep, move: BendingMove, tol: float = DEFAULT_TOL) -> MarkedRep:
    """One bending move: conjugate the second amalgam side by the
    centralizer, or left-multiply the stable letter.  Checks, in this order:
    the decomposition covers the generators, the centralizer's dimension, the
    centralizer commutes with each edge word, and each relator of the result
    maps to the identity, all at ``tol``."""
    checks = _Checks(rep.n, rep.generators)
    gens = checks.run(_bend_step, checks, rep, rep.generators, move, tol)
    return MarkedRep(rep.n, gens, rep.relators, check=False)


def iterated_bend(rep: MarkedRep, moves: Sequence[BendingMove],
                  tol: float = DEFAULT_TOL, verify_order: bool = False,
                  rng: Optional[np.random.Generator] = None) -> MarkedRep:
    """Apply several bending moves; refuses unless all pairs of centralizing
    elements commute, which is the hypothesis making the result independent
    of the order in which the moves are applied.

    Checks, in this order, each at ``tol``: every centralizer has rep's
    dimension; the centralizers commute pairwise; each move's centralizer
    commutes with its edge words in rep; then the :func:`bend` checks of
    each move on the state it is applied to; with ``verify_order`` and two
    or more moves, the bend checks of the moves applied again in a random
    order, and the two results agree on every generator.  Every generator
    set is built first; then all checks are decided together, and the first
    that fails raises, as if each had been checked where it was reached.
    """
    moves = list(moves)
    if not moves:
        return rep
    checks = _Checks(rep.n, rep.generators)
    gens = checks.run(_iterated_steps, checks, rep, moves, tol, verify_order, rng)
    return MarkedRep(rep.n, gens, rep.relators, check=False)
