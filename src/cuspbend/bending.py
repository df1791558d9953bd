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

Checks.  :func:`iterated_bend` checks, in this order: every relator of
the given representation maps to the identity; every centralizer has the
representation's dimension; the centralizers commute pairwise; each move's
centralizer commutes with its edge words in the given representation;
then, move by move, the decomposition covers the generators, the
centralizer commutes with the edge words in the state the move is applied
to, and every relator maps to the identity in the new state; with
``verify_order``, the same for the moves in the order
``random.Random(seed)`` draws (the stdlib generator, which numpy imports
anyway, so a bend never loads ``numpy.random``), and both results agree on
every generator.  :func:`bend` is :func:`iterated_bend` with one move,
and :meth:`MarkedRep.check_relators` with none.  A bend makes every check
at its own ``tol``; a :class:`MarkedRep` checks its relators on
construction, at ``DEFAULT_TOL``, while ``from_json`` leaves them to the
pass of :func:`iterated_bend` (at the ``bend --tol`` of the CLI).  The
generator sets are built first, with the same :func:`compose` calls in the
same order as one move at a time; then the inverses the words need are
taken in one :func:`~cuspbend.projlin.keep_inverses` call (one stacked
inversion of the float maps), and every check is decided in one stacked
pass (words compiled once to letter indices, the words' products formed as
stacked matmuls and compared by one row-wise
:func:`~cuspbend.projlin.proj_equiv_rows`); the first check that fails, in
the order above, raises.  A map refused an inverse raises as if inverted
where a word first needed it: after the checks queued before that.  The
stacking touches only pass/fail, never the values of the generators a bend
returns.  A map keeps its own inverse, so an inverse lives as long as its
map.  The checks invert, and a bend keeps, the first map of each value
they meet, so maps of equal value share one inversion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from .projlin import (
    DEFAULT_TOL,
    ProjMap,
    compose,
    inverse,
    keep_inverses,
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
    (checked projectively at ``DEFAULT_TOL`` on construction, unless
    ``check`` is false, as :meth:`from_json` leaves them)."""

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
        """Raise RelatorViolation for the first relator that fails at
        ``DEFAULT_TOL``: :func:`iterated_bend` with no moves."""
        iterated_bend(self, [], DEFAULT_TOL)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": {name: matrix_to_json(g) for name, g in self.generators.items()},
            "relators": [word_to_json(w) for w in self.relators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedRep":
        """The representation of ``data``, its relators read but not checked:
        :func:`iterated_bend` decides them first in its own pass, at its tol."""
        gens = {name: matrix_from_json(rows)
                for name, rows in require_json(data["generators"], "rep.generators", dict).items()}
        return cls(require_int(data["n"], "rep.n"), gens, data.get("relators"), check=False)


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
    build alike is checked, and inverted, once (:meth:`first`).  An inverse
    that a word needs is a pending letter until :meth:`_verdicts`.
    """

    def __init__(self, n: int, names):
        self.n = n
        self._slot = {name: i for i, name in enumerate(names)}
        self._letters = {}      # _key(map) -> index in the table
        self._table = []        # letter maps
        self._identity = None   # letter index of the identity
        self._codes = {}        # Word -> (letter codes, unknown name or None)
        self._checks = {}       # (lhs, rhs, tol) -> failure
        self._pending = {}      # letter -> (its inverse's letter, checks queued before)

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
        is the identity.  Raises KeyError for an unknown name, after the
        inverses needed before it are pending."""
        compiled = self._codes.get(word)
        if compiled is None:
            compiled = self._codes[word] = self._compile(word)
        codes, unknown = compiled
        maps, table = state
        out = [table[c] for c in codes]
        if None in out:
            for i, c in enumerate(codes):
                if table[c] is None:
                    table[c] = self._inverse_letter(maps[c - len(maps)])
                out[i] = table[c]
        if unknown is not None:
            raise KeyError(f"unknown generator {unknown!r}")
        if not out:
            if self._identity is None:
                self._identity = self.letter(ProjMap.identity(self.n))
            out.append(self._identity)
        return tuple(out)

    def _inverse_letter(self, m: ProjMap) -> int:
        """The letter of the inverse of m's value, pending until
        :meth:`_verdicts` inverts the map :meth:`first` gives for m."""
        idx = self.letter(m)
        if idx not in self._pending:
            self._pending[idx] = (len(self._table), len(self._checks))
            self._table.append(None)
        return self._pending[idx][0]

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
        """Check that two words have proportional images; ``failure()``
        builds the exception for when they do not."""
        self._checks.setdefault((lhs, rhs, tol), failure)

    def run(self, *args):
        """Call :func:`_iterated_steps` with these checks, then decide the
        checks (:meth:`_verdicts`), and raise the failure of the first that
        does not hold, else a refused inverse's error, else the steps'
        exception, else return their generators."""
        result, error = None, None
        try:
            result = _iterated_steps(self, *args)
        except (ValueError, KeyError) as exc:
            error = exc
        ok, refusal = self._verdicts()
        if not ok.all():
            raise list(self._checks.values())[int(np.argmin(ok))]()
        if refusal is not None:
            raise refusal
        if error is not None:
            raise error
        return result

    def _verdicts(self) -> tuple:
        """Invert every pending map in one :func:`keep_inverses` call, then
        return one bool per distinct check, in the order they were added, and
        None; or, if a pending map is refused, the bools of the checks queued
        before its inverse was first needed, and its error."""
        count, size, refusal = len(self._checks), len(self._table), None
        maps = [self._table[idx] for idx in self._pending]
        for (inv_idx, queued), inv in zip(self._pending.values(), keep_inverses(maps)):
            if not isinstance(inv, ProjMap):
                count, size, refusal = queued, inv_idx, inv
                break
            self._table[inv_idx] = inv
        keys = list(self._checks)[:count]
        if not keys:
            return np.ones(0, dtype=bool), refusal
        table = self._table[:size]
        if all(m.exact for m in table):
            letters = np.array([m.num for m in table], dtype=object)
        else:
            letters = np.array([m.to_float().entries for m in table])
        words = [w for key in keys for w in key[:2]]
        prod = _products(letters, words).reshape(len(keys), 2, -1)
        return proj_equiv_rows(prod[:, 0], prod[:, 1], np.array([key[2] for key in keys])), refusal


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
    ``failure(i, j)`` builds the exception for a pair that does not commute."""
    for i, c in enumerate(maps):
        for j in range(i + 1, len(maps)):
            a, b = checks.letter(c), checks.letter(maps[j])
            checks.require((a, b), (b, a), tol, partial(failure, i, j))


def _require_centralizes(checks: _Checks, c: ProjMap, words, state: tuple,
                         tol: float, failure) -> None:
    """c commutes with the image of every word in a state; ``failure()``
    builds the exception for a word it does not commute with."""
    lc = checks.letter(c)
    for word in words:
        w = checks.word(state, word)
        checks.require((lc, *w), (*w, lc), tol, failure)


def _require_relators(checks: _Checks, rep: MarkedRep, gens: dict, tol: float) -> None:
    """Every relator of rep maps to the identity under gens."""
    state = checks.state(gens)
    ident = checks.word(state, ())
    for word in rep.relators:
        checks.require(checks.word(state, word), ident, tol, lambda word=word: RelatorViolation(
            f"relator {word_to_json(word)} does not map to the identity"))


def _require_dimension(maps: Sequence[ProjMap], n: int) -> None:
    """Raise ValueError, naming both dimensions, for the first map not of
    dimension n."""
    for m in maps:
        if m.n != n:
            raise ValueError(f"dimension mismatch: {m.n} vs {n}")


def _bend_step(checks: _Checks, rep: MarkedRep, gens: dict, move: BendingMove,
               tol: float) -> dict:
    """One move on gens, a generator set of rep: builds the new generators,
    adding the move's checks to checks."""
    dec = move.decomposition
    dec.validate_names(rep)
    c = move.centralizer
    _require_centralizes(checks, c, dec.edge_words, checks.state(gens), tol,
                         partial(CentralizerCheckFailed,
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
                    verify_order: bool, seed: int) -> dict:
    """The generator sets and checks of :func:`iterated_bend`, in its order;
    returns the generators after every move."""
    def non_commuting(i, j):
        return NonCommutingMoves(f"centralizers of moves {i} and {j} do not commute; "
                                 "iterated bending needs pairwise commuting centralizers")

    _require_relators(checks, rep, rep.generators, tol)
    centralizers = [m.centralizer for m in moves]
    _require_dimension(centralizers, rep.n)
    _require_commuting(checks, centralizers, tol, non_commuting)
    base = checks.state(rep.generators)
    for k, move in enumerate(moves):
        _require_centralizes(checks, move.centralizer, move.decomposition.edge_words, base, tol,
                             lambda k=k: CentralizerCheckFailed(
                                 f"move {k}: centralizer does not commute "
                                 "with its edge subgroup image"))
    gens = rep.generators
    for move in moves:
        gens = _bend_step(checks, rep, gens, move, tol)
    if verify_order and len(moves) > 1:
        other = rep.generators
        for idx in random.Random(seed).sample(range(len(moves)), len(moves)):
            other = _bend_step(checks, rep, other, moves[idx], tol)
        for name, g in gens.items():
            checks.require((checks.letter(g),), (checks.letter(other[name]),), tol,
                           lambda name=name: AssertionError(
                               f"order-permuted bending disagrees on generator {name!r}"))
    return gens


def bend(rep: MarkedRep, move: BendingMove, tol: float = DEFAULT_TOL) -> MarkedRep:
    """One bending move: conjugate the second amalgam side by the
    centralizer, or left-multiply the stable letter: :func:`iterated_bend`
    with one move, so with its checks, in its order, at ``tol``."""
    return iterated_bend(rep, [move], tol)


def iterated_bend(rep: MarkedRep, moves: Sequence[BendingMove],
                  tol: float = DEFAULT_TOL, verify_order: bool = False,
                  seed: int = 0) -> MarkedRep:
    """Apply several bending moves; refuses unless all pairs of centralizing
    elements commute, which is the hypothesis making the result independent
    of the order in which the moves are applied.

    Checks, in this order, each at ``tol``: every relator of rep maps to
    the identity, also when ``moves`` is empty; every centralizer has rep's
    dimension; the centralizers commute pairwise; each move's centralizer
    commutes with its edge words in rep; then, move by move, the
    decomposition covers the generators, the centralizer commutes with the
    edge words in the state the move is applied to, and every relator maps
    to the identity in the new state; with ``verify_order`` and two or more
    moves, the same for the moves applied again in the order
    ``random.Random(seed).sample`` draws, and the two results agree on every
    generator.  Every generator set is built first; then all checks are
    decided together, and the first that fails raises, as if each had been
    checked where it was reached.  A negative ``seed`` is a ``ValueError``
    before any check, with or without ``verify_order``.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    moves = list(moves)
    gens = _Checks(rep.n, rep.generators).run(rep, moves, tol, verify_order, seed)
    return MarkedRep(rep.n, gens, rep.relators, check=False) if moves else rep
