"""A word's image in a marked representation, multiplied out one letter at a
time: the per-word reference for the stacked checks of ``bending._Checks``,
kept apart from the program (it was ``MarkedRep.evaluate``)."""

from cuspbend.bending import parse_word
from cuspbend.projlin import ProjMap, compose, inverse


def evaluate(rep, word) -> ProjMap:
    """Image of a word in the generators of rep; the empty word gives the
    identity, exact when every generator is.  The product starts from the
    first letter, not from the identity."""
    result = None
    for name, exp in parse_word(word):
        if name not in rep.generators:
            raise KeyError(f"unknown generator {name!r}")
        if exp < 0:
            g = inverse(rep.generators[name])
            exp = -exp
        else:
            g = rep.generators[name]
        for _ in range(exp):
            result = g if result is None else compose(result, g)
    if result is None:
        return ProjMap.identity(rep.n, exact=all(g.exact for g in rep.generators.values()))
    return result
