"""Rankings, preference profiles, and their candidate pairs.

A ranking is a plain tuple of candidate indices, most-preferred first, and is
always a permutation of ``range(m)``.  Candidates are dense integers; human
names exist only at the text-format boundary (:func:`parse_profile`).  A
ranking's content, for the protocols, is its set of preference pairs
(:func:`pairs_of`); the Kendall cost of a ranking against a profile lives with
the weight matrix in :mod:`byzrank.kemeny`.  Everything here is an immutable
value and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, repeat
from typing import Iterable, Iterator, Sequence

Ranking = tuple[int, ...]
Pair = tuple[int, int]  # (above, below): ``above`` preferred to ``below``


class ParseError(ValueError):
    """Profile text is malformed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def is_ranking(r: object, m: int) -> bool:
    """True iff ``r`` is a tuple permuting ``range(m)``: the one ranking test.

    Entries must be plain ints: ``True``/``False`` would alias 1 and 0.
    """
    return (
        isinstance(r, tuple)
        and len(r) == m
        and {int}.issuperset(map(type, r))
        and sorted(r) == list(range(m))
    )


def validate_ranking(r: Sequence[int], m: int | None = None) -> Ranking:
    """Return ``r`` as a tuple after checking it with :func:`is_ranking`.

    With ``m=None`` the length of ``r`` is used.  Raises ``ValueError`` on
    duplicates, gaps, wrong length or non-int entries.
    """
    t = tuple(r)
    if m is None:
        m = len(t)
    if not is_ranking(t, m):
        raise ValueError(f"not a permutation of 0..{m - 1}: {t!r}")
    return t


@dataclass(frozen=True)
class Profile:
    """An ordered multiset of rankings over a common candidate universe.

    Voter order and multiplicity are preserved: the simulator attributes
    ballots to nodes by position.  Rankings are stored as tuples; plain
    tuples of plain ints are validated together, each distinct one once, and
    a refusal names the first bad ballot.
    """

    rankings: tuple[Ranking, ...]
    m: int

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValueError("profile must contain at least one ranking")
        rankings, m = tuple(self.rankings), self.m
        # Plain tuples of plain ints are checked together, each distinct one
        # once: with no bool or float entry, no repeat can alias a ballot.
        # The entry types are read once per ballot object, since repeats of
        # one object cannot alias each other.  Lists, unhashable entries and
        # a failed check go ballot by ballot, which turns list ballots into
        # tuples and names the first bad ballot.
        try:
            distinct = dict.fromkeys(rankings) if {tuple} >= set(map(type, rankings)) else ()
        except TypeError:  # an unhashable entry
            distinct = ()
        if not (
            distinct
            and set(map(len, distinct)) <= {m}
            and {int}.issuperset(
                map(type, chain.from_iterable(dict(zip(map(id, rankings), rankings)).values()))
            )
            and all(map(frozenset(range(m)).__eq__, map(frozenset, distinct)))
        ):
            rankings = tuple([validate_ranking(r, m) for r in rankings])
        object.__setattr__(self, "rankings", rankings)

    @classmethod
    def of(cls, rankings: Iterable[Sequence[int]], m: int | None = None) -> "Profile":
        rs = tuple(map(tuple, rankings))
        if m is None:
            if not rs:
                raise ValueError("profile must contain at least one ranking")
            m = len(rs[0])
        return cls(rs, m)

    def __len__(self) -> int:
        return len(self.rankings)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)


def pairs_of(r: Sequence[int]) -> frozenset[Pair]:
    """All m(m-1)/2 ordered preference pairs implied by a ranking."""
    return frozenset(combinations(r, 2))


def unanimous_pairs(profile: Profile) -> frozenset[Pair]:
    """Pairs ordered the same way by every ballot in the profile.

    The result is the intersection of total orders, hence automatically
    transitive and acyclic.  Each distinct ranking is intersected once.
    """
    common = pairs_of(profile.rankings[0])
    for r in dict.fromkeys(profile.rankings[1:]):
        common = common & pairs_of(r)
        if not common:
            break
    return common


# --- text format ------------------------------------------------------------
#
# One ranking per line, candidate names separated by ">"; "#" starts a
# comment line; blank lines are ignored.  The candidate universe is the union
# of all names, indexed by first appearance.


def parse_profile(text: str) -> tuple[Profile, list[str]]:
    """Parse the profile text format; returns (profile, candidate names).

    Each distinct ballot line is split and checked once, in whole-profile
    passes, and equal lines share one ranking tuple.  A refusal names the
    first line that holds the offending text.
    """
    lines = list(map(str.strip, text.splitlines()))
    distinct = [s for s in dict.fromkeys(lines) if s and not s.startswith("#")]
    if not distinct:
        raise ParseError(1, "no rankings found")
    sizes = [s.count(">") + 1 for s in distinct]
    # each distinct unstripped name is stripped once; names are indexed by
    # first appearance
    raw = ">".join(distinct).split(">")
    tokens = dict.fromkeys(raw)
    stripped = list(map(str.strip, tokens))
    names = list(dict.fromkeys(stripped))
    m = len(names)
    index = dict(zip(names, range(m)))
    id_of = dict(zip(tokens, map(index.__getitem__, stripped)))
    rows = list(map(tuple, map(islice, repeat(map(id_of.__getitem__, raw)), sizes)))
    if "" not in index and sizes.count(m) == len(sizes):
        ranking_of = dict(zip(distinct, rows))
        try:
            return Profile(tuple(filter(None, map(ranking_of.get, lines))), m), names
        except ValueError:  # a line repeats a name: named below
            pass
    # the first bad line in file order: an empty or repeated name anywhere
    # comes before a line that misses a name
    groups = map(list, map(islice, repeat(map(str.strip, raw)), sizes))
    for line, parts in zip(distinct, groups):
        if "" in parts:
            raise ParseError(lines.index(line) + 1, f"empty candidate name in {line!r}")
        if len(set(parts)) != len(parts):
            raise ParseError(lines.index(line) + 1, f"duplicate candidate in {line!r}")
    line, size = next((d, k) for d, k in zip(distinct, sizes) if k != m)
    raise ParseError(
        lines.index(line) + 1,
        f"ranking covers {size} of {m} candidates "
        f"(every line must rank the full universe)",
    )
