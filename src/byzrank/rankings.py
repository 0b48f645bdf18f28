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
from itertools import chain, combinations
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
        and all(type(c) is int for c in r)
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
    ballots to nodes by position.  Rankings are stored as tuples, and each
    distinct one is validated once, in first-occurrence order, so the
    ballot a refusal names is the first bad one.
    """

    rankings: tuple[Ranking, ...]
    m: int

    def __post_init__(self) -> None:
        if not self.rankings:
            raise ValueError("profile must contain at least one ranking")
        rankings = tuple(self.rankings)
        # A repeated tuple is checked once, at its first occurrence, unless
        # a repeat may alias it (a bool or float entry equals an int).  Lists,
        # unhashable entries and possible aliases are checked ballot by ballot.
        try:
            distinct = dict.fromkeys(rankings) if {tuple} >= set(map(type, rankings)) else rankings
        except TypeError:  # an unhashable entry
            distinct = rankings
        if len(distinct) < len(rankings) and not {int} >= set(
            map(type, chain.from_iterable(rankings))
        ):
            distinct = rankings
        checked = [validate_ranking(r, self.m) for r in distinct]
        if distinct is rankings:
            rankings = tuple(checked)
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
    """Parse the profile text format; returns (profile, candidate names)."""
    names: list[str] = []
    index: dict[str, int] = {}
    raw: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(">")]
        if any(not p for p in parts):
            raise ParseError(line_no, f"empty candidate name in {stripped!r}")
        if len(set(parts)) != len(parts):
            raise ParseError(line_no, f"duplicate candidate in {stripped!r}")
        for name in parts:
            if name not in index:
                index[name] = len(names)
                names.append(name)
        raw.append((line_no, parts))
    if not raw:
        raise ParseError(1, "no rankings found")
    m = len(names)
    rankings = []
    for line_no, parts in raw:
        if len(parts) != m:
            raise ParseError(
                line_no,
                f"ranking covers {len(parts)} of {m} candidates "
                f"(every line must rank the full universe)",
            )
        rankings.append(tuple(map(index.__getitem__, parts)))
    return Profile.of(rankings, m), names
