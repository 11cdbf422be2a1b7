"""States of the CQP search space.

A state is a set of preferences named by their *ranks* — positions into
one of the order vectors D, C, S (Section 5.1). Working with ranks
instead of preference identities is what makes the paper's transitions
purely syntactic: replacing rank ``r`` by ``r + 1`` has a known effect on
the vector's parameter regardless of which preferences are involved.

Ranks are 0-based here (the paper is 1-based).

A state is one Python int, a *mask*, whose set bits are the ranks (or
P-indices) it contains: membership, group size (popcount) and cache
keys are single-int operations. The Section 5 loops carry each state as
its rank mask plus the P-index mask the evaluator prices; a Vertical
move ``r -> r+1`` flips two bits of each.

Two more encodings sit at the loops' edges:

* the *frontier format* (:data:`State`) — a sorted tuple of ranks. The
  boundary sweeps return it, frontier memos store it and snapshots
  persist it, so it is a data format at a module seam, not a search
  state;
* the *packed rank word* (:class:`RankWords`) — one bit field per
  position, which makes the paper's ``prune(.)`` dominance one
  subtraction and orders states exactly as their rank tuples compare.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

State = Tuple[int, ...]

# A mask state: set bit ``r`` <=> rank/index ``r`` is in the state.
Mask = int


def mask_of(ranks: Iterable[int]) -> Mask:
    """The bitmask of an iterable of ranks (duplicates collapse)."""
    mask = 0
    for rank in ranks:
        mask |= 1 << rank
    return mask


def state_of(mask: Mask) -> State:
    """The canonical sorted tuple of a mask (bits ascend, so no sort)."""
    state: List[int] = []
    while mask:
        low = mask & -mask
        state.append(low.bit_length() - 1)
        mask ^= low
    return tuple(state)


def pack_masks(masks: Iterable[Mask], k: int) -> int:
    """A list of ``k``-bit masks as one int: a leading 1 bit, then each
    mask in ``k`` bits, the first highest. About ``k / 8`` bytes a mask,
    for lists held long (memoized phase-1 results)."""
    packed = 1
    for mask in masks:
        packed = (packed << k) | mask
    return packed


def unpack_masks(packed: int, k: int) -> List[Mask]:
    """The masks :func:`pack_masks` packed, in their order."""
    field = (1 << k) - 1
    masks: List[Mask] = []
    while packed > 1:
        masks.append(packed & field)
        packed >>= k
    masks.reverse()
    return masks


def mask_group_size(mask: Mask) -> int:
    """Group of a mask state: its number of set bits (Def. 1)."""
    return bin(mask).count("1")


if hasattr(int, "bit_count"):  # Python >= 3.10
    mask_group_size = int.bit_count  # noqa: F811


def mask_contains(mask: Mask, rank: int) -> bool:
    """O(1) membership test."""
    return bool((mask >> rank) & 1)


def mask_is_below(mask: Mask, origin: Mask) -> bool:
    """True when ``mask`` is reachable from ``origin`` by Vertical moves.

    Vertical moves stay in the group and replace one rank by its
    successor, so reachability is componentwise dominance of the sorted
    ranks, ``state[i] >= origin[i]``. Equivalently: for every rank
    prefix ``[0, r]``, the state holds at most as many ranks in it as
    the origin does. Scanning the union's set bits keeps the check
    O(popcount) without materializing tuples.
    """
    if mask_group_size(mask) != mask_group_size(origin):
        return False
    union = mask | origin
    ahead = 0  # (#origin bits) - (#mask bits) seen so far
    while union:
        low = union & -union
        union ^= low
        if origin & low:
            ahead += 1
        if mask & low:
            ahead -= 1
            if ahead < 0:
                return False
    return True


def vertical_moves(mask: Mask, k: int) -> List[Tuple[int, int]]:
    """The Vertical moves out of a rank mask, as ``(rank, field)`` pairs.

    A move replaces ``rank`` by its absent successor ``rank + 1`` inside
    the vector: the neighbor's rank mask is ``mask + (1 << rank)`` and
    its packed word (see :class:`RankWords`) is ``word + (1 << field *
    width)``. Moves come rightmost rank first, the order the paper's
    traces follow (Figure 6); ``field`` counts positions from the right.
    """
    moves: List[Tuple[int, int]] = []
    field = 0
    rest = mask
    while rest:
        rank = rest.bit_length() - 1
        rest ^= 1 << rank
        if rank + 1 < k and not (mask >> (rank + 1)) & 1:
            moves.append((rank, field))
        field += 1
    return moves


class RankWords:
    """The packed rank word of a state over a K-rank vector.

    A state of group ``g`` packs into ``g`` bit fields of :attr:`width`
    bits: its first (smallest) rank in the highest field, its last in
    field 0, each below a guard bit. Two facts make the word the search
    loops' dominance and ordering device:

    * componentwise dominance of a state over a recorded boundary ``b``
      of its group — the paper's ``prune(.)`` — is ``((word | G) - b) &
      G == G``, where ``G`` is :attr:`guards` ``[g]``: each field
      subtracts without borrowing from its neighbour and keeps its guard
      bit exactly when the state's rank is at least the boundary's;
    * shifted up to K fields (:meth:`lex_key`), words compare as the
      sorted rank tuples do, so ties broken on the word break exactly
      as ties broken on the tuple.

    A Vertical move adds ``1 << (field * width)``; a Horizontal move
    appends the new last rank as ``(word << width) | rank``.
    """

    __slots__ = ("k", "width", "guards")

    def __init__(self, k: int) -> None:
        value_bits = max(1, (k - 1).bit_length())
        self.k = k
        self.width = value_bits + 1
        guards = [0]
        for field in range(k):
            guards.append(guards[-1] | (1 << (field * self.width + value_bits)))
        self.guards: List[int] = guards

    def pack(self, mask: Mask) -> int:
        """The packed word of a rank mask."""
        word = 0
        width = self.width
        while mask:
            low = mask & -mask
            word = (word << width) | (low.bit_length() - 1)
            mask ^= low
        return word

    def lex_key(self, word: int, group: int) -> int:
        """An int that orders states as their sorted rank tuples do.

        Missing trailing positions read as 0, below any real rank there
        (a sorted tuple's rank at position ``i >= 1`` is at least 1), so
        a proper prefix sorts first, as it does among tuples; the empty
        state, whose word is also 0, is -1.
        """
        if not group:
            return -1
        return word << ((self.k - group) * self.width)


class BoundaryBook:
    """The dominance half of the paper's ``prune(.)``.

    Recorded boundaries are kept per group as packed words; a state is
    *covered* when it is componentwise at or after one of them (a state
    equal to a recorded boundary counts as covered).
    """

    __slots__ = ("_guards", "_marks")

    def __init__(self, words: RankWords) -> None:
        self._guards = words.guards
        self._marks: Dict[int, List[int]] = {}

    def add(self, word: int, group: int) -> None:
        self._marks.setdefault(group, []).append(word)

    def covered(self, word: int, group: int) -> bool:
        marks = self._marks.get(group)
        if marks:
            guard = self._guards[group]
            raised = word | guard
            for mark in marks:
                if (raised - mark) & guard == guard:
                    return True
        return False
